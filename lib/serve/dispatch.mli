(** Request handlers and renderers shared by the one-shot CLI ([bin/mppm])
    and the prediction daemon ([bin/mppmd]).

    This is the service's pure core: mix parsing, output formatting and
    the per-request handlers all live here, over
    {!Mppm_experiments.Context}, so the daemon's answers are byte-for-byte
    the text the CLI prints for the same query — the end-to-end
    determinism guarantee the integration tests and the CI smoke job
    diff.  No sockets, no channels: callers own all I/O. *)

val parse_mixes :
  string list ->
  (Mppm_workload.Mix.t list, Wire.error_code * string) result
(** Benchmark-name arguments to mixes, with the CLI's comma semantics:
    plain names form one mix; if any argument contains a comma, each
    argument is its own comma-separated mix and the list is a batch.
    Unknown names come back as {!Wire.Unknown_benchmark}, empty mixes as
    {!Wire.Bad_request} — never an exception. *)

val pp_predicted : Format.formatter -> Mppm_core.Model.result -> unit
(** The CLI's rendering of one MPPM prediction (iterations, per-program
    slowdown/CPI lines, STP/ANTT). *)

val pp_measured : Format.formatter -> Mppm_experiments.Context.measured -> unit
(** The CLI's rendering of one detailed-simulation result. *)

val pp_comparison :
  Format.formatter ->
  Mppm_core.Model.result * Mppm_experiments.Context.measured ->
  unit
(** Prediction, measurement, and the STP/ANTT error line between them
    (the [mppm compare] block for one mix). *)

val pp_batch :
  (Format.formatter -> 'a -> unit) ->
  mixes:Mppm_workload.Mix.t list ->
  Format.formatter ->
  'a array ->
  unit
(** Renders per-mix results in batch form: a single mix prints bare; a
    multi-mix batch separates results with ["== mix a+b+c+d =="] headers,
    exactly as the one-shot CLI does. *)

val rank :
  Mppm_experiments.Context.t ->
  cores:int ->
  count:int ->
  (int * float) array
(** Ranks the Table 2 LLC configurations by mean MPPM-predicted STP over
    [count] freshly sampled [cores]-program mixes, best first.  The
    sample is drawn from the context's ["cli-rank"] stream, so the
    ranking is a deterministic function of the context seed. *)

val pp_ranking :
  cores:int -> count:int -> Format.formatter -> (int * float) array -> unit
(** Renders a {!rank} result as the CLI's numbered ranking table. *)

val handle :
  Mppm_experiments.Context.t -> Wire.request -> Wire.response
(** Answers one request: [Predict]/[Compare] parse the names, run the
    model (and, for compare, the detailed simulator) per mix and return
    the batch rendering as {!Wire.Output}; [Rank] returns the rendered
    ranking; [Stats] snapshots the [serve.*], [pool.*] and
    [profile_cache.*] registry counters; [Shutdown] acknowledges (the
    caller owns actually exiting).  Malformed queries return structured
    {!Wire.Error} responses — [handle] never raises on them — and every
    request/outcome is counted under [serve.*] in
    {!Mppm_obs.Registry}. *)
