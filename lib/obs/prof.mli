(* lint: allow-file S4 profiler readouts are obs API surface; bench/tools consume a task-dependent subset *)
(** Injected-clock profiling: scoped wall-time spans with Gc allocation
    deltas, and the domain pool's per-task metrics with duration
    quantiles.

    The clock is {e caller-supplied} ([bench/], [tools/] and [bin/]
    inject [Unix.gettimeofday]; tests inject counters), so [lib/] never
    reads wall-clock and lint rule D1 holds by construction.  {!null} is
    the default everywhere: every recording point is one branch, no
    clock is read, nothing is allocated, and profiled runs are
    bit-for-bit identical to unprofiled ones (tested in
    [test/suite_obs.ml] and [test/suite_pool.ml]).

    A profiler is {b not} thread-safe on its own: recording must be
    serialized by the caller.  {!Mppm_pool.Pool} records task metrics
    under its own mutex; span scopes belong on the orchestrating
    domain. *)

type clock = unit -> float
(** A monotone time source, in seconds.  Never read inside [lib/]. *)

type t
(** A possibly-null profiler. *)

val null : t
(** The no-op profiler: recording points cost one branch. *)

val make : clock:clock -> t
(** A live profiler reading timestamps from [clock]. *)

val enabled : t -> bool
(** Whether this profiler records anything. *)

val clock : t -> clock option
(** The injected clock, [None] for {!null}.  Lets instrumentation (the
    pool) skip timestamp reads entirely when profiling is off. *)

(** One completed scoped span. *)
type span = {
  sp_name : string;  (** span label, e.g. a bench phase name *)
  sp_start : float;  (** clock value at entry *)
  sp_dur : float;  (** elapsed clock, clamped at 0 *)
  sp_alloc_bytes : float;
      (** [Gc.allocated_bytes] delta on the recording domain *)
}

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()] inside a span: clock and allocation
    deltas are recorded under [name] whether [f] returns or raises.
    With {!null} this is exactly [f ()]. *)

val spans : t -> span list
(** Every completed span, in completion order.  Empty for {!null}. *)

(** One pool task execution, as recorded by [Mppm_pool.Pool]. *)
type task = {
  tk_domain : int;  (** worker index that ran the task (submitter last) *)
  tk_start : float;  (** clock value when the task body started *)
  tk_wait : float;  (** submit-to-start queue wait *)
  tk_dur : float;  (** task body duration *)
}

(** Per-worker totals inside {!pool_stats}. *)
type domain_stat = {
  d_domain : int;  (** worker index *)
  d_tasks : float;  (** tasks completed by this worker *)
  d_busy : float;  (** summed task-body time on this worker *)
}

(** Utilization summary over every recorded pool task. *)
type pool_stats = {
  p_jobs : int;  (** pool size (largest {!note_jobs}, floored at the
                     number of workers observed) *)
  p_tasks : float;  (** tasks recorded *)
  p_domains : domain_stat list;  (** per-worker totals, sorted by index *)
  p_elapsed : float;  (** last task end minus first task start *)
  p_utilization : float;
      (** total busy time / (elapsed x jobs): 1.0 = perfectly packed *)
  p_wait_p50 : float;  (** median queue wait *)
  p_wait_p99 : float;  (** 99th-percentile queue wait *)
  p_dur_p50 : float;  (** median task duration *)
  p_dur_p90 : float;  (** 90th-percentile task duration *)
  p_dur_p99 : float;  (** 99th-percentile task duration *)
}

val note_jobs : t -> int -> unit
(** Record the pool size so {!pool_stats} can report utilization over
    idle workers too.  Called by [Pool.create]. *)

val task : t -> domain:int -> start:float -> wait:float -> dur:float -> unit
(** Record one completed pool task.  Negative waits/durations (clock
    skew) clamp to 0.  Callers must serialize — the pool invokes this
    under its batch mutex. *)

val tasks : t -> task list
(** Every recorded task, in completion order.  Empty for {!null}.  Feeds
    the per-domain lanes of [bench/main.exe --trace-phases]. *)

val pool_stats : t -> pool_stats option
(** The utilization summary; [None] for {!null} or when no task was
    recorded. *)

val pp_pool : Format.formatter -> t -> unit
(** Render {!pool_stats} as the post-run utilization block printed by
    [bench/main.exe] and [tools/calibrate.exe]. *)
