(** Shared-cache contention models (Chandra et al., HPCA 2005).

    Given each co-scheduled program's isolated stack-distance counters over
    an execution epoch, a contention model predicts how many {e additional}
    misses each program suffers because the cache is shared.  MPPM is
    parametric in the model (paper Sec. 2.3); the paper uses FOA, "a fairly
    simple model ... accurate enough for our needs". *)

type model =
  | Foa
      (** Frequency-of-access: each program's effective share of the cache
          is proportional to its access frequency; its shared misses are
          its isolated SDC evaluated at that (fractional) number of ways. *)
  | Sdc_competition
      (** Chandra et al.'s stack-distance-competition model: the A ways of
          a set are handed out one at a time to the program whose next
          stack-depth counter is largest (a greedy merge of the SDC
          profiles). *)
  | Prob of { iterations : int }
      (** An inductive-probability-style dilation model: intervening
          allocations by co-runners dilate each program's stack distances
          by the ratio of others' miss traffic to the program's own access
          rate; solved by fixed-point iteration. *)
  | Way_partition of float array
      (** A way-partitioned shared cache (Sec. 2.3: MPPM supports any
          partitioning strategy given a matching contention model): program
          [p]'s misses are its isolated SDC evaluated at its quota of ways,
          independent of co-runner behaviour.  The array gives per-program
          quotas, one per co-scheduled program. *)

val default : model
(** {!Foa}, as in the paper. *)

type prediction = private {
  isolated_misses : float array;  (** each program's own-SDC misses *)  (* mppm: unit accesses *)
  shared_misses : float array;  (** predicted misses under sharing *)  (* mppm: unit accesses *)
  extra_misses : float array;  (* mppm: unit accesses *)
      (** [max 0 (shared - isolated)]: the conflict misses MPPM charges *)
  effective_ways : float array;  (* mppm: unit ways *)
      (** the per-program cache share the model settled on (ways); for
          {!Prob} this is the undilated-equivalent ways *)
  total : float array;  (** one working cell for running totals *)
  probe : Mppm_cache.Sdc.probe;  (** working cells for SDC queries *)
}
(** The four result vectors, one cell per program, plus the working
    cells the models compute in, so that a prediction can be made
    without allocating. *)

val prediction : int -> prediction  (* mppm: unit _ -> prediction *)
(** [prediction n] is zeroed storage for a mix of [n] programs. *)

val predict_into : model -> Mppm_cache.Sdc.t array -> prediction -> unit  (* mppm: unit _ *)
(** [predict_into model sdcs out] overwrites [out] with the prediction for
    the co-scheduled programs' epoch SDCs.  All SDCs must share the same
    associativity and [out] must be sized for [Array.length sdcs]
    programs.  A single program, or an epoch with no accesses, yields
    zero extra misses.  {!Foa} allocates nothing. *)

val predict : model -> Mppm_cache.Sdc.t array -> prediction  (* mppm: unit _ -> _ -> prediction *)
(** [predict model sdcs] is {!predict_into} on fresh storage. *)

val model_name : model -> string
(** Short display name ("FOA", "SDC-competition", ...). *)

val of_string : string -> model
(** "foa" | "sdc" | "prob[:iterations]" | "part:<w1,w2,...>". *)

(* lint: allow S4 debugging printer kept as API surface *)
val pp : Format.formatter -> model -> unit
(** Prints {!model_name}. *)
