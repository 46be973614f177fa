(** A named counter set: the basic metric container of {!Mppm_obs}.

    Counters are float-valued so large event counts and fractional masses
    (e.g. scaled SDC accesses) share one representation.  Sets merge
    pointwise, which makes per-worker or per-phase counter sets
    aggregatable: merge is associative and commutative up to float
    addition (exact on integer-valued counts within 2^53). *)

type t
(** A mutable map from counter name to accumulated value. *)

val create : unit -> t
(** An empty counter set. *)

val add : t -> string -> float -> unit
(** [add t name by] accumulates [by] onto [name] (creating it at 0).
    Raises [Invalid_argument] on a non-finite delta. *)

val incr : t -> string -> unit
(** [incr t name] is [add t name 1.0]. *)

val value : t -> string -> float
(** Current value of [name]; 0 when never touched. *)

val to_alist : t -> (string * float) list
(** All counters sorted by name (deterministic report order). *)

val of_alist : (string * float) list -> t
(** Build a set from name/value pairs (duplicates accumulate). *)

val merge : t -> t -> t
(** [merge a b] is a fresh set holding the pointwise sum; inputs are not
    mutated. *)

val reset : t -> unit
(** Drop every counter. *)
