(** Per-interval stack-distance profiling of an access stream.

    Histograms the LRU depth of every access to the profiled cache into
    the current interval's {!Sdc.t}.  The cache itself is simulated by the
    caller, which reports each access's depth through {!record_depth}.
    The single-core profiling run cuts an interval every 20M instructions
    (scaled), producing the per-interval SDCs MPPM consumes. *)

type t
(** A profiler: the interval in progress plus the lifetime total. *)

val create : assoc:int -> t  (* mppm: unit assoc:ways -> profiler *)
(** [create ~assoc] profiles an LRU cache of associativity [assoc] (stack
    distances are defined against the LRU stack). *)

val record_depth : t -> int -> unit  (* mppm: unit _ -> ways -> _ *)
(** [record_depth t depth] histograms one access to the profiled cache.
    [depth] is as {!Cache.lookup} reports it: the 1-based hit depth, [0]
    for a miss. *)

val cut_interval : t -> Sdc.t  (* mppm: unit sdc *)
(** [cut_interval t] returns the SDC accumulated since the previous cut
    (or creation) and starts a fresh interval. *)

val current : t -> Sdc.t  (* mppm: unit sdc *)
(** The (live) SDC of the interval in progress.  The returned value aliases
    internal state; copy it if you need a snapshot. *)

val lifetime_total : t -> Sdc.t  (* mppm: unit sdc *)
(** Sum over all completed intervals plus the current one. *)
