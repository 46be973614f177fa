(** A shared off-chip memory channel: the bandwidth-contention substrate
    for the paper's Sec. 8 "modeling sources of contention other than cache
    sharing" extension.

    Every LLC miss occupies the channel for a fixed transfer time (one
    cache line at the channel's bandwidth).  Misses that arrive while the
    channel is busy queue behind it; the queueing delay adds to the miss
    latency.  One channel instance is shared by all cores of a simulated
    multi-core (and a private instance can be used in single-core runs so
    isolated profiles carry their own self-queueing). *)

type t
(** A channel: its occupancy parameter plus busy-horizon state. *)

val create : transfer_cycles:float -> t  (* mppm: unit transfer_cycles:cycles -> channel *)
(** [create ~transfer_cycles] is an idle channel; [transfer_cycles] is the
    occupancy per line transfer (e.g. 64B at 4 bytes/cycle = 16 cycles).
    Must be finite and positive, else [Invalid_argument]. *)

val request : t -> now:float -> float  (* mppm: unit now:cycles -> cycles *)
(** [request t ~now] enqueues a line transfer issued at time [now] (cycles)
    and returns the queueing delay the requester suffers before its
    transfer starts (0 when the channel is idle).  Out-of-order arrival
    times (from loosely synchronized per-core clocks) are tolerated: a
    request in the channel's past is treated as arriving at the channel's
    current horizon only for occupancy purposes. *)

val transfers : t -> int  (* mppm: unit accesses *)
(** Lines transferred so far. *)

val total_queueing : t -> float  (* mppm: unit cycles *)
(** Sum of all queueing delays handed out. *)

val utilization : t -> now:float -> float  (* mppm: unit now:cycles -> 1 *)
(** Fraction of time the channel has been busy up to [now]. *)

val reset : t -> unit
(** Returns the channel to its idle just-created state. *)
