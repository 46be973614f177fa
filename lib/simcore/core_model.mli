(** The out-of-order core timing abstraction shared by the single-core and
    multi-core simulators.

    The paper's CMP$im cores (Table 1: 4-wide, 8-stage, 128-entry ROB,
    perfect branch prediction) are modelled as a base CPI for the
    non-memory pipeline plus an exposed-stall model for the memory
    hierarchy: an access that hits level X exposes a level-dependent
    fraction of X's latency (the rest is hidden by out-of-order execution),
    and off-core accesses are further divided by the workload's
    memory-level parallelism.  Both simulators use exactly this model, so
    the "detailed" reference and MPPM's single-core inputs are mutually
    consistent — the same relationship CMP$im has to itself in the paper. *)

type params = {
  width : int;  (** pipeline width (descriptive; Table 1: 4) *)  (* mppm: unit insns/cycles *)
  rob_entries : int;  (** ROB size (descriptive; Table 1: 128) *)
  l2_exposure : float;  (* mppm: unit 1 *)
      (** fraction of an L2 hit's extra latency the core cannot hide *)
  llc_exposure : float;  (** same for LLC hits *)  (* mppm: unit 1 *)
  memory_exposure : float;  (** same for memory accesses (LLC misses) *)  (* mppm: unit 1 *)
  fetch_exposure : float;  (* mppm: unit 1 *)
      (** fraction of miss latency exposed on the fetch path (front-end
          stalls are harder to hide than data stalls) *)
}

val default : params  (* mppm: unit params *)
(** Calibrated defaults for the Table 1 core. *)

val data_stall :  (* mppm: unit mlp:1 -> latency:cycles -> cycles *)
  params -> mlp:float -> latency:int -> Mppm_cache.Hierarchy.hit_level -> float
(** [data_stall params ~mlp ~latency level] is the exposed stall (cycles)
    of a data access satisfied at [level] in [latency] cycles.  L1 hits
    stall nothing (their latency is folded into the base CPI); deeper hits
    expose [exposure * (latency - 1)]; LLC and memory stalls are divided
    by [mlp]. *)

val fetch_stall :  (* mppm: unit latency:cycles -> cycles *)
  params -> latency:int -> Mppm_cache.Hierarchy.hit_level -> float
(** Exposed stall of an instruction fetch. *)

(* mppm: unit mlp:1 -> cycles *)
val llc_miss_extra_stall : params -> config:Mppm_cache.Hierarchy.config -> mlp:float -> float
(** [llc_miss_extra_stall params ~config ~mlp] is the stall a data access
    suffers {e because} it missed the LLC: the difference between its
    memory stall and the stall it would have suffered as an LLC hit.  This
    is the per-event increment of the memory-CPI counter architecture
    (Eyerman et al.), and by construction equals the two-run
    (perfect-vs-real LLC) difference. *)

val fetch_llc_miss_extra_stall :  (* mppm: unit cycles *)
  params -> config:Mppm_cache.Hierarchy.config -> float
(** Same quantity for a fetch that missed the LLC. *)

(** The stalls above for one configuration, precomputed so the engine's
    per-access path does no float arithmetic beyond the division by the
    phase's mlp.  All fields are floats, so the record is stored flat and
    reading a field boxes nothing.  Fields named [_mlp] are numerators: a
    phase with memory-level parallelism [mlp] suffers [field /. mlp], and
    the quotient is bit-identical to the function it stands for. *)
type stall_costs = {
  data_l2 : float;  (** [data_stall] of an L2 hit (any [mlp]) *)  (* mppm: unit cycles *)
  data_llc_mlp : float;  (** [data_stall] of an LLC hit, times [mlp] *)  (* mppm: unit cycles *)
  data_memory_mlp : float;  (* mppm: unit cycles *)
      (** [data_stall] of an LLC miss, times [mlp] *)
  miss_memory_mlp : float;  (* mppm: unit cycles *)
  miss_llc_mlp : float;  (* mppm: unit cycles *)
      (** [llc_miss_extra_stall] is
          [(miss_memory_mlp /. mlp) -. (miss_llc_mlp /. mlp)] *)
  fetch_l2 : float;  (** [fetch_stall] of an L2 hit *)  (* mppm: unit cycles *)
  fetch_llc : float;  (** [fetch_stall] of an LLC hit *)  (* mppm: unit cycles *)
  fetch_memory : float;  (** [fetch_stall] of an LLC miss *)  (* mppm: unit cycles *)
  fetch_miss_extra : float;  (** [fetch_llc_miss_extra_stall] *)  (* mppm: unit cycles *)
}

val stall_costs : params -> config:Mppm_cache.Hierarchy.config -> stall_costs  (* mppm: unit _ -> config:_ -> costs *)
(** [stall_costs params ~config] derives every field from the functions
    above at the latencies {!Mppm_cache.Hierarchy.latency} gives. *)

val pp : Format.formatter -> params -> unit
(** Human-readable rendering of the core parameters. *)
