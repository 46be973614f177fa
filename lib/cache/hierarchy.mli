(** The private portion of a core's cache hierarchy plus its (possibly
    shared) last-level cache, with the latency model of the paper's Table 1:
    L1 I/D 1 cycle, private L2 10 cycles, shared L3 per Table 2, memory 200
    cycles.

    One {!t} exists per core.  In single-core runs the LLC is owned; in the
    detailed multi-core simulator one LLC {!Cache.t} is created and every
    core's hierarchy is built around it with [~llc]. *)

type level = {
  geometry : Geometry.t;
  latency : int;  (* mppm: unit cycles *)
}
(** One cache level: geometry plus access latency in cycles. *)

type config = {
  l1i : level;
  l1d : level;
  l2 : level;
  llc : level;
  memory_latency : int;  (* mppm: unit cycles *)
}
(** Full hierarchy parameters. *)

type hit_level = L1 | L2 | Llc | Memory
(** Where an access was satisfied. *)

type access_kind = Fetch | Load | Store
(** Instruction fetch vs. data read vs. data write. *)

type t
(** One core's view of the hierarchy. *)

val create :
  ?llc:Cache.t -> ?llc_owner:int -> ?perfect_llc:bool -> config -> t
(** [create ?llc ?llc_owner ?perfect_llc config] builds the hierarchy.
    [llc], if given, is the shared LLC instance (its geometry must match
    [config.llc.geometry]); [llc_owner] (default 0) is the owner identity
    this core presents to a way-partitioned shared LLC.  [perfect_llc]
    (default [false]) makes every access that reaches the LLC hit — the
    paper's "perfect LLC" run used to isolate the memory CPI component. *)

val config : t -> config
(** The parameters this hierarchy was built from. *)

val llc : t -> Cache.t
(** The (possibly shared) last-level cache instance. *)

val access : t -> kind:access_kind -> addr:int -> int  (* mppm: unit _ -> kind:_ -> addr:_ -> _ *)
(** [access t ~kind ~addr] simulates the access through L1 (instruction or
    data side per [kind]), then L2, then LLC, then memory, allocating
    nothing.  The result is packed into an int: read it with
    {!packed_level} and {!packed_llc_depth}. *)

val packed_level : int -> hit_level
(** Where a packed access was satisfied. *)

val packed_llc_depth : int -> int  (* mppm: unit ways *)
(** The 1-based LLC stack depth of a packed access satisfied at [Llc] (1
    under [perfect_llc]), as {!Cache.lookup_as} reports it; 0 for every
    other level, so a [Memory] access reads as an LLC miss. *)

val latency : config -> kind:access_kind -> hit_level -> int  (* mppm: unit cycles *)
(** [latency config ~kind level] is the cycles an access of [kind]
    satisfied at [level] takes: the level's latency, plus the memory
    latency beyond the LLC for [Memory]. *)

val llc_accesses : t -> int  (* mppm: unit accesses *)
(** LLC lookups issued by this core's hierarchy. *)

val llc_misses : t -> int  (* mppm: unit accesses *)
(** LLC misses suffered by this core's hierarchy (0 under [perfect_llc]). *)

val counters : t -> (string * float) list
(** Per-level aggregate counters as observability pairs:
    [l1i.*]/[l1d.*]/[l2.*] from the private caches' statistics, plus this
    core's own [llc.accesses]/[llc.hits]/[llc.misses] (correct even when
    the LLC instance is shared).  Ready for
    [Mppm_obs.Registry.add_all]. *)

val pp_config : Format.formatter -> config -> unit
(** Human-readable rendering of a hierarchy configuration. *)
