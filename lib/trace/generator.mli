(** Turns a {!Benchmark.t} spec into a deterministic instruction/reference
    stream.

    Two generators created with the same seed and offset produce identical
    streams, which is what lets the single-core profiling runs and the
    detailed multi-core simulations observe the same program (paper: same
    1B-instruction SimPoint trace everywhere).

    The data stream is delivered as {!Op.t} blocks via {!next}; the
    instruction-fetch stream is delivered line by line via {!next_fetch}
    (the simulator issues one fetch per [instructions_per_fetch] retired
    instructions). *)

type t
(** A generator: the benchmark spec plus its RNG streams and cursors. *)

val instructions_per_fetch : int
(** Retired instructions covered by one fetched line (64B line / ~4B per
    x86-ish instruction = 16). *)

val create : ?offset:int -> seed:int -> Benchmark.t -> t
(** [create ~offset ~seed benchmark] validates the benchmark and builds a
    fresh generator.  [offset] (default 0) displaces the whole address
    space; the multi-core simulator gives each co-running program a
    distinct, page-randomized offset so independent programs never share
    lines yet still conflict in the shared cache's sets. *)

val benchmark : t -> Benchmark.t
(** The spec this generator was created from. *)

val retired : t -> int
(** Instructions retired through {!next} so far. *)

val next : t -> cap:int -> Op.t
(** [next t ~cap] produces the next block, retiring at most [cap]
    instructions ([cap >= 1]).  Blocks never span a phase boundary, so the
    caller can cut profile intervals exactly.  It is {!next_in_place}
    with the block read back into an {!Op.t}. *)

val next_in_place : t -> cap:int -> unit  (* mppm: unit _ -> cap:insns -> _ *)
(** [next_in_place t ~cap] produces the block {!next} would, allocating
    nothing: the block stays in [t], readable through {!op_instructions},
    {!op_is_memory}, {!op_addr} and {!op_kind} until the next call. *)

val op_instructions : t -> int  (* mppm: unit insns *)
(** Instructions retired by the last {!next_in_place} block, the memory
    instruction included; 0 before the first. *)

val op_is_memory : t -> bool
(** Whether the last {!next_in_place} block ends in a data reference. *)

val op_addr : t -> int  (* mppm: unit _ *)
(** Byte address of that reference; meaningful when {!op_is_memory}. *)

val op_kind : t -> Op.access_kind
(** Load or store of that reference; meaningful when {!op_is_memory}. *)

val next_fetch : t -> int
(** The next instruction-cache line (byte address) touched by the fetch
    stream: sequential within the code footprint with occasional jumps. *)

val current_phase : t -> Benchmark.phase
(** The phase the next instruction belongs to. *)

val address_space_bytes : t -> int
(** Bytes of address space spanned (code + all regions, page aligned),
    before the offset is applied. *)
