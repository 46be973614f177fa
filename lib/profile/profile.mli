(** Single-core simulation profiles: the one-time-cost input to MPPM
    (paper Sec. 2.1).

    A profile holds, for every fixed-length instruction interval of an
    isolated single-core run: the cycles spent (hence single-core CPI), the
    cycles lost to LLC misses (hence memory CPI), the LLC access and miss
    counts, and the LLC stack-distance counters.  MPPM aggregates these
    over arbitrary instruction windows — including windows that wrap around
    the end of the trace, because the model re-iterates programs over their
    trace (Sec. 2.2). *)

type interval = {
  instructions : int;  (* mppm: unit insns *)
  cycles : float;  (* mppm: unit cycles *)
  memory_stall_cycles : float;  (* mppm: unit cycles *)
      (** cycles this interval would have saved with a perfect LLC *)
  llc_accesses : float;  (* mppm: unit accesses *)
  llc_misses : float;  (* mppm: unit accesses *)
  sdc : Mppm_cache.Sdc.t;  (** LLC stack-distance counters *)
}

(** A profile is built only by {!make}, which derives the last three
    fields from the intervals, so they cannot go stale. *)
type t = private {
  benchmark : string;
  interval_instructions : int;  (** nominal interval length *)  (* mppm: unit insns *)
  llc_assoc : int;  (** associativity the SDCs were collected at *)
  intervals : interval array;
  starts : int array;  (* mppm: unit insns *)
      (** [starts.(i)] is the instructions before interval [i];
          [starts.(n)] is the trace length *)
  whole_cpi : float;  (** {!cpi} *)  (* mppm: unit cycles/insns *)
  whole_miss_penalty : float;  (* mppm: unit cycles/accesses *)
      (** whole-trace memory-stall cycles per LLC miss, [0.] without
          misses: the model's penalty for a window with no misses *)
}

val make :  (* mppm: unit profile *)
  benchmark:string ->
  interval_instructions:int ->
  llc_assoc:int ->
  interval array ->
  t
(** Validates the intervals and builds the profile.  Raises
    [Invalid_argument] on a non-positive instruction count, cycles that
    are not positive and finite, a negative or non-finite stall, access,
    miss or SDC value, or an SDC of another associativity. *)

val total_instructions : t -> int  (* mppm: unit insns *)
(** Sum of interval instruction counts (the trace length); O(1). *)

val total_cycles : t -> float  (* mppm: unit cycles *)
(** Sum of interval cycle counts (the isolated run's duration). *)

val cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace single-core CPI; O(1). *)

val memory_cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace memory CPI component. *)

val memory_cpi_fraction : t -> float  (* mppm: unit 1 *)
(** [memory_cpi / cpi]: the memory-boundedness used to classify benchmarks
    into MEM/COMP categories (paper Sec. 5). *)

val llc_mpki : t -> float  (* mppm: unit accesses/insns *)
(** LLC misses per kilo-instruction over the whole trace. *)

(** Aggregate statistics over an instruction window [start, start+count),
    positions taken modulo the trace length (programs restart). *)
type window = {
  w_instructions : float;  (* mppm: unit insns *)
  w_cycles : float;  (* mppm: unit cycles *)
  w_memory_stall_cycles : float;  (* mppm: unit cycles *)
  w_llc_accesses : float;  (* mppm: unit accesses *)
  w_llc_misses : float;  (* mppm: unit accesses *)
  w_sdc : Mppm_cache.Sdc.t;
}

(* mppm: unit start:insns -> count:insns -> window *)
val window : t -> start:float -> count:float -> window
(** [window t ~start ~count] sums interval statistics over the window,
    scaling the partial intervals at each end linearly (accesses are
    assumed uniform within one interval).  [count] must be positive and
    [start] non-negative, both finite.  It allocates a fresh result; the
    model's per-epoch path uses {!window_into}. *)

(** The sums of one window, in a flat float record: reading or writing a
    field boxes nothing. *)
type sums = private {
  mutable s_instructions : float;  (* mppm: unit insns *)
  mutable s_cycles : float;  (* mppm: unit cycles *)
  mutable s_memory_stall_cycles : float;  (* mppm: unit cycles *)
  mutable s_llc_accesses : float;  (* mppm: unit accesses *)
  mutable s_llc_misses : float;  (* mppm: unit accesses *)
}

(** A caller-owned window accumulator: the sums, the window's SDC, and
    the walk's cursor cells.  One per program, reused every epoch. *)
type scratch = private {
  sums : sums;
  window_sdc : Mppm_cache.Sdc.t;
  cursor : float array;
}

val scratch : assoc:int -> scratch  (* mppm: unit assoc:ways -> _ *)
(** A zeroed accumulator for profiles of associativity [assoc]. *)

(* mppm: unit _ -> _ -> starts:insns -> counts:insns -> _ -> _ *)
val window_into :
  t -> scratch -> starts:float array -> counts:float array -> int -> unit
(** [window_into t sc ~starts ~counts i] overwrites [sc] with the window
    [{!window} t ~start:starts.(i) ~count:counts.(i)]: the same sums and
    SDC, bit for bit, with nothing allocated.  The query is read from
    float-array cells because a float argument would be boxed. *)

(* mppm: unit _ -> _ -> starts:insns -> counts:insns -> _ -> _ *)
val window_cycles_into :
  t -> scratch -> starts:float array -> counts:float array -> int -> unit
(** Like {!window_into}, but fills only [s_instructions] and [s_cycles]
    (the window's CPI) and leaves the other sums and the SDC stale. *)

val window_cpi : window -> float  (* mppm: unit cycles/insns *)
(** [w_cycles / w_instructions]. *)

(* lint: allow S4 per-window readout kept for the two-run validation workflow *)
val window_memory_cpi : window -> float  (* mppm: unit cycles/insns *)
(** [w_memory_stall_cycles / w_instructions]. *)

(* mppm: unit assoc:ways -> profile *)
val reduce_associativity : t -> assoc:int -> t
(** [reduce_associativity t ~assoc] derives the profile for an LLC of lower
    associativity (same set count): SDCs fold per
    {!Mppm_cache.Sdc.reduce_associativity}; the timing fields are kept —
    they describe the profiled hierarchy and remain the model's base-line
    CPI.  Miss counts are re-derived from the folded SDC. *)

val format_version : string
(** The on-disk format identifier written by {!save} and required by
    {!load}.  Include it in any persistent cache key so a format change
    invalidates old entries instead of loading them. *)

val save : t -> string -> unit  (* mppm: unit _ *)
(** [save t path] writes the profile as a line-oriented text file.
    Floats are rendered shortest-round-trip, so [load (save t)] is
    bit-for-bit identical to [t].  The write is atomic: bytes go to
    [path ^ ".tmp"] and are renamed into place, so a concurrent reader or
    an interrupted run never sees a truncated file. *)

val load : string -> t  (* mppm: unit profile *)
(** [load path] reads a profile written by {!save}.  Raises [Failure]
    ["Profile.load: <path>:<line>: ..."] on malformed input — including
    any number that is not a positive integer count or a finite,
    non-negative float — or an unsupported format version. *)

val pp_summary : Format.formatter -> t -> unit  (* mppm: unit _ *)
(** One-line whole-trace summary: CPI, memory CPI, MPKI, intervals. *)
