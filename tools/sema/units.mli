(** Dimensional analysis over the per-file unit skeletons (U1-U3).

    Units originate from [(* mppm: unit ... *)] annotations on [.mli]
    items and record fields, plus a small naming-convention fallback
    ([cpi], [ipc], [mpki], [*_cycles], [*_insns], ...).  Inference
    composes them through arithmetic via a unit semilattice — additive
    ops, comparisons and [min]/[max] require equal dimensions, [*]/[/]
    compose and cancel them ([cycles/insns] is CPI) — and propagates
    transitively across modules by a fixed-round chaotic iteration over
    the {!Facts.uexpr} bodies, exactly like {!Hotpath} propagates
    hotness.

    Three rules, errors in [lib/]: {b U1} mixed-unit arithmetic or
    comparison; {b U2} cumulative/per-interval confusion — a
    [cumulative] flavor tag that only plain subtraction of two
    cumulative values discharges back to per-interval; {b U3} inverted
    or unit-unsound ratio construction ([cycles/insns] vs
    [insns/cycles], an interval index used as a count). *)

type t =
  | Any  (** bottom: literals and unconstrained values; unifies freely *)
  | Known of {
      dims : (string * int) list;
          (** canonical dimensions, sorted by name, no zero exponents *)
      cum : bool;  (** the cumulative (prefix-sum) flavor tag *)
    }
  | Opaque
      (** top: shapes the algebra cannot reason about; poisons inference
          and never produces a finding *)
(** A point of the unit semilattice.  Exposed concretely for the qcheck
    law tests. *)

val dimensionless : t
(** [Known { dims = []; cum = false }] — pure numbers, ratios. *)

val known : ?cum:bool -> (string * int) list -> t
(** Build a normalized [Known] (sorts, folds synonyms, drops zeros). *)

val equal : t -> t -> bool
(** Structural equality after normalization (flavor-sensitive). *)

val join : t -> t -> t
(** Least upper bound: [Any] is the identity, [Opaque] absorbs, and two
    [Known]s that disagree (dimensions or flavor) join to [Opaque]. *)

val mul : t -> t -> t
(** Dimension product; [Any] acts as dimensionless, [Opaque] absorbs.
    The result is cumulative when either operand is. *)

val div : t -> t -> t
(** Dimension quotient ([mul] with the divisor inverted); the result
    drops the cumulative flavor — a ratio of totals is an average, not a
    prefix sum. *)

val inverse : t -> t
(** Negate every exponent ([inverse (div a b) = div b a]). *)

val parse : string -> t
(** Parse one unit expression: ["cycles"], ["cycles/insns"],
    ["accesses^2"], ["cumulative accesses"], ["ratio<cycles,insns>"],
    ["1"]/["_"]/["dimensionless"], ["opaque"].  Unknown words become
    fresh dimensions, so structural units like ["window"] are valid. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string u)] round-trips. *)

type usig = {
  sig_params : (string option * t) list;
      (** parameter units in declaration order, with optional labels
          (["~seed:"] annotates as ["seed:dimensionless"]) *)
  sig_result : t;
}
(** A parsed annotation: either a plain value unit ([sig_params = []])
    or an arrow ["cycles -> insns -> cycles/insns"]. *)

val parse_sig : string -> usig
(** Split an annotation on ["->"]; the last component is the result. *)

val fallback_of_name : string -> t option
(** The naming-convention fallback: matches the whole lowercased name,
    then its last ['_']-separated segment, then its first, against the
    conventional vocabulary ([cpi], [ipc], [mpki], [cycles], [insns],
    [misses]/[hits]/[accesses], [slowdown]/[stp]/[antt]/..., plural
    [intervals]/[ways]/[bytes]/[programs]); a ["cum_"]/["cumulative_"]
    prefix sets the cumulative flavor.  [None] for everything else —
    deliberately including [penalty], [latency] and singular
    [interval]. *)

type fn_class =
  | Annotated  (** carries a [(* mppm: unit ... *)] annotation *)
  | Inferred  (** no annotation, but inference reached a usable unit *)
  | Opaque_unit  (** inference bottomed out at {!Opaque} *)
(** Coverage classification of one function or exported value. *)

val class_name : fn_class -> string
(** ["annotated"], ["inferred"] or ["opaque"]. *)

type coverage = {
  cov_key : string;  (** compilation-unit key, e.g. ["lib/core/model"] *)
  cov_annotated : int;
  cov_inferred : int;
  cov_opaque : int;
  cov_opaque_names : string list;
      (** the exported values classified {!Opaque_unit}, for the
          [--report units] drill-down *)
}
(** Per-module annotation coverage over the public [.mli] values. *)

type analysis = {
  u_diags : Mppm_lint.Diag.t list;
      (** raw U1/U2/U3 findings (suppression is applied by {!Sema}) *)
  u_coverage : coverage list;  (** one row per [lib/] module, sorted *)
  u_fn_class : (string * fn_class) list;
      (** every scanned function keyed [unit_key ^ ":" ^ fn_name] — the
          same keys as {!Hotpath.entry.h_key}, so the driver can assert
          no hot-path function has an opaque unit *)
}
(** The full outcome of the unit pass. *)

val analyze : Resolve.env -> Facts.t list -> analysis
(** Run annotation seeding, the cross-module inference fixpoint and the
    finding pass. *)

val check : Resolve.env -> Facts.t list -> Mppm_lint.Diag.t list
(** Just the findings of {!analyze}. *)
