(** Dimensional analysis over the per-file unit skeletons (U1-U3).

    Units originate from [(* mppm: unit ... *)] annotations on [.mli]
    items and record fields, plus a small naming-convention fallback
    ([cpi], [ipc], [mpki], [*_cycles], [*_insns], ...).  Inference
    composes them through arithmetic via a unit semilattice — additive
    ops, comparisons and [min]/[max] require equal dimensions, [*]/[/]
    compose and cancel them ([cycles/insns] is CPI) — and propagates
    across modules over the shared {!Callgraph}: five fixed rounds
    re-infer every unannotated function's result unit from its
    {!Facts.uexpr} body, then one more pass over the final results
    emits the findings.  (Unlike {!Hotpath}'s single breadth-first
    search, this is a bounded chaotic iteration, not a fixpoint.)

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

type fn_class =
  | Annotated  (** carries a [(* mppm: unit ... *)] annotation *)
  | Inferred  (** no annotation, but inference reached a usable unit *)
  | Opaque_unit  (** inference bottomed out at {!Opaque} *)
(** Coverage classification of one function or exported value. *)

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

val analyze : Callgraph.t -> Facts.t list -> analysis
(** Run annotation seeding, the cross-module inference rounds and the
    finding pass. *)
