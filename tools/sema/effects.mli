(** Transitive effect summaries and the S1/S5 effect-containment rules.

    Direct per-function effects come from {!Facts}; this module closes
    them over the cross-module call graph to a fixpoint over an explicit
    join-semilattice of {!summary} values, and reports any [lib/]
    function that can transitively reach file/channel I/O outside the
    allowlisted profile-cache / trace-file / obs-sink modules (S1), or
    the [Domain]/[Mutex]/[Condition]/[Atomic] concurrency surface outside
    [lib/pool/] (S5).  The closed summaries also back the S6/S7/S8
    parallel-determinism rules in {!Purity}. *)

type summary = {
  e_io : bool;  (** reaches file/channel I/O *)
  e_conc : bool;  (** reaches the OCaml 5 concurrency surface *)
  e_rng : bool;  (** draws from [Mppm_util.Rng] *)
  e_mut_top : bool;  (** writes module-level mutable state *)
  e_mut_arg : bool;  (** writes caller-owned state it was handed *)
  e_raises : bool;  (** may raise *)
  e_locks : string list;  (** sorted distinct lock classes acquired *)
}
(** One point of the effect lattice.  [e_locks] is kept sorted and
    duplicate-free, so the derived [compare]/[equal] are structural. *)

val bottom : summary
(** The lattice bottom: no effects, no locks. *)

val merge : summary -> summary -> summary
(** Least upper bound: pointwise disjunction, lock-set union.
    Idempotent, commutative, associative (qcheck-tested). *)

val equal : summary -> summary -> bool
(** Structural equality of summaries. *)

val leq : summary -> summary -> bool
(** Lattice order: [leq a b] iff [merge a b = b]. *)

val in_purity_allowlist : string -> bool
(** Whether a unit may hold/mutate module state without tainting callers:
    the [lib/pool/] units, the obs registry (commutative counters under
    one lock) and the sanitizer's invariant-check registry
    (result-neutral by contract). *)

val lock_order : string list
(** The declared lock ordering for S8, outermost first:
    [["pool"; "registry"]] — the pool mutex is acquired before the
    registry mutex, never the other way around. *)

val lock_class_of_unit : string -> string option
(** The lock class a unit's mutex belongs to: ["pool"] for [lib/pool/]
    units, ["registry"] for the obs registry, [None] elsewhere. *)

val lock_rank : string -> int option
(** Position of a lock class in {!lock_order} (0 = outermost). *)

type table
(** The closed effect table: every node of the call graph with its
    transitive summary. *)

val build : Callgraph.t -> table
(** Start each node from its direct facts, seed module-state-argument
    writes, and close over the call graph to a fixpoint.  Propagation of
    the I/O effect is cut at the allowlisted profile-cache / trace-file /
    obs-sink units, of the concurrency effect at [lib/pool/], and of the
    module-state effect at {!in_purity_allowlist} units: calling them
    does not taint the caller.  A concurrency prim on a line covered by
    an S5 allow comment (or in a file with an S5 allow-file) never enters
    the lattice at all. *)

val find :
  table -> Facts.t -> string list -> (Callgraph.node * summary * string) option
(** [find t facts path] resolves a call path appearing in [facts] to the
    callee's node, its closed summary, and how its [e_mut_top] arose (a
    write site, a module-state argument, or the call that imported the
    taint).  Unqualified single-element paths resolve within the same
    unit. *)

val check : table -> Mppm_lint.Diag.t list
(** S1 and S5 findings (errors), sorted in {!Mppm_lint.Diag.compare}
    order.  Suppression is applied by the caller ({!Sema.analyze}). *)

val summaries : table -> (string * string * string) list
(** [(file, function, effects)] for every analyzed function, where
    [effects] is a comma-joined subset of [io], [conc], [rng], [mut-top],
    [mut-arg], [raises], [lock:<class>] after transitive propagation.
    Sorted; used by the driver's summary output. *)
