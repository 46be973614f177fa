(** Interprocedural hotness propagation and the hot-path perf rules
    (P1-P4).

    [(* mppm: hot *)] marks a toplevel binding as a hotness root.
    Hotness propagates transitively over the cross-module
    value-reference graph — from a root with a [while]/[for] loop along
    its loop-region references, otherwise along the whole
    cold-guard-stripped body — and every {!Facts.perf_site} on a
    reachable function becomes a finding labeled with the shortest call
    chain back to a root. *)

type entry = {
  h_key : string;  (** node key: [unit_key ^ ":" ^ fn_name] *)
  h_rel : string;  (** root-relative source path *)
  h_label : string;  (** display label, e.g. ["Sdc.add_into"] *)
  h_line : int;  (** line of the binding *)
  h_root : bool;  (** carries the [(* mppm: hot *)] annotation itself *)
  h_chain : string list;
      (** shortest call chain of labels, root first, this fn last *)
  h_sites : (Facts.perf_site * bool) list;
      (** perf sites in the hot region, each paired with whether an
          allow comment already suppresses it *)
}
(** One hot function in the ranked inventory. *)

val closure : roots:string list -> edges:(string * string list) list -> string list
(** [closure ~roots ~edges] is the sorted set of nodes reachable from
    [roots] over [edges]: the key set of the same breadth-first search
    {!analyze} runs.  Exposed for the propagation law tests
    (idempotence, monotonicity, root-subset). *)

val analyze : Callgraph.t -> entry list
(** The full hot-function inventory, ranked by open (unsuppressed) site
    count descending, then shortest chain, then key — the order of the
    flat-rewrite work-list surfaced by [lint --report hot]. *)

val check : entry list -> Mppm_lint.Diag.t list
(** P1-P4 findings for every perf site of an {!analyze} inventory
    (errors in [lib/], warnings elsewhere).  Raw: allow-comment
    suppression is applied by the {!Sema} driver. *)
