(** S2: seed-flow discipline for [Mppm_util.Rng] states.

    Statically proves the generator's stream-separation invariant (the
    data stream [next] and the fetch stream [next_fetch] never draw from
    the same [Rng.t] record field, closed over same-unit helpers) and
    flags [Rng.create] calls whose seed is a baked-in constant. *)

val check : Facts.t list -> Mppm_lint.Diag.t list
(** S2 findings (errors) over [lib/] implementation files, sorted in
    {!Mppm_lint.Diag.compare} order.  Suppression is applied by the
    caller ({!Sema.analyze}). *)
