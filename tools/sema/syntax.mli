(** The syntactic rules D1 D2 F1 M1 E1 O1 as pattern matches over
    compiler-libs parse trees ({!Mppm_lint.Rules} documents each rule's
    scope and severity).  Findings are sorted and raw: the {!Sema}
    driver applies suppression comments. *)

val structure :
  Mppm_lint.Rules.ctx -> source:string -> Parsetree.structure ->
  Mppm_lint.Diag.t list
(** D1 D2 F1 E1 O1 over an implementation.  [source] is the parsed
    text: E1 quotes a literal message as written. *)

val signature :
  Mppm_lint.Rules.ctx -> Parsetree.signature -> Astparse.comment list ->
  Mppm_lint.Diag.t list
(** D1 D2 over an interface, and M1 over its top-level items and doc
    comments. *)
