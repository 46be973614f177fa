(** Applies the token-layer rules to sources, files and whole trees, and
    filters findings through [(* lint: allow <rule> *)] /
    [(* lint: allow-file <rule> *)] suppression comments.  The AST layer
    ([Mppm_sema]) reuses {!normalize_rel}, {!collect_tree}, {!read_file}
    and {!suppress} so both layers agree on paths and suppression
    semantics. *)

val normalize_rel : string -> string
(** Canonicalize a root-relative path: strip leading ["./"] segments and
    use ['/'] separators, so diagnostics and editors see the same stable
    path whatever form the caller passed. *)

val suppress :
  allows:(string * int) list -> allow_files:string list -> Diag.t list ->
  Diag.t list
(** [suppress ~allows ~allow_files diags] drops every finding whose rule is
    allowed for the whole file, or allowed on the finding's line or the
    line above it. *)

val lint_source : rel:string -> string -> Diag.t list
(** [lint_source ~rel content] lints one [.ml]/[.mli] source given as a
    string.  [rel] is the root-relative path the rules use to decide
    applicability (scope, module name).  Suppressions are applied. *)

val lint_dune : rel:string -> string -> Diag.t list
(** [lint_dune ~rel content] lints one dune file given as a string. *)

val read_file : string -> string
(** Read a whole file as bytes. *)

val lint_file : root:string -> rel:string -> Diag.t list
(** Read and lint one file ([.ml], [.mli] or [dune]) under [root]. *)

val scanned_dirs : string list
(** The top-level directories a tree lint walks: [lib], [bin], [bench],
    [tools], [test], [examples]. *)

val collect_tree : root:string -> string list
(** Root-relative paths of every lintable file under {!scanned_dirs},
    sorted for deterministic reports (skipping [_build], [_profile_cache]
    and dot-directories). *)

val lint_tree : root:string -> Diag.t list
(** Walk {!collect_tree}, lint every [.ml]/[.mli]/[dune] file, check that
    every [lib/] module with an implementation has an interface, and return
    all findings sorted by file and line. *)

val errors : Diag.t list -> Diag.t list
(** The error-severity subset of a report. *)
