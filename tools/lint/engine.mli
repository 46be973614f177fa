(** Tree walking, path normalization and the suppression predicate shared
    by every rule: a finding is dropped by a [(* lint: allow <rule> *)]
    comment on its line or the line above, or by a
    [(* lint: allow-file <rule> *)] comment anywhere in the file.  The
    analysis itself lives in [Mppm_sema]. *)

val normalize_rel : string -> string
(** Canonicalize a root-relative path: strip leading ["./"] segments and
    use ['/'] separators, so diagnostics and editors see the same stable
    path whatever form the caller passed. *)

val allowed :
  allows:(string * int) list -> allow_files:string list -> string -> int ->
  bool
(** [allowed ~allows ~allow_files rule line] holds when [rule] is allowed
    for the whole file, or allowed on [line] or the line above it. *)

val read_file : string -> string
(** Read a whole file as bytes. *)

val scanned_dirs : string list
(** The top-level directories a tree lint walks: [lib], [bin], [bench],
    [tools], [test], [examples]. *)

val collect_tree : root:string -> string list
(** Root-relative paths of every lintable file under {!scanned_dirs},
    sorted for deterministic reports (skipping [_build], [_profile_cache]
    and dot-directories). *)

val errors : Diag.t list -> Diag.t list
(** The error-severity subset of a report. *)
