(** The AST analysis layer: semantic rules S1-S8 over compiler-libs
    parse trees.

    Per-file {!Facts} extraction feeds the cross-module checks: S1/S5 effect containment
    ({!Effects}), S2 seed-flow ({!Seedflow}), S3 order-sensitive float
    accumulation over unordered [Hashtbl] iteration, S4 dead [.mli]
    exports, and the S6/S7/S8 parallel-determinism rules ({!Purity}:
    pool-task purity, no module-level mutable state in [lib/], declared
    lock order), and the P1-P4 hot-path perf rules ({!Hotpath}:
    interprocedural hotness from [(* mppm: hot *)] roots).  Findings
    share the token layer's suppression comments:
    [(* lint: allow S1 *)] on (or above) the line, or
    [(* lint: allow-file S1 *)] anywhere in the file. *)

type input = { rel : string;  (** root-relative path *)
               content : string  (** full source text *) }
(** One source file handed to {!analyze}. *)

type report = {
  diags : Mppm_lint.Diag.t list;  (** suppression-filtered, sorted *)
  parses : int;  (** files parsed this run *)
  fallbacks : int;  (** files where the compiler-libs parse failed and
      only lexer-derived facts are available *)
  summaries : (string * string * string) list;
      (** [(file, function, effects)] transitive effect summaries *)
  hot : Hotpath.entry list;
      (** ranked hot-function inventory (the [--report hot] payload) *)
  units : Units.analysis;
      (** unit-inference outcome: coverage map ([--report units]),
          per-function classes and the [--fix] annotation suggestions *)
}
(** The outcome of one analysis run. *)

val analyze : dunes:(string * string) list -> input list -> report
(** [analyze ~dunes inputs] runs the full AST layer over the given
    sources.  [dunes] are the tree's dune files ([(rel, content)]), used
    to map wrapped-library alias modules to directories. *)

val analyze_tree : root:string -> unit -> report
(** Convenience wrapper: collect the tree with
    {!Mppm_lint.Engine.collect_tree}, read every file and {!analyze}. *)
