(** The linter's driver: every rule over one compiler-libs parse per
    file.

    Per-file {!Facts} extraction parses each file once and yields both
    its {!Syntax} findings (D1 D2 F1 M1 E1 O1) and the facts that feed
    the cross-module checks: S1/S5 effect containment ({!Effects}), S2
    seed-flow ({!Seedflow}), S3 order-sensitive float accumulation over
    unordered [Hashtbl] iteration, S4 dead [.mli] exports, the S6/S7/S8
    parallel-determinism rules ({!Purity}: pool-task purity, no
    module-level mutable state in [lib/], declared lock order), the
    P1-P4 hot-path perf rules ({!Hotpath}: interprocedural hotness from
    [(* mppm: hot *)] roots) and the U1-U3 unit rules ({!Units}).  Every
    finding goes through {!Mppm_lint.Engine.allowed}:
    [(* lint: allow S1 *)] on (or above) the line, or
    [(* lint: allow-file S1 *)] anywhere in the file. *)

type input = { rel : string;  (** root-relative path *)
               content : string  (** full source text *) }
(** One source file handed to {!analyze}. *)

type report = {
  diags : Mppm_lint.Diag.t list;  (** suppression-filtered, sorted *)
  parses : int;  (** files parsed this run *)
  fallbacks : int;  (** files the compiler-libs parser rejected; they
      yield no findings *)
  summaries : (string * string * string) list;
      (** [(file, function, effects)] transitive effect summaries *)
  hot : Hotpath.entry list;
      (** ranked hot-function inventory (the [--report hot] payload) *)
  units : Units.analysis;
      (** unit-inference outcome: findings, the coverage map
          ([--report units]) and per-function classes *)
}
(** The outcome of one analysis run. *)

val analyze : dunes:(string * string) list -> input list -> report
(** [analyze ~dunes inputs] runs every per-source rule over the given
    sources.  [dunes] are the tree's dune files ([(rel, content)]), used
    to map wrapped-library alias modules to directories. *)

val analyze_tree : root:string -> unit -> report
(** Collect the tree with {!Mppm_lint.Engine.collect_tree}, read every
    file and {!analyze} it, then add the tree-level checks no allow
    comment reaches: D1 on [lib/] dune files linking [unix], and M1 on
    [lib/] implementations without an interface. *)
