(* Top-level driver of the linter.

   Per-file extraction parses each file once and yields its syntactic
   findings (D1 D2 F1 M1 E1 O1, Syntax) and the facts that feed the
   cross-checks: S1/S5 effect containment (Effects), S2 seed-flow
   (Seedflow), S3 order-sensitive float accumulation and S4 dead exports
   (here), the S6/S7/S8 parallel-determinism rules (Purity) over the
   closed effect table, the P rules (Hotpath) and the U rules (Units).
   The cross-module passes share one Callgraph, built here once, so each
   referenced path is resolved once per run.  Every finding then goes
   through one suppression predicate, Engine.allowed. *)

module Diag = Mppm_lint.Diag
module Engine = Mppm_lint.Engine
module Rules = Mppm_lint.Rules

type input = { rel : string; content : string }

type report = {
  diags : Diag.t list;
  parses : int;
  fallbacks : int;
  summaries : (string * string * string) list;
  hot : Hotpath.entry list;
  units : Units.analysis;
}

(* S3: float accumulation over unordered Hashtbl iteration.  Iteration
   order depends on the hash layout, so a float sum folded over it is not
   reproducible across table histories — an error in lib/, a warning in
   executable and test code. *)
let s3 facts_list =
  List.concat_map
    (fun (f : Facts.t) ->
      List.map
        (fun (fa : Facts.float_accum) ->
          {
            Diag.file = f.Facts.rel;
            line = fa.Facts.fa_line;
            rule = "S3";
            severity =
              (if Rules.in_lib f.Facts.rel then Diag.Error else Diag.Warning);
            message =
              Printf.sprintf
                "float accumulation over unordered %s; iteration order is \
                 not deterministic — accumulate over a sorted projection \
                 instead"
                fa.Facts.fa_context;
          })
        f.Facts.float_accums)
    facts_list

(* S4: lib/ .mli exports referenced by no other compilation unit.  Uses
   are collected from every scanned file's alias-expanded value paths;
   unqualified names in a file that [open]s a unit count as potential
   uses of that unit (an over-approximation, so S4 under-reports rather
   than false-positives). *)
let s4 graph facts_list =
  let used : (string, unit) Hashtbl.t = Hashtbl.create ~random:false 1024 in
  let other_unit self k =
    match k with
    | Some k when Callgraph.unit_of_key k <> self -> Some k
    | _ -> None
  in
  List.iter
    (fun (f : Facts.t) ->
      if not f.Facts.parse_failed then begin
        let self = Facts.unit_key_of_rel f.Facts.rel in
        let opened_units =
          List.filter_map
            (fun open_path ->
              Option.map Callgraph.unit_of_key
                (other_unit self
                   (Callgraph.key_of graph f (open_path @ [ "_" ]))))
            f.Facts.opens
        in
        List.iter
          (fun path ->
            match path with
            | [ name ] ->
                List.iter
                  (fun u -> Hashtbl.replace used (Callgraph.key u name) ())
                  opened_units
            | _ ->
                Option.iter
                  (fun k -> Hashtbl.replace used k ())
                  (other_unit self (Callgraph.key_of graph f path)))
          f.Facts.refs
      end)
    facts_list;
  List.concat_map
    (fun (f : Facts.t) ->
      if
        f.Facts.is_mli && Rules.in_lib f.Facts.rel && not f.Facts.parse_failed
      then
        let self = Facts.unit_key_of_rel f.Facts.rel in
        List.filter_map
          (fun (name, line) ->
            if Hashtbl.mem used (Callgraph.key self name) then None
            else
              Some
                {
                  Diag.file = f.Facts.rel;
                  line;
                  rule = "S4";
                  severity = Diag.Warning;
                  message =
                    Printf.sprintf
                      "val %s is exported but referenced by no other \
                       compilation unit; drop it from the .mli or mark the \
                       intent with an allow comment"
                      name;
                })
          f.Facts.mli_vals
      else [])
    facts_list

let analyze ~dunes inputs =
  let facts_list =
    List.map (fun { rel; content } -> Facts.extract ~rel content) inputs
  in
  let graph = Callgraph.build ~dunes facts_list in
  let table = Effects.build graph in
  let units = Units.analyze graph facts_list in
  let hot = Hotpath.analyze graph in
  let raw =
    Effects.check table
    @ Seedflow.check facts_list
    @ Purity.check table facts_list
    @ Hotpath.check hot
    @ units.Units.u_diags
    @ s3 facts_list
    @ s4 graph facts_list
    @ List.concat_map (fun (f : Facts.t) -> f.Facts.syntax) facts_list
  in
  let diags =
    List.filter
      (fun d ->
        match
          List.find_opt
            (fun (f : Facts.t) -> f.Facts.rel = d.Diag.file)
            facts_list
        with
        | Some f ->
            not
              (Engine.allowed ~allows:f.Facts.allows
                 ~allow_files:f.Facts.allow_files d.Diag.rule d.Diag.line)
        | None -> true)
      raw
    |> List.sort Diag.compare
  in
  {
    diags;
    parses = List.length inputs;
    fallbacks =
      List.length
        (List.filter (fun (f : Facts.t) -> f.Facts.parse_failed) facts_list);
    summaries = Effects.summaries table;
    hot;
    units;
  }

let analyze_tree ~root () =
  let files = Engine.collect_tree ~root in
  let dunes, sources =
    List.partition (fun rel -> Filename.basename rel = "dune") files
  in
  let read rel = Engine.read_file (Filename.concat root rel) in
  let dunes = List.map (fun rel -> (rel, read rel)) dunes in
  let inputs = List.map (fun rel -> { rel; content = read rel }) sources in
  let report = analyze ~dunes inputs in
  (* The tree-level checks, which no allow comment reaches. *)
  let tree =
    Rules.missing_mli sources
    @ List.concat_map (fun (rel, text) -> Rules.check_dune ~rel text) dunes
  in
  { report with diags = List.sort Diag.compare (tree @ report.diags) }
