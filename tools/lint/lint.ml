(* mppm-lint driver: run both analysis layers over the tree, print the
   merged findings, exit 1 on errors.

   Layers: the token rules (D1 D2 F1 M1 E1 O1, Mppm_lint) and the AST
   rules (S1-S8, the hot-path perf rules P1-P4 and the unit rules U1-U3,
   Mppm_sema).  Both share root-relative paths and the
   [(* lint: allow ... *)] suppression comments.

   Usage: lint.exe [--root DIR] [--format text|json] [--rules R1,R2]
                   [--verbose] [--report hot|units] *)

module Diag = Mppm_lint.Diag
module Engine = Mppm_lint.Engine
module Rules = Mppm_lint.Rules

type format = Text | Json

let usage =
  "lint.exe [--root DIR] [--format text|json] [--rules R1,R2] [--verbose] \
   [--report hot|units]"

(* --report hot: the ranked hot-path inventory.  Findings stay with the
   normal lint run; this mode is the work-list view — every function the
   hotness propagation reached, its shortest chain back to a
   (* mppm: hot *) root, and its P1-P4 sites (open or allow-suppressed). *)
let report_hot (report : Mppm_sema.Sema.report) =
  let hot = report.Mppm_sema.Sema.hot in
  let roots = List.filter (fun e -> e.Mppm_sema.Hotpath.h_root) hot in
  let sites = List.concat_map (fun e -> e.Mppm_sema.Hotpath.h_sites) hot in
  let open_sites = List.filter (fun (_, allowed) -> not allowed) sites in
  Printf.printf
    "hot-path inventory: %d hot function%s (%d root%s), %d site%s (%d \
     open, %d allowed)\n"
    (List.length hot)
    (if List.length hot = 1 then "" else "s")
    (List.length roots)
    (if List.length roots = 1 then "" else "s")
    (List.length sites)
    (if List.length sites = 1 then "" else "s")
    (List.length open_sites)
    (List.length sites - List.length open_sites);
  List.iter
    (fun e ->
      if e.Mppm_sema.Hotpath.h_sites <> [] then begin
        Printf.printf "\n%s (%s:%d)\n" e.Mppm_sema.Hotpath.h_label
          e.Mppm_sema.Hotpath.h_rel e.Mppm_sema.Hotpath.h_line;
        Printf.printf "  chain: %s\n"
          (String.concat " -> " e.Mppm_sema.Hotpath.h_chain);
        List.iter
          (fun ((s : Mppm_sema.Facts.perf_site), allowed) ->
            Printf.printf "  %s:%d  %s  %s%s\n" e.Mppm_sema.Hotpath.h_rel
              s.Mppm_sema.Facts.ps_line s.Mppm_sema.Facts.ps_rule
              s.Mppm_sema.Facts.ps_what
              (if allowed then "  [allowed]" else ""))
          e.Mppm_sema.Hotpath.h_sites
      end)
    hot;
  let clean =
    List.filter (fun e -> e.Mppm_sema.Hotpath.h_sites = []) hot
  in
  if clean <> [] then
    Printf.printf "\n%d hot function%s with no perf sites: %s\n"
      (List.length clean)
      (if List.length clean = 1 then "" else "s")
      (String.concat ", "
         (List.map (fun e -> e.Mppm_sema.Hotpath.h_label) clean))

(* --report units: the annotation coverage map.  One row per lib/
   module — public .mli values that are annotated, inferred or opaque —
   plus the hot-path opacity check: every function on a
   (* mppm: hot *) path must carry or infer a unit, so the per-quantum
   math stays inside the checked algebra.  Exit 1 when a lib/ hot-path
   function has an opaque unit. *)
let report_units (report : Mppm_sema.Sema.report) =
  let module U = Mppm_sema.Units in
  let cov = report.Mppm_sema.Sema.units.U.u_coverage in
  let tot f = List.fold_left (fun a c -> a + f c) 0 cov in
  let ann = tot (fun c -> c.U.cov_annotated)
  and inf = tot (fun c -> c.U.cov_inferred)
  and opq = tot (fun c -> c.U.cov_opaque) in
  let total = ann + inf + opq in
  let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b in
  Printf.printf
    "unit coverage: %d public values across %d lib/ modules — %d annotated, \
     %d inferred, %d opaque (%.1f%% covered)\n\n"
    total (List.length cov) ann inf opq
    (pct (ann + inf) total);
  Printf.printf "  %-34s %9s %8s %6s\n" "module" "annotated" "inferred"
    "opaque";
  List.iter
    (fun (c : U.coverage) ->
      Printf.printf "  %-34s %9d %8d %6d\n" c.U.cov_key c.U.cov_annotated
        c.U.cov_inferred c.U.cov_opaque)
    cov;
  let opaque_rows =
    List.filter (fun (c : U.coverage) -> c.U.cov_opaque_names <> []) cov
  in
  if opaque_rows <> [] then begin
    Printf.printf "\nopaque values:\n";
    List.iter
      (fun (c : U.coverage) ->
        Printf.printf "  %s: %s\n" c.U.cov_key
          (String.concat ", " c.U.cov_opaque_names))
      opaque_rows
  end;
  let class_of = Hashtbl.create 512 in
  List.iter
    (fun (k, c) -> Hashtbl.replace class_of k c)
    report.Mppm_sema.Sema.units.U.u_fn_class;
  let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/" in
  let hot_lib =
    List.filter
      (fun (e : Mppm_sema.Hotpath.entry) -> in_lib e.Mppm_sema.Hotpath.h_rel)
      report.Mppm_sema.Sema.hot
  in
  let opaque_hot =
    List.filter
      (fun (e : Mppm_sema.Hotpath.entry) ->
        Hashtbl.find_opt class_of e.Mppm_sema.Hotpath.h_key
        = Some U.Opaque_unit)
      hot_lib
  in
  if opaque_hot = [] then
    Printf.printf
      "\nhot-path units: %d hot lib/ functions, none with an opaque unit\n"
      (List.length hot_lib)
  else begin
    Printf.printf "\nhot-path functions with an opaque unit:\n";
    List.iter
      (fun (e : Mppm_sema.Hotpath.entry) ->
        Printf.printf "  %s (%s:%d)\n" e.Mppm_sema.Hotpath.h_label
          e.Mppm_sema.Hotpath.h_rel e.Mppm_sema.Hotpath.h_line)
      opaque_hot
  end;
  opaque_hot = []

let () =
  let root = ref "." in
  let format = ref Text in
  let selected = ref [] in
  let verbose = ref false in
  let report_mode = ref "" in
  let add_rule r =
    if not (List.mem r Rules.all_rule_ids) then begin
      Printf.eprintf "lint: unknown rule %s (known: %s)\n" r
        (String.concat " " (List.sort compare Rules.all_rule_ids));
      exit 2
    end;
    if not (List.mem r !selected) then selected := r :: !selected
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  repository root to lint (default .)");
      ( "--format",
        Arg.Symbol
          ([ "text"; "json" ], fun s -> format := if s = "json" then Json else Text),
        "  output format (default text)" );
      ( "--rules",
        Arg.String
          (fun s ->
            List.iter
              (fun r ->
                let r = String.trim r in
                if r <> "" then add_rule r)
              (String.split_on_char ',' s)),
        "R1,R2  restrict to a comma-separated set of rule ids" );
      ( "--verbose",
        Arg.Set verbose,
        "  print per-layer statistics (sema parses / fallbacks)"
      );
      ( "--report",
        Arg.String
          (fun s ->
            if s <> "hot" && s <> "units" then begin
              Printf.eprintf "lint: unknown report %s (known: hot units)\n" s;
              exit 2
            end;
            report_mode := s),
        "hot|units  print the ranked hot-path inventory or the unit \
         annotation coverage map instead of findings" );
    ]
  in
  Arg.parse spec
    (fun a ->
      Printf.eprintf "lint: unexpected argument %s\n" a;
      exit 2)
    usage;
  (* A typo'd --root must not pass as an empty (hence clean) tree. *)
  if
    not
      (List.exists
         (fun d -> Sys.file_exists (Filename.concat !root d))
         Engine.scanned_dirs)
  then begin
    Printf.eprintf "lint: %s contains none of the scanned directories (%s)\n"
      !root
      (String.concat " " Engine.scanned_dirs);
    exit 2
  end;
  let report = Mppm_sema.Sema.analyze_tree ~root:!root () in
  if !report_mode = "hot" then begin
    report_hot report;
    exit 0
  end;
  if !report_mode = "units" then exit (if report_units report then 0 else 1);
  let token_diags = Engine.lint_tree ~root:!root in
  let diags = List.sort Diag.compare (token_diags @ report.Mppm_sema.Sema.diags) in
  let diags =
    match !selected with
    | [] -> diags
    | rules -> List.filter (fun d -> List.mem d.Diag.rule rules) diags
  in
  if !verbose then
    Printf.printf "sema: parses=%d fallbacks=%d\n"
      report.Mppm_sema.Sema.parses report.Mppm_sema.Sema.fallbacks;
  let errors = Engine.errors diags in
  (match !format with
  | Json -> print_endline (Diag.list_to_json diags)
  | Text ->
      List.iter (fun d -> print_endline (Diag.to_text d)) diags;
      Printf.printf "%d finding%s (%d error%s, %d warning%s)\n"
        (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (List.length errors)
        (if List.length errors = 1 then "" else "s")
        (List.length diags - List.length errors)
        (if List.length diags - List.length errors = 1 then "" else "s"));
  exit (if errors <> [] then 1 else 0)
