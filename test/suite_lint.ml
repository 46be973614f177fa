(* Tests for the mppm-lint static-analysis pass, the runtime invariant
   sanitizer, and the fingerprint-based profile cache keys.

   The tree test lints the real sources (made visible in the build
   directory via source_tree deps in test/dune) and asserts the repo is
   lint-clean; the synthetic tests feed each rule a positive and a
   suppressed snippet through [Sema.analyze]. *)

module Diag = Mppm_lint.Diag
module Engine = Mppm_lint.Engine
module Rules = Mppm_lint.Rules
module Sema = Mppm_sema.Sema
module Invariant = Mppm_util.Invariant
module Fingerprint = Mppm_util.Fingerprint
module Model = Mppm_core.Model
module Mix = Mppm_workload.Mix
open Mppm_experiments

(* ---- Linting the real tree ---------------------------------------------- *)

(* Tests run from the test stanza's build directory; the source_tree deps
   place lib/, bin/, bench/ and tools/ one level up.  MPPM_LINT_ROOT
   overrides the search (e.g. to lint a checkout directly). *)
let lint_root () =
  let candidates =
    (match Sys.getenv_opt "MPPM_LINT_ROOT" with Some r -> [ r ] | None -> [])
    @ [ ".."; "../.."; "." ]
  in
  List.find_opt
    (fun root ->
      let dir = Filename.concat root "lib" in
      Sys.file_exists dir && Sys.is_directory dir)
    candidates

let test_tree_is_clean () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree to lint"
  | Some root ->
      let findings = (Sema.analyze_tree ~root ()).Sema.diags in
      let errors = Engine.errors findings in
      let render ds =
        String.concat "\n" (List.map Diag.to_text ds)
      in
      Alcotest.(check string) "no lint errors" "" (render errors);
      Alcotest.(check string) "no lint warnings" "" (render findings)

(* ---- Synthetic rule cases ----------------------------------------------- *)

let lint ~rel content =
  (Sema.analyze ~dunes:[] [ { Sema.rel; content } ]).Sema.diags

let rules_of ~rel src = List.map (fun d -> d.Diag.rule) (lint ~rel src)

let has_rule rule ~rel src = List.mem rule (rules_of ~rel src)

let test_d1_random () =
  Alcotest.(check bool) "Random in lib flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let x = Random.int 5\n");
  Alcotest.(check bool) "allow comment suppresses" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow D1 *)\nlet x = Random.int 5\n");
  Alcotest.(check bool) "qualified path not confused" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "let x = Mppm_util.Rng.int rng 5\n")

let test_d1_wall_clock_and_hash () =
  Alcotest.(check bool) "Sys.time flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Sys.time ()\n");
  Alcotest.(check bool) "Unix.gettimeofday flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Unix.gettimeofday ()\n");
  Alcotest.(check bool) "Hashtbl.hash flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let h = Hashtbl.hash v\n");
  Alcotest.(check bool) "Hashtbl.create bare flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Hashtbl.create 16\n");
  Alcotest.(check bool) "Hashtbl.create ~random:false ok" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "let t = Hashtbl.create ~random:false 16\n");
  Alcotest.(check bool) "outside lib not D1" false
    (has_rule "D1" ~rel:"bench/foo.ml" "let t = Hashtbl.create 16\n");
  Alcotest.(check bool) "~random:false of the next call does not count" true
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "let e = Hashtbl.create 16\nlet e2 = Hashtbl.create ~random:false 4\n")

let test_d2_random_outside_lib () =
  Alcotest.(check bool) "Random in bench flagged as D2" true
    (has_rule "D2" ~rel:"bench/foo.ml" "let x = Random.int 5\n");
  Alcotest.(check bool) "suppressed on same line" false
    (has_rule "D2" ~rel:"bench/foo.ml"
       "let x = Random.int 5 (* lint: allow D2 *)\n")

let test_f1_float_equality () =
  Alcotest.(check bool) "if x = 0.5 flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let f x = if x = 0.5 then 1 else 2\n");
  Alcotest.(check bool) "when clause flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "let f x = match x with y when y = 1.0 -> 0 | _ -> 1\n");
  Alcotest.(check bool) "let binding not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let x = 0.5\n");
  Alcotest.(check bool) "optional default not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let f ?(eps = 1e-9) x = x +. eps\n");
  Alcotest.(check bool) "Float.equal not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "let f x = if Float.equal x 0.5 then 1 else 2\n");
  Alcotest.(check bool) "suppression works" false
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "(* lint: allow F1 *)\nlet f x = if x = 0.5 then 1 else 2\n");
  Alcotest.(check bool) "comparison bound by let-in flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let g3 x = let y = x = 0.25 in y\n");
  Alcotest.(check bool) "comparison under not flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let q x = not (x = 0.5)\n");
  Alcotest.(check bool) "negative literal operand flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let g2 x = x <> -2.5 && x > 0.0\n");
  Alcotest.(check bool) "compare passed with float operands flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "let a xs = List.sort compare [0.5; 1.0]\n")

let test_m1_mli_docs () =
  Alcotest.(check bool) "undocumented val flagged" true
    (has_rule "M1" ~rel:"lib/core/foo.mli" "val f : int -> int\n");
  Alcotest.(check bool) "doc after val ok" false
    (has_rule "M1" ~rel:"lib/core/foo.mli"
       "val f : int -> int\n(** Doubles. *)\n");
  Alcotest.(check bool) "doc before val ok" false
    (has_rule "M1" ~rel:"lib/core/foo.mli"
       "(** Doubles. *)\nval f : int -> int\n");
  Alcotest.(check bool) "mli outside lib ignored" false
    (has_rule "M1" ~rel:"tools/foo.mli" "val f : int -> int\n")

let test_e1_error_prefixes () =
  Alcotest.(check bool) "bare failwith flagged" true
    (has_rule "E1" ~rel:"lib/core/foo.ml" "let f () = failwith \"bad input\"\n");
  Alcotest.(check bool) "prefixed failwith ok" false
    (has_rule "E1" ~rel:"lib/core/foo.ml"
       "let f () = failwith \"Foo.f: bad input\"\n");
  Alcotest.(check bool) "prefixed invalid_arg ok" false
    (has_rule "E1" ~rel:"lib/core/foo.ml"
       "let f () = invalid_arg \"Foo: bad input\"\n");
  Alcotest.(check bool) "outside lib ignored" false
    (has_rule "E1" ~rel:"bin/foo.ml" "let f () = failwith \"bad input\"\n");
  Alcotest.(check bool) "failwith passed before its literal flagged" true
    (has_rule "E1" ~rel:"lib/core/foo.ml"
       "let f () = Printf.ksprintf failwith \"no prefix %d\" 3\n")

let test_o1_console_output () =
  Alcotest.(check bool) "print_endline in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f () = print_endline \"x\"\n");
  Alcotest.(check bool) "prerr_string in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f () = prerr_string \"x\"\n");
  Alcotest.(check bool) "Printf.printf in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Printf.printf \"%d\" n\n");
  Alcotest.(check bool) "Format.eprintf in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Format.eprintf \"%d\" n\n");
  Alcotest.(check bool) "Format.std_formatter in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f () = Format.fprintf Format.std_formatter \"x\"\n");
  Alcotest.(check bool) "Printf.sprintf not flagged" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Printf.sprintf \"%d\" n\n");
  Alcotest.(check bool) "caller-supplied formatter not flagged" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let pp ppf n = Format.fprintf ppf \"%d\" n\n");
  Alcotest.(check bool) "projection not confused with bare printer" false
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f x = X.print_endline x\n");
  Alcotest.(check bool) "outside lib ignored" false
    (has_rule "O1" ~rel:"bin/foo.ml" "let f () = print_endline \"x\"\n");
  Alcotest.(check bool) "suppression works" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "(* lint: allow O1 *)\nlet f () = print_endline \"x\"\n")

let test_testish_scope () =
  let o1 rel src =
    List.filter (fun d -> d.Diag.rule = "O1") (lint ~rel src)
  in
  (match o1 "test/foo.ml" "let f () = print_endline \"x\"\n" with
  | [ d ] ->
      Alcotest.(check bool) "O1 downgraded to warning in test/" true
        (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one O1, got %d" (List.length ds));
  (match o1 "examples/foo.ml" "let f () = print_endline \"x\"\n" with
  | [ d ] ->
      Alcotest.(check bool) "O1 downgraded to warning in examples/" true
        (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one O1, got %d" (List.length ds));
  (match lint ~rel:"test/foo.mli" "val f : int -> int\n" with
  | [ d ] ->
      Alcotest.(check string) "M1 applies to test .mli" "M1" d.Diag.rule;
      Alcotest.(check bool) "as a warning" true (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one M1, got %d" (List.length ds))

let test_allow_file () =
  Alcotest.(check bool) "allow-file suppresses anywhere in the file" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "(* lint: allow-file O1 demo *)\nlet pad = 0\nlet f () = print_endline \"x\"\n");
  Alcotest.(check bool) "allow-file is per-rule" true
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow-file O1 demo *)\nlet t = Hashtbl.create 16\n");
  Alcotest.(check bool) "why text after the rule id is ignored" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow D1 wall-clock by design *)\nlet t = Hashtbl.create 16\n")

let test_dune_unix_in_lib () =
  let findings =
    Rules.check_dune ~rel:"lib/core/dune"
      "(library (name mppm_core) (libraries unix))\n"
  in
  Alcotest.(check bool) "unix link flagged" true
    (List.exists (fun d -> d.Diag.rule = "D1") findings);
  Alcotest.(check (list string)) "unix as substring not flagged" []
    (List.map
       (fun d -> d.Diag.rule)
       (Rules.check_dune ~rel:"lib/core/dune"
          "(library (name mppm_unixish))\n"))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_diag_render () =
  let d =
    {
      Diag.file = "lib/a.ml";
      line = 3;
      rule = "D1";
      severity = Diag.Error;
      message = "a \"quoted\" message";
    }
  in
  Alcotest.(check string) "text form" "lib/a.ml:3: [D1] error: a \"quoted\" message"
    (Diag.to_text d);
  let json = Diag.list_to_json [ d ] in
  Alcotest.(check bool) "json escapes quotes" true
    (contains json "a \\\"quoted\\\" message");
  Alcotest.(check bool) "json carries line" true (contains json "\"line\":3")

(* ---- qcheck properties --------------------------------------------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"linter total on arbitrary input" ~count:500
      QCheck.(string)
      (fun s ->
        ignore (lint ~rel:"lib/x/y.ml" s);
        ignore (lint ~rel:"lib/x/y.mli" s);
        true);
    QCheck.Test.make ~name:"F1 fires once per generated comparison" ~count:200
      QCheck.(pair (int_range 0 999) (int_range 0 99))
      (fun (a, b) ->
        let lit = Printf.sprintf "%d.%d" a b in
        let src = Printf.sprintf "let f x = if x = %s then 1 else 2\n" lit in
        let hits =
          List.filter
            (fun d -> d.Diag.rule = "F1")
            (lint ~rel:"lib/x/y.ml" src)
        in
        List.length hits = 1);
    QCheck.Test.make ~name:"F1 suppressed by allow comment" ~count:200
      QCheck.(pair (int_range 0 999) (int_range 0 99))
      (fun (a, b) ->
        let lit = Printf.sprintf "%d.%d" a b in
        let src =
          Printf.sprintf
            "let f x = if x = %s then 1 else 2 (* lint: allow F1 *)\n" lit
        in
        not (has_rule "F1" ~rel:"lib/x/y.ml" src));
  ]

(* ---- Runtime sanitizer ---------------------------------------------------- *)

let canonical_mix = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |]
let tiny_scale = Scale.of_trace 100_000

let test_invariant_counters () =
  Invariant.reset ();
  Invariant.set_enabled true;
  Invariant.check "test.pass" true;
  Invariant.check "test.fail" false;
  Invariant.checkf "test.detail" false (fun () -> "x = 42");
  Alcotest.(check int) "checks counted" 3 (Invariant.checks_run ());
  Alcotest.(check int) "violations counted" 2 (Invariant.violations ());
  Alcotest.(check bool) "report names the invariant" true
    (contains (Invariant.report ()) "test.fail");
  Alcotest.(check bool) "report carries the detail" true
    (contains (Invariant.report ()) "x = 42");
  Invariant.set_enabled false;
  Invariant.check "test.disabled" false;
  Alcotest.(check int) "disabled checks are no-ops" 2 (Invariant.violations ());
  Invariant.reset ();
  Alcotest.(check int) "reset clears" 0 (Invariant.checks_run ())

(* The canonical mix, predicted and detail-simulated with the sanitizer on:
   zero violations, and the prediction is bit-for-bit what it is with the
   sanitizer off. *)
let test_sanitizer_smoke () =
  let baseline =
    let ctx = Context.create ~seed:7 tiny_scale in
    Context.predict ctx ~llc_config:1 canonical_mix
  in
  Invariant.reset ();
  Invariant.set_enabled true;
  let sanitized, measured =
    let ctx = Context.create ~seed:7 tiny_scale in
    let p = Context.predict ctx ~llc_config:1 canonical_mix in
    let m = Context.detailed ctx ~llc_config:1 canonical_mix in
    (p, m)
  in
  Invariant.set_enabled false;
  Alcotest.(check bool) "checkpoints exercised" true (Invariant.checks_run () > 0);
  Alcotest.(check int) "zero violations" 0 (Invariant.violations ());
  ignore measured;
  let bits = Int64.bits_of_float in
  let check_bitwise name a b =
    Alcotest.(check int64) name (bits a) (bits b)
  in
  check_bitwise "stp bit-for-bit" baseline.Model.stp sanitized.Model.stp;
  check_bitwise "antt bit-for-bit" baseline.Model.antt sanitized.Model.antt;
  Array.iteri
    (fun i p ->
      let q = sanitized.Model.programs.(i) in
      check_bitwise
        (Printf.sprintf "slowdown %d bit-for-bit" i)
        p.Model.slowdown q.Model.slowdown)
    baseline.Model.programs

(* ---- Fingerprint and cache paths ------------------------------------------ *)

let test_fingerprint_golden () =
  (* Golden FNV-1a 64 values: pin the algorithm so cache filenames stay
     stable across runs and refactors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325"
    (Fingerprint.to_hex Fingerprint.empty);
  Alcotest.(check string) "\"a\"" "af63dc4c8601ec8c"
    (Fingerprint.to_hex (Fingerprint.of_string "a"));
  Alcotest.(check string) "\"foobar\"" "85944171f73967e8"
    (Fingerprint.to_hex (Fingerprint.of_string "foobar"))

let test_fingerprint_separation () =
  let h a b =
    Fingerprint.to_hex (Fingerprint.add_string (Fingerprint.of_string a) b)
  in
  Alcotest.(check string) "add_string is a plain byte fold" (h "ab" "c") (h "a" "bc");
  let i a b =
    Fingerprint.to_hex (Fingerprint.add_int (Fingerprint.add_int Fingerprint.empty a) b)
  in
  Alcotest.(check bool) "ints cannot concatenate-collide" true
    (i 12 3 <> i 1 23);
  Alcotest.(check bool) "of_value distinguishes values" true
    (Fingerprint.of_value (1, "x") <> Fingerprint.of_value (2, "x"));
  Alcotest.(check bool) "of_value is stable" true
    (Fingerprint.of_value (1, "x") = Fingerprint.of_value (1, "x"))

let test_cache_path_digest () =
  let dir = Filename.get_temp_dir_name () in
  let ctx1 = Context.create ~seed:7 ~cache_dir:dir tiny_scale in
  let ctx2 = Context.create ~seed:7 ~cache_dir:dir tiny_scale in
  let path ctx = Context.cache_path ctx ~llc_config:1 0 in
  (match (path ctx1, path ctx2) with
  | Some a, Some b ->
      Alcotest.(check string) "same parameters, same path" a b;
      Alcotest.(check bool) "benchmark name in path" true
        (contains a Mppm_trace.Suite.names.(0))
  | _ -> Alcotest.fail "cache_path must be Some with a cache dir");
  (match (path ctx1, Context.cache_path ctx1 ~llc_config:2 0) with
  | Some a, Some b ->
      Alcotest.(check bool) "different LLC config, different path" true (a <> b)
  | _ -> Alcotest.fail "cache_path must be Some with a cache dir");
  let little =
    Context.create
      ~core:{ Mppm_simcore.Core_model.default with memory_exposure = 0.9 }
      ~seed:7 ~cache_dir:dir tiny_scale
  in
  (match (path ctx1, path little) with
  | Some a, Some b ->
      Alcotest.(check bool) "different core params, different path" true (a <> b)
  | _ -> Alcotest.fail "cache_path must be Some with a cache dir");
  Alcotest.(check (option string)) "no cache dir, no path" None
    (Context.cache_path (Context.create ~seed:7 tiny_scale) ~llc_config:1 0)

let tests =
  [
    ( "lint.tree",
      [ Alcotest.test_case "repository is lint-clean" `Quick test_tree_is_clean ] );
    ( "lint.rules",
      [
        Alcotest.test_case "D1 random" `Quick test_d1_random;
        Alcotest.test_case "D1 wall clock and hash" `Quick test_d1_wall_clock_and_hash;
        Alcotest.test_case "D2 random outside lib" `Quick test_d2_random_outside_lib;
        Alcotest.test_case "F1 float equality" `Quick test_f1_float_equality;
        Alcotest.test_case "M1 mli docs" `Quick test_m1_mli_docs;
        Alcotest.test_case "E1 error prefixes" `Quick test_e1_error_prefixes;
        Alcotest.test_case "O1 console output" `Quick test_o1_console_output;
        Alcotest.test_case "testish scope downgrades" `Quick test_testish_scope;
        Alcotest.test_case "allow-file suppression" `Quick test_allow_file;
        Alcotest.test_case "dune unix in lib" `Quick test_dune_unix_in_lib;
        Alcotest.test_case "diagnostic rendering" `Quick test_diag_render;
      ] );
    ("lint.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "lint.sanitizer",
      [
        Alcotest.test_case "counters" `Quick test_invariant_counters;
        Alcotest.test_case "canonical mix smoke" `Slow test_sanitizer_smoke;
      ] );
    ( "lint.fingerprint",
      [
        Alcotest.test_case "golden FNV values" `Quick test_fingerprint_golden;
        Alcotest.test_case "separation" `Quick test_fingerprint_separation;
        Alcotest.test_case "cache path digest" `Quick test_cache_path_digest;
      ] );
  ]
