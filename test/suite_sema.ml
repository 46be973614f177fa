(* Tests for the AST analysis layer (tools/sema): facts extraction
   totality, rules S1-S8, the hot-path rules P1-P4, the unit rules U1-U3,
   shared suppression, and the lint.exe command-line surface.

   The acceptance test for S2 mutates the *real* workload generator
   source (replacing the fetch stream with the data stream) and asserts
   the lint fails: the stream-separation invariant is statically
   provable, not just qcheck'd. *)

module Diag = Mppm_lint.Diag
module Engine = Mppm_lint.Engine
module Facts = Mppm_sema.Facts
module Effects = Mppm_sema.Effects
module Sema = Mppm_sema.Sema
module Units = Mppm_sema.Units

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Locate the real source tree (same discipline as suite_lint). *)
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

let analyze inputs =
  Sema.analyze ~dunes:[]
    (List.map (fun (rel, content) -> { Sema.rel; content }) inputs)

(* Like [analyze], with dune files so cross-library references resolve. *)
let analyze_dunes dunes inputs =
  Sema.analyze ~dunes
    (List.map (fun (rel, content) -> { Sema.rel; content }) inputs)

let rules_of report = List.map (fun d -> d.Diag.rule) report.Sema.diags

(* ---- S1: effect containment --------------------------------------------- *)

let leaky = "let save x =\n  let oc = open_out \"f.txt\" in\n  output_string oc x;\n  close_out oc\n"

let test_s1_direct_io () =
  let r = analyze [ ("lib/demo/leaky.ml", leaky) ] in
  Alcotest.(check (list string)) "direct I/O in lib flagged" [ "S1" ] (rules_of r);
  let r = analyze [ ("bench/leaky.ml", leaky) ] in
  Alcotest.(check (list string)) "I/O outside lib is fine" [] (rules_of r)

let test_s1_transitive () =
  let r =
    analyze
      [
        ("lib/demo/a.ml", leaky);
        ("lib/demo/b.ml", "let run x = A.save x\n");
      ]
  in
  let files = List.map (fun d -> d.Diag.file) r.Sema.diags in
  Alcotest.(check (list string)) "caller inherits the I/O effect"
    [ "lib/demo/a.ml"; "lib/demo/b.ml" ]
    (List.sort compare files);
  Alcotest.(check bool) "witness names the callee" true
    (List.exists
       (fun d -> d.Diag.file = "lib/demo/b.ml" && contains d.Diag.message "A.save")
       r.Sema.diags)

let test_s1_allowlist () =
  let r = analyze [ ("lib/profile/profile.ml", leaky) ] in
  Alcotest.(check (list string)) "profile store may do I/O" [] (rules_of r);
  (* Calling an allowlisted unit does not taint the caller. *)
  let r =
    analyze
      [
        ("lib/profile/profile.ml", leaky);
        ("lib/profile/user.ml", "let run x = Profile.save x\n");
      ]
  in
  Alcotest.(check (list string)) "allowlist cuts propagation" [] (rules_of r)

(* ---- S2: seed flow ------------------------------------------------------- *)

let test_s2_real_generator_separation () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree"
  | Some root ->
      let rel = "lib/trace/generator.ml" in
      let content = read_file (Filename.concat root rel) in
      let clean = analyze [ (rel, content) ] in
      Alcotest.(check (list string)) "real generator separates streams" []
        (List.filter (fun r -> r = "S2") (rules_of clean));
      (* Collapse the fetch stream onto the data stream: S2 must fail. *)
      let buf = Buffer.create (String.length content) in
      let n = String.length content in
      let i = ref 0 in
      while !i < n do
        if !i + 10 <= n && String.sub content !i 10 = ".fetch_rng" then begin
          Buffer.add_string buf ".rng";
          i := !i + 10
        end
        else begin
          Buffer.add_char buf content.[!i];
          incr i
        end
      done;
      let mutated = analyze [ (rel, Buffer.contents buf) ] in
      Alcotest.(check bool) "collapsed streams are caught" true
        (List.exists
           (fun d -> d.Diag.rule = "S2" && contains d.Diag.message "next_fetch")
           mutated.Sema.diags)

let test_s2_helper_fixpoint () =
  (* The shared field is only reachable through a same-unit helper. *)
  let src =
    "let draw t = Mppm_util.Rng.int t.rng 10\n\
     let next t = draw t\n\
     let next_fetch t = draw t\n"
  in
  let r = analyze [ ("lib/demo/gen.ml", src) ] in
  Alcotest.(check (list string)) "shared state found through helper" [ "S2" ]
    (rules_of r)

let test_s2_constant_seed () =
  let r =
    analyze [ ("lib/demo/c.ml", "let r = Mppm_util.Rng.create ~seed:42\n") ]
  in
  Alcotest.(check (list string)) "constant seed in lib flagged" [ "S2" ]
    (rules_of r);
  let r =
    analyze
      [ ("lib/demo/c.ml", "let make seed = Mppm_util.Rng.create ~seed\n") ]
  in
  Alcotest.(check (list string)) "seed from argument is fine" [] (rules_of r);
  let r =
    analyze [ ("test/demo.ml", "let r = Mppm_util.Rng.create ~seed:42\n") ]
  in
  Alcotest.(check (list string)) "constant seed outside lib is fine" []
    (rules_of r)

(* ---- S3: order-sensitive float accumulation ------------------------------ *)

let accum = "let total t = Hashtbl.fold (fun _ v a -> a +. v) t 0.0\n"

let test_s3 () =
  let r = analyze [ ("lib/demo/acc.ml", accum) ] in
  (match r.Sema.diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "S3" d.Diag.rule;
      Alcotest.(check bool) "error in lib" true (d.Diag.severity = Diag.Error)
  | ds -> Alcotest.failf "expected one S3, got %d" (List.length ds));
  let r = analyze [ ("test/acc.ml", accum) ] in
  (match r.Sema.diags with
  | [ d ] ->
      Alcotest.(check bool) "warning outside lib" true
        (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one S3, got %d" (List.length ds));
  let seq = "let total t = Seq.fold_left ( +. ) 0.0 (Hashtbl.to_seq_values t)\n" in
  let r = analyze [ ("lib/demo/acc2.ml", seq) ] in
  Alcotest.(check (list string)) "to_seq form flagged" [ "S3" ] (rules_of r);
  let ints = "let total t = Hashtbl.fold (fun _ v a -> a + v) t 0\n" in
  let r = analyze [ ("lib/demo/acc3.ml", ints) ] in
  Alcotest.(check (list string)) "integer fold is fine" [] (rules_of r)

(* ---- S4: dead exports ---------------------------------------------------- *)

let test_s4 () =
  let r =
    analyze
      [
        ("lib/demo/a.ml", "let used n = n + 1\nlet dead n = n - 1\n");
        ( "lib/demo/a.mli",
          "val used : int -> int\n(** Used. *)\nval dead : int -> int\n(** Dead. *)\n"
        );
        ("lib/demo/b.ml", "let x = A.used 1\n");
      ]
  in
  (match r.Sema.diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "S4" d.Diag.rule;
      Alcotest.(check bool) "names the dead val" true
        (contains d.Diag.message "dead")
  | ds -> Alcotest.failf "expected one S4, got %d" (List.length ds));
  (* A use through [open] counts. *)
  let r =
    analyze
      [
        ("lib/demo/a.ml", "let used n = n + 1\nlet dead n = n - 1\n");
        ( "lib/demo/a.mli",
          "val used : int -> int\n(** Used. *)\nval dead : int -> int\n(** Dead. *)\n"
        );
        ("lib/demo/b.ml", "open A\n\nlet x = used 1 + dead 2\n");
      ]
  in
  Alcotest.(check (list string)) "uses through open count" [] (rules_of r)

(* ---- S5: concurrency containment ----------------------------------------- *)

let locky =
  "let m = Mutex.create ()\nlet guard f =\n  Mutex.lock m;\n  let r = f () in\n  Mutex.unlock m;\n  r\n"

let test_s5_direct () =
  let r = analyze [ ("lib/demo/locky.ml", locky) ] in
  Alcotest.(check bool) "Mutex in plain lib flagged" true
    (List.mem "S5" (rules_of r));
  (match List.find_opt (fun d -> d.Diag.rule = "S5") r.Sema.diags with
  | Some d ->
      Alcotest.(check bool) "error severity" true (d.Diag.severity = Diag.Error);
      Alcotest.(check bool) "witness names the prim" true
        (contains d.Diag.message "Mutex.")
  | None -> Alcotest.fail "expected an S5 diag");
  let r = analyze [ ("bench/locky.ml", locky) ] in
  Alcotest.(check (list string)) "concurrency outside lib is fine" []
    (rules_of r);
  let r = analyze [ ("lib/pool/locky.ml", locky) ] in
  Alcotest.(check (list string)) "lib/pool/ is sanctioned" [] (rules_of r)

let test_s5_transitive () =
  let r =
    analyze
      [
        ("lib/demo/locky.ml", locky);
        ("lib/demo/user.ml", "let run f = Locky.guard f\n");
      ]
  in
  Alcotest.(check bool) "caller inherits the concurrency effect" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S5"
         && d.Diag.file = "lib/demo/user.ml"
         && contains d.Diag.message "Locky.guard")
       r.Sema.diags);
  (* Calling into lib/pool/ does not taint the caller. *)
  let r =
    analyze
      [
        ("lib/pool/locky.ml", locky);
        ("lib/demo/user.ml", "let run f = Mppm_pool.Locky.guard f\n");
      ]
  in
  Alcotest.(check (list string)) "lib/pool/ cuts propagation" [] (rules_of r)

let test_s5_allow_absorbs () =
  (* An allow-file on the direct user suppresses the finding AND keeps the
     taint out of the effect lattice, so callers stay clean too. *)
  let allowed =
    "(* lint: allow-file S5 single lock, sanctioned like the registry *)\n\
     (* lint: allow-file S7 sanctioned module state *)\n"
    ^ locky
  in
  let r =
    analyze
      [
        ("lib/demo/locky.ml", allowed);
        ("lib/demo/user.ml", "let run f = Locky.guard f\n");
      ]
  in
  Alcotest.(check (list string)) "allow-file absorbs the taint" []
    (rules_of r);
  let line_allowed =
    "(* lint: allow S7 demo state *)\n\
     let m = Mutex.create () (* lint: allow S5 one sanctioned lock *)\n"
  in
  let r = analyze [ ("lib/demo/l2.ml", line_allowed) ] in
  Alcotest.(check (list string)) "line allow absorbs a single prim" []
    (rules_of r)

(* ---- S6: pool-task purity -------------------------------------------------- *)

let rule_diags rule report =
  List.filter (fun d -> d.Diag.rule = rule) report.Sema.diags

let test_s6_captured_ref () =
  let impure =
    "let run pool xs =\n\
    \  let hits = ref 0 in\n\
    \  Mppm_pool.Pool.map pool (fun x -> incr hits; x + 1) xs\n"
  in
  let r = analyze [ ("lib/demo/par.ml", impure) ] in
  (match rule_diags "S6" r with
  | [ d ] ->
      Alcotest.(check bool) "error severity" true (d.Diag.severity = Diag.Error);
      Alcotest.(check bool) "names the captured ref" true
        (contains d.Diag.message "hits");
      Alcotest.(check bool) "names the entry" true
        (contains d.Diag.message "Pool.map")
  | ds -> Alcotest.failf "expected one S6, got %d" (List.length ds));
  Alcotest.(check (list string)) "no other rule fires" [ "S6" ] (rules_of r);
  let r = analyze [ ("bench/par.ml", impure) ] in
  Alcotest.(check (list string)) "impure task outside lib is fine" []
    (rules_of r);
  (* A local wrapper forwarding its parameter to Pool.map is a sink, with
     or without a type annotation on that parameter. *)
  let via_sink param =
    Printf.sprintf
      "let run pool xs =\n\
      \  let hits = ref 0 in\n\
      \  let go %s = Mppm_pool.Pool.map pool f xs in\n\
      \  go (fun x -> incr hits; x + 1)\n"
      param
  in
  List.iter
    (fun (name, param) ->
      let r = analyze [ ("lib/demo/par.ml", via_sink param) ] in
      match rule_diags "S6" r with
      | [ d ] ->
          Alcotest.(check bool) (name ^ ": names the sink") true
            (contains d.Diag.message "Pool.map via go");
          Alcotest.(check bool) (name ^ ": names the captured ref") true
            (contains d.Diag.message "hits")
      | ds -> Alcotest.failf "%s: expected one S6, got %d" name (List.length ds))
    [ ("untyped sink", "f"); ("typed sink", "(f : int -> int)") ]

let test_s6_pure_tasks_clean () =
  let pure =
    "let run pool xs = Mppm_pool.Pool.map pool (fun x -> x + 1) xs\n\
     let render pool xs =\n\
    \  Mppm_pool.Pool.map pool\n\
    \    (fun x ->\n\
    \      let b = Buffer.create 16 in\n\
    \      Buffer.add_string b x;\n\
    \      Buffer.contents b)\n\
    \    xs\n"
  in
  let r = analyze [ ("lib/demo/par.ml", pure) ] in
  Alcotest.(check (list string))
    "pure tasks (incl. closure-local mutable state) are clean" [] (rules_of r)

let test_s6_tainted_task_path () =
  let r =
    analyze
      [
        ( "lib/demo/glob.ml",
          "let total = ref 0\nlet bump x = total := !total + x; x\n" );
        ( "lib/demo/par.ml",
          "let run pool xs = Mppm_pool.Pool.map pool Glob.bump xs\n" );
      ]
  in
  Alcotest.(check bool) "task named by path is traced to module state" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S6"
         && d.Diag.file = "lib/demo/par.ml"
         && contains d.Diag.message "Glob.bump")
       r.Sema.diags)

let test_s6_partial_application_race () =
  let kit = "let step t x = Hashtbl.replace t x x; x\n" in
  let r =
    analyze
      [
        ("lib/demo/kit.ml", kit);
        ( "lib/demo/par.ml",
          "let run pool t xs = Mppm_pool.Pool.map pool (Kit.step t) xs\n" );
      ]
  in
  Alcotest.(check bool) "partially applied mutated value is a race" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S6"
         && d.Diag.file = "lib/demo/par.ml"
         && contains d.Diag.message "partially applied")
       r.Sema.diags);
  (* The same shared value smuggled through a closure is caught too. *)
  let r =
    analyze
      [
        ("lib/demo/kit.ml", kit);
        ( "lib/demo/par.ml",
          "let run pool xs =\n\
          \  let acc = Hashtbl.create 16 in\n\
          \  Mppm_pool.Pool.map pool (fun x -> Kit.step acc x) xs\n" );
      ]
  in
  Alcotest.(check bool) "captured value escaping to a mutator is a race" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S6" && contains d.Diag.message "shares captured value")
       r.Sema.diags)

let registry_fixture =
  "(* lint: allow-file S5 sanctioned registry lock *)\n\
   let counters = Hashtbl.create ~random:false 8\n\
   let incr name = Hashtbl.replace counters name 1\n"

let test_s6_sanctioned_memo_clean () =
  (* The Single_flight memo shape from lib/experiments/context.ml: the
     task bumps a registry counter, which the purity allowlist sanctions. *)
  let r =
    analyze_dunes
      [ ("lib/obs/dune", "(name mppm_obs)") ]
      [
        ("lib/obs/registry.ml", registry_fixture);
        ( "lib/demo/memo.ml",
          "let get t k =\n\
          \  Mppm_pool.Single_flight.get t k (fun () ->\n\
          \      Mppm_obs.Registry.incr \"hit\";\n\
          \      42)\n" );
      ]
  in
  Alcotest.(check (list string)) "registry-backed memo task is sanctioned" []
    (rules_of r)

let test_s6_real_experiments_injection () =
  (* The acceptance check on real sources: lib/experiments/accuracy.ml is
     S6-clean as written, and splicing a leaked-counter task into it
     fails the build. *)
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree"
  | Some root ->
      let rel = "lib/experiments/accuracy.ml" in
      let content = read_file (Filename.concat root rel) in
      let clean = analyze [ (rel, content) ] in
      Alcotest.(check (list string)) "real experiments are task-pure" []
        (List.filter (fun r -> r = "S6" || r = "S7") (rules_of clean));
      let mutated =
        content
        ^ "\nlet leak_count = ref 0\n\
           let leak pool xs =\n\
          \  Mppm_pool.Pool.map pool (fun x -> incr leak_count; x) xs\n"
      in
      let r = analyze [ (rel, mutated) ] in
      Alcotest.(check bool) "injected impure task is caught by S6" true
        (List.exists
           (fun d -> d.Diag.rule = "S6" && contains d.Diag.message "leak_count")
           r.Sema.diags);
      Alcotest.(check bool) "the leaked toplevel ref is caught by S7" true
        (List.exists (fun d -> d.Diag.rule = "S7") r.Sema.diags)

(* ---- S7: module-level mutable state ---------------------------------------- *)

let test_s7_toplevel_state () =
  let glob = "let total = ref 0\nlet bump x = total := !total + x\n" in
  let r = analyze [ ("lib/demo/glob.ml", glob) ] in
  Alcotest.(check bool) "the allocation is inventoried" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S7" && d.Diag.line = 1 && contains d.Diag.message "ref")
       r.Sema.diags);
  Alcotest.(check bool) "the write site is flagged" true
    (List.exists
       (fun d -> d.Diag.rule = "S7" && d.Diag.line = 2)
       r.Sema.diags);
  Alcotest.(check (list string)) "only S7 fires"
    [ "S7" ]
    (List.sort_uniq compare (rules_of r));
  let r = analyze [ ("bench/glob.ml", glob) ] in
  Alcotest.(check (list string)) "module state outside lib is fine" []
    (rules_of r);
  let r = analyze [ ("lib/pool/glob.ml", glob) ] in
  Alcotest.(check (list string)) "lib/pool/ is sanctioned" [] (rules_of r);
  let r = analyze [ ("lib/obs/registry.ml", glob) ] in
  Alcotest.(check (list string)) "the registry is sanctioned" [] (rules_of r)

let test_s7_handed_to_mutator () =
  let src =
    "let tbl = Hashtbl.create 16\n\
     let add t x = Hashtbl.replace t x x\n\
     let record x = add tbl x\n"
  in
  let r = analyze [ ("lib/demo/glob.ml", src) ] in
  Alcotest.(check bool) "module value handed to a mutating callee" true
    (List.exists
       (fun d ->
         d.Diag.rule = "S7"
         && contains d.Diag.message "passes module-level value")
       r.Sema.diags);
  (* Threading caller-owned state through arguments stays clean. *)
  let src =
    "let add t x = Hashtbl.replace t x x\n\
     let build xs =\n\
    \  let t = Hashtbl.create ~random:false 16 in\n\
    \  List.iter (fun x -> add t x) xs;\n\
    \  t\n"
  in
  let r = analyze [ ("lib/demo/local.ml", src) ] in
  Alcotest.(check (list string)) "locally-owned state is fine" [] (rules_of r)

(* ---- S8: declared lock order ------------------------------------------------ *)

let s8_dunes =
  [ ("lib/pool/dune", "(name mppm_pool)"); ("lib/obs/dune", "(name mppm_obs)") ]

let test_s8_lock_order () =
  let pool_locked = "let m = Mutex.create ()\nlet poke () = Mutex.lock m; Mutex.unlock m\n" in
  let registry_bad =
    "(* lint: allow-file S5 sanctioned registry lock *)\n\
     let m = Mutex.create ()\n\
     let bad () =\n\
    \  Mutex.lock m;\n\
    \  Mppm_pool.Pool.poke ();\n\
    \  Mutex.unlock m\n"
  in
  let r =
    analyze_dunes s8_dunes
      [
        ("lib/pool/pool.ml", pool_locked);
        ("lib/obs/registry.ml", registry_bad);
      ]
  in
  (match rule_diags "S8" r with
  | [ d ] ->
      Alcotest.(check string) "flagged in the registry" "lib/obs/registry.ml"
        d.Diag.file;
      Alcotest.(check bool) "states the declared order" true
        (contains d.Diag.message "pool before registry")
  | ds -> Alcotest.failf "expected one S8, got %d" (List.length ds));
  Alcotest.(check (list string)) "only S8 fires" [ "S8" ] (rules_of r);
  (* The declared direction — pool calls into the registry — is fine. *)
  let registry_locked =
    "(* lint: allow-file S5 sanctioned registry lock *)\n\
     let m = Mutex.create ()\n\
     let touch () = Mutex.lock m; Mutex.unlock m\n"
  in
  let pool_good =
    "let m = Mutex.create ()\n\
     let run () =\n\
    \  Mutex.lock m;\n\
    \  Mppm_obs.Registry.touch ();\n\
    \  Mutex.unlock m\n"
  in
  let r =
    analyze_dunes s8_dunes
      [
        ("lib/pool/pool.ml", pool_good);
        ("lib/obs/registry.ml", registry_locked);
      ]
  in
  Alcotest.(check (list string)) "pool-then-registry respects the order" []
    (rules_of r)

(* ---- Suppression of the parallel-determinism rules -------------------------- *)

let test_purity_suppression () =
  let r =
    analyze
      [
        ( "lib/demo/par.ml",
          "let run pool xs =\n\
          \  let hits = ref 0 in\n\
          \  (* lint: allow S6 measured: merged after the join *)\n\
          \  Mppm_pool.Pool.map pool (fun x -> incr hits; x + 1) xs\n" );
      ]
  in
  Alcotest.(check (list string)) "line allow suppresses S6" [] (rules_of r);
  let r =
    analyze
      [
        ( "lib/demo/glob.ml",
          "(* lint: allow-file S7 frozen at startup *)\n\
           let total = ref 0\n\
           let bump x = total := !total + x\n" );
      ]
  in
  Alcotest.(check (list string)) "allow-file suppresses S7" [] (rules_of r)

(* ---- The effect lattice is a join-semilattice ------------------------------- *)

let summary_arb =
  let gen =
    QCheck.Gen.map2
      (fun bits locks ->
        match bits with
        | [ io; conc; rng; mt; ma; rs ] ->
            {
              Effects.e_io = io;
              e_conc = conc;
              e_rng = rng;
              e_mut_top = mt;
              e_mut_arg = ma;
              e_raises = rs;
              e_locks = List.sort_uniq compare locks;
            }
        | _ -> Effects.bottom)
      (QCheck.Gen.list_size (QCheck.Gen.return 6) QCheck.Gen.bool)
      (QCheck.Gen.list_size (QCheck.Gen.int_bound 3)
         (QCheck.Gen.oneofl [ "pool"; "registry"; "io" ]))
  in
  QCheck.make gen

let lattice_tests =
  let open Effects in
  [
    QCheck.Test.make ~name:"merge is idempotent" ~count:500 summary_arb
      (fun a -> equal (merge a a) a);
    QCheck.Test.make ~name:"merge is commutative" ~count:500
      (QCheck.pair summary_arb summary_arb) (fun (a, b) ->
        equal (merge a b) (merge b a));
    QCheck.Test.make ~name:"merge is associative" ~count:500
      (QCheck.triple summary_arb summary_arb summary_arb) (fun (a, b, c) ->
        equal (merge a (merge b c)) (merge (merge a b) c));
    QCheck.Test.make ~name:"bottom is the identity" ~count:500 summary_arb
      (fun a -> equal (merge a bottom) a && equal (merge bottom a) a);
    QCheck.Test.make ~name:"merge is the least upper bound" ~count:500
      (QCheck.pair summary_arb summary_arb) (fun (a, b) ->
        leq a (merge a b) && leq b (merge a b));
    QCheck.Test.make ~name:"leq is antisymmetric" ~count:500
      (QCheck.pair summary_arb summary_arb) (fun (a, b) ->
        (not (leq a b && leq b a)) || equal a b);
  ]

(* ---- Shared suppression --------------------------------------------------- *)

let test_suppression () =
  let r =
    analyze
      [
        ( "lib/demo/acc.ml",
          "(* lint: allow S3 checked: single entry *)\n" ^ accum );
      ]
  in
  Alcotest.(check (list string)) "line allow suppresses S3" [] (rules_of r);
  let r =
    analyze
      [
        ( "lib/demo/acc.ml",
          "(* lint: allow-file S3 demo file *)\nlet pad = 0\n" ^ accum );
      ]
  in
  Alcotest.(check (list string)) "allow-file suppresses S3" [] (rules_of r)

(* ---- Totality of extraction (fallback engages, never crashes) ------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"facts extraction total on arbitrary bytes"
      ~count:300 QCheck.string (fun s ->
        let f = Facts.extract ~rel:"lib/x/y.ml" s in
        let g = Facts.extract ~rel:"lib/x/y.mli" s in
        ignore f.Facts.parse_failed;
        ignore g.Facts.parse_failed;
        true);
    QCheck.Test.make ~name:"analysis total on arbitrary bytes" ~count:100
      QCheck.string (fun s ->
        ignore (analyze [ ("lib/x/y.ml", s) ]);
        true);
    QCheck.Test.make ~name:"fallback engages on mutated real sources"
      ~count:60
      QCheck.(pair small_nat string)
      (fun (pos, garbage) ->
        match lint_root () with
        | None -> true
        | Some root ->
            let content =
              read_file (Filename.concat root "lib/trace/generator.ml")
            in
            let pos = pos mod max 1 (String.length content) in
            let mutated =
              String.sub content 0 pos ^ garbage
              ^ String.sub content pos (String.length content - pos)
            in
            let f = Facts.extract ~rel:"lib/trace/generator.ml" mutated in
            (* Either it still parses (the splice was benign) or the
               fallback engaged; both are fine — no exception escaped. *)
            ignore f.Facts.parse_failed;
            true);
  ]

let test_fallback_is_flagged () =
  let f = Facts.extract ~rel:"lib/x/y.ml" "let let let (((" in
  Alcotest.(check bool) "parse failure sets the flag" true f.Facts.parse_failed;
  let r = analyze [ ("lib/x/y.ml", "let let let (((") ] in
  Alcotest.(check int) "fallback counted" 1 r.Sema.fallbacks

(* ---- P1-P4: hot-path perf rules ------------------------------------------ *)

let prules r =
  List.filter (fun x -> String.length x = 2 && x.[0] = 'P') (rules_of r)

let replace_once haystack needle subst =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then None
    else if String.sub haystack i n = needle then
      Some
        (String.sub haystack 0 i ^ subst
        ^ String.sub haystack (i + n) (h - i - n))
    else go (i + 1)
  in
  go 0

let test_hot_root_flagged () =
  let body = "let f xs = List.map (fun x -> x + 1) xs\n" in
  let r = analyze [ ("lib/demo/h.ml", "(* mppm: hot *)\n" ^ body) ] in
  Alcotest.(check (list string)) "allocating call under a hot root is P1"
    [ "P1" ] (prules r);
  let r = analyze [ ("lib/demo/h.ml", body) ] in
  Alcotest.(check (list string)) "annotation removed, no findings" []
    (prules r)

let test_hot_transitive () =
  let r =
    analyze
      [
        ("lib/demo/alloc.ml", "let mk a b = (a, b)\n");
        ("lib/demo/root.ml", "(* mppm: hot *)\nlet run x = Alloc.mk x x\n");
      ]
  in
  Alcotest.(check bool) "callee of a hot root is flagged" true
    (List.exists
       (fun d ->
         d.Diag.rule = "P1"
         && d.Diag.file = "lib/demo/alloc.ml"
         && contains d.Diag.message "hot via Root.run")
       r.Sema.diags)

let test_hot_cold_guard () =
  let src =
    "module Invariant = Mppm_util.Invariant\n\
     (* mppm: hot *)\n\
     let f xs =\n\
    \  if Invariant.enabled () then ignore (List.map (fun x -> x) xs);\n\
    \  Array.length xs\n"
  in
  let r = analyze [ ("lib/demo/h.ml", src) ] in
  Alcotest.(check (list string)) "sanitizer-guarded branch is cold" []
    (prules r);
  let src =
    "(* mppm: hot *)\n\
     let g obs xs =\n\
    \  let observing = Trace.enabled obs in\n\
    \  if observing then ignore (Array.to_list xs);\n\
    \  Array.length xs\n"
  in
  let r = analyze [ ("lib/demo/h.ml", src) ] in
  Alcotest.(check (list string)) "branch on a let-bound guard is cold" []
    (prules r)

let test_hot_loop_region () =
  let outside =
    "(* mppm: hot *)\n\
     let f n =\n\
    \  let scratch = Array.make n 0 in\n\
    \  for i = 0 to n - 1 do scratch.(i) <- i done;\n\
    \  scratch\n"
  in
  let r = analyze [ ("lib/demo/h.ml", outside) ] in
  Alcotest.(check (list string))
    "allocation before the loop of a looping root is fine" [] (prules r);
  let inside =
    "(* mppm: hot *)\n\
     let f n =\n\
    \  let acc = ref [] in\n\
    \  for i = 0 to n - 1 do acc := (i, i) :: !acc done;\n\
    \  !acc\n"
  in
  let r = analyze [ ("lib/demo/h.ml", inside) ] in
  Alcotest.(check bool) "allocation inside the loop is flagged" true
    (List.mem "P1" (prules r));
  (* A local lambda called from the loop condition joins the loop region. *)
  let via_lambda =
    "(* mppm: hot *)\n\
     let f n =\n\
    \  let i = ref 0 in\n\
    \  let stop () = Array.length (Array.make n 0) < !i in\n\
    \  while not (stop ()) do incr i done;\n\
    \  !i\n"
  in
  let r = analyze [ ("lib/demo/h.ml", via_lambda) ] in
  Alcotest.(check (list (pair string int)))
    "a loop-called local lambda's allocation is flagged"
    [ ("P1", 4) ]
    (List.filter_map
       (fun d ->
         if d.Diag.rule.[0] = 'P' then Some (d.Diag.rule, d.Diag.line) else None)
       r.Sema.diags)

let test_cold_marker () =
  let src =
    "(* mppm: hot *)\n\
     let f n =\n\
    \  let acc = ref 0 in\n\
    \  for i = 0 to n - 1 do\n\
    \    (* mppm: cold — diagnostics only *)\n\
    \    if i > n then ignore (string_of_int i ^ \"!\");\n\
    \    acc := !acc + i\n\
    \  done;\n\
    \  !acc\n"
  in
  let r = analyze [ ("lib/demo/h.ml", src) ] in
  Alcotest.(check (list string)) "cold-marked expression is skipped" []
    (prules r)

let test_p2_p3_p4_shapes () =
  let check_rule name src rule =
    let r = analyze [ ("lib/demo/h.ml", src) ] in
    Alcotest.(check bool) name true (List.mem rule (prules r))
  in
  check_rule "polymorphic = on a hot path is P2"
    "(* mppm: hot *)\nlet f a b = a = b\n" "P2";
  check_rule "Hashtbl traffic on a hot path is P3"
    "(* mppm: hot *)\nlet f h k = Hashtbl.find h k\n" "P3";
  check_rule "boxed-float ref accumulation is P4"
    "(* mppm: hot *)\nlet f acc x = acc := !acc +. x\n" "P4";
  let check_clean name src =
    let r = analyze [ ("lib/demo/h.ml", src) ] in
    Alcotest.(check (list string)) name [] (prules r)
  in
  check_clean "a capture-free lambda is not a closure allocation"
    "(* mppm: hot *)\nlet f xs = Array.iter (fun x -> ignore x) xs\n";
  check_rule "a capturing lambda is a closure allocation"
    "(* mppm: hot *)\nlet f k xs = Array.iter (fun x -> ignore (x + k)) xs\n"
    "P1";
  check_clean "matching on a tuple builds no tuple"
    "(* mppm: hot *)\n\
     let f a b = match (a, b) with 0, _ -> 0 | _, 0 -> 1 | _ -> 2\n";
  check_clean "a function that is the binding's body is not a closure"
    "(* mppm: hot *)\nlet f x = function 0 -> x | _ -> 1\n";
  check_rule "a capturing function passed as an argument is a closure"
    "(* mppm: hot *)\n\
     let f k xs = Array.iter (function 0 -> ignore k | _ -> ()) xs\n"
    "P1"

(* The acceptance fixture: the real SDC update is P-clean, and injecting
   a heap allocation under its (* mppm: hot *) root fails the lint. *)
let test_injected_allocation_rejected () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree"
  | Some root ->
      let rel = "lib/cache/sdc.ml" in
      let content = read_file (Filename.concat root rel) in
      let clean = analyze [ (rel, content) ] in
      Alcotest.(check (list string)) "real Sdc is P-clean" [] (prules clean);
      let needle = "let i = if depth > t.assoc then t.assoc else depth - 1 in" in
      let subst = needle ^ "\n  let boxed = (depth, depth) in\n  ignore boxed;" in
      (match replace_once content needle subst with
      | None -> Alcotest.fail "injection site not found in lib/cache/sdc.ml"
      | Some mutated ->
          let r = analyze [ (rel, mutated) ] in
          Alcotest.(check bool) "injected allocation under the hot root fails"
            true
            (List.exists
               (fun d ->
                 d.Diag.rule = "P1"
                 && d.Diag.severity = Diag.Error
                 && contains d.Diag.message "hot")
               r.Sema.diags))

(* Propagation laws over the pure reachability core. *)
let hot_graph_arb =
  let node = QCheck.Gen.map (fun i -> "n" ^ string_of_int i) (QCheck.Gen.int_bound 9) in
  let gen =
    QCheck.Gen.pair
      (QCheck.Gen.list_size (QCheck.Gen.int_bound 3) node)
      (QCheck.Gen.list_size (QCheck.Gen.int_bound 12)
         (QCheck.Gen.pair node (QCheck.Gen.list_size (QCheck.Gen.int_bound 3) node)))
  in
  QCheck.make gen

let subset a b = List.for_all (fun x -> List.mem x b) a

let hot_closure_tests =
  let closure = Mppm_sema.Hotpath.closure in
  [
    QCheck.Test.make ~name:"hot closure is idempotent" ~count:500 hot_graph_arb
      (fun (roots, edges) ->
        let c1 = closure ~roots ~edges in
        closure ~roots:c1 ~edges = c1);
    QCheck.Test.make ~name:"hot closure is monotone in the edges" ~count:500
      (QCheck.pair hot_graph_arb hot_graph_arb)
      (fun ((roots, edges), (_, more)) ->
        subset (closure ~roots ~edges) (closure ~roots ~edges:(edges @ more)));
    QCheck.Test.make
      ~name:"removing a root (annotation) never widens the hot set" ~count:500
      (QCheck.pair hot_graph_arb hot_graph_arb)
      (fun ((roots, edges), (extra, _)) ->
        subset (closure ~roots ~edges)
          (closure ~roots:(roots @ extra) ~edges));
    QCheck.Test.make ~name:"hot closure contains its roots" ~count:500
      hot_graph_arb
      (fun (roots, edges) -> subset roots (closure ~roots ~edges));
  ]

(* Driver-level coverage: unknown rule names are a usage error, and
   --report hot prints the inventory. *)
(* ---- U rules: dimensional analysis ---------------------------------------- *)

let u_rules r =
  List.filter
    (fun d -> String.length d.Diag.rule = 2 && d.Diag.rule.[0] = 'U')
    r.Sema.diags

let test_u1_mixed_arithmetic () =
  let mli =
    "val cyc : float  (* mppm: unit cycles *)\n\
     val ins : float  (* mppm: unit insns *)\n\
     val bad : float\n"
  in
  let ml = "let cyc = 1.0\nlet ins = 2.0\nlet bad = cyc +. ins\n" in
  let r = analyze [ ("lib/demo/u.mli", mli); ("lib/demo/u.ml", ml) ] in
  (match u_rules r with
  | [ d ] ->
      Alcotest.(check string) "rule" "U1" d.Diag.rule;
      Alcotest.(check bool) "message names both units" true
        (contains d.Diag.message "cycles" && contains d.Diag.message "insns")
  | ds -> Alcotest.failf "expected one U1, got %d U findings" (List.length ds));
  (* Same-unit arithmetic and literals stay silent. *)
  let ml_ok = "let cyc = 1.0\nlet ins = 2.0\nlet bad = cyc +. cyc +. 5.0 -. (cyc -. cyc) *. 2.0\n" in
  let r = analyze [ ("lib/demo/u.mli", mli); ("lib/demo/u.ml", ml_ok) ] in
  Alcotest.(check int) "clean module has no U findings" 0
    (List.length (u_rules r))

let test_u2_cumulative_flavor () =
  let mli =
    "val total : float  (* mppm: unit cumulative accesses *)\n\
     val total2 : float  (* mppm: unit cumulative accesses *)\n\
     val charge : window:float -> float  (* mppm: unit window:accesses -> accesses *)\n\
     val delta : float\n\
     val bad : float\n\
     val worse : float\n"
  in
  let ml =
    "let total = 100.0\n\
     let total2 = 160.0\n\
     let charge ~window = window\n\
     let delta = total2 -. total\n\
     let bad = charge ~window:total\n\
     let worse = total +. total2\n"
  in
  let r = analyze [ ("lib/demo/u.mli", mli); ("lib/demo/u.ml", ml) ] in
  let us = u_rules r in
  Alcotest.(check (list string)) "both flavor confusions are U2"
    [ "U2"; "U2" ]
    (List.map (fun d -> d.Diag.rule) us);
  List.iter
    (fun d ->
      Alcotest.(check bool) "message explains the flavor" true
        (contains d.Diag.message "cumulative"))
    us;
  (* The subtraction discharge [total2 -. total] raised nothing: only the
     call-site hand-off and the cumulative addition fired. *)
  Alcotest.(check bool) "discharge line is silent" true
    (List.for_all (fun d -> d.Diag.line <> 4) us)

let test_u3_ratio () =
  let mli =
    "val cpi : float  (* mppm: unit cycles/insns *)\n\
     val ipc : float  (* mppm: unit insns/cycles *)\n\
     val idx : float  (* mppm: unit intervals *)\n\
     val accs : float  (* mppm: unit accesses *)\n\
     val bad : float\n\
     val bad2 : float\n"
  in
  let ml =
    "let cpi = 2.0\nlet ipc = 0.5\nlet idx = 3.0\nlet accs = 9.0\n\
     let bad = cpi +. ipc\n\
     let bad2 = idx +. accs\n"
  in
  let r = analyze [ ("lib/demo/u.mli", mli); ("lib/demo/u.ml", ml) ] in
  (match u_rules r with
  | [ a; b ] ->
      Alcotest.(check (list string)) "both are U3" [ "U3"; "U3" ]
        [ a.Diag.rule; b.Diag.rule ];
      Alcotest.(check bool) "reciprocal ratio named inverted" true
        (contains a.Diag.message "inverted"
        || contains b.Diag.message "inverted");
      Alcotest.(check bool) "interval-as-count named" true
        (contains a.Diag.message "interval index"
        || contains b.Diag.message "interval index")
  | ds -> Alcotest.failf "expected two U3, got %d U findings" (List.length ds))

(* A prefix-sum readout over interval SDCs (running access mass, and a
   window's mass as one subtraction of two cumulative readings), kept as
   an inline fixture: flip its subtraction into an addition and U2 must
   fire on the flipped line. *)
let sdc_readout_mli =
  "type t\n\
   val accesses : t -> float  (* mppm: unit accesses *)\n\
   (** Total accesses. *)\n\
   val prefix_counts : t list -> float array  (* mppm: unit _ -> cumulative accesses *)\n\
   (** Running access mass; element 0 is 0. *)\n\
   val window_accesses :  (* mppm: unit cumulative accesses -> first:intervals -> last:intervals -> accesses *)\n\
   \  float array -> first:int -> last:int -> float\n\
   (** Access mass of intervals [first] to [last - 1]. *)\n"

let sdc_readout_ml =
  "type t = { assoc : int; counters : float array }\n\
   let accesses t = Array.fold_left ( +. ) 0.0 t.counters\n\
   let prefix_counts sdcs =\n\
  \  let n = List.length sdcs in\n\
  \  let prefix = Array.make (n + 1) 0.0 in\n\
  \  List.iteri (fun i sdc -> prefix.(i + 1) <- prefix.(i) +. accesses sdc) sdcs;\n\
  \  prefix\n\
   let window_accesses prefix ~first ~last =\n\
  \  if first < 0 || last < first || last >= Array.length prefix then\n\
  \    invalid_arg \"Sdc.window_accesses: window out of range\";\n\
  \  prefix.(last) -. prefix.(first)\n"

let test_u2_real_sdc_flip () =
  let mli_rel = "lib/cache/sdc.mli" and ml_rel = "lib/cache/sdc.ml" in
  let clean = analyze [ (mli_rel, sdc_readout_mli); (ml_rel, sdc_readout_ml) ] in
  Alcotest.(check int) "pristine readout is unit-clean" 0
    (List.length (u_rules clean));
  let needle = "prefix.(last) -. prefix.(first)" in
  let ml = sdc_readout_ml in
  let idx =
    let n = String.length needle and h = String.length ml in
    let rec go i =
      if i + n > h then Alcotest.fail "needle vanished"
      else if String.sub ml i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let flipped =
    String.sub ml 0 idx
    ^ "prefix.(last) +. prefix.(first)"
    ^ String.sub ml (idx + String.length needle)
        (String.length ml - idx - String.length needle)
  in
  let r = analyze [ (mli_rel, sdc_readout_mli); (ml_rel, flipped) ] in
  match u_rules r with
  | [ d ] ->
      Alcotest.(check string) "flipped subtraction is U2" "U2" d.Diag.rule;
      Alcotest.(check int) "on the flipped line" 11 d.Diag.line;
      Alcotest.(check bool) "message explains composition" true
        (contains d.Diag.message "cumulative")
  | ds ->
      Alcotest.failf "expected exactly one U2, got %d U findings"
        (List.length ds)

let units_lattice_tests =
  let unit_arb =
    let open QCheck in
    let dims_gen =
      Gen.list_size (Gen.int_bound 3)
        (Gen.pair
           (Gen.oneofl [ "cycles"; "insns"; "accesses"; "ways" ])
           (Gen.oneofl [ -2; -1; 1; 2 ]))
    in
    make
      (Gen.frequency
         [
           (1, Gen.return Units.Any);
           (1, Gen.return Units.Opaque);
           ( 4,
             Gen.map2
               (fun dims cum -> Units.known ~cum dims)
               dims_gen Gen.bool );
         ])
  in
  let open Units in
  [
    QCheck.Test.make ~name:"unit join is idempotent" ~count:500 unit_arb
      (fun a -> equal (join a a) a);
    QCheck.Test.make ~name:"unit join is commutative" ~count:500
      (QCheck.pair unit_arb unit_arb) (fun (a, b) ->
        equal (join a b) (join b a));
    QCheck.Test.make ~name:"unit join is associative" ~count:500
      (QCheck.triple unit_arb unit_arb unit_arb) (fun (a, b, c) ->
        equal (join a (join b c)) (join (join a b) c));
    QCheck.Test.make ~name:"Any is the join identity" ~count:500 unit_arb
      (fun a -> equal (join a Any) a && equal (join Any a) a);
    QCheck.Test.make ~name:"Opaque absorbs joins" ~count:500 unit_arb
      (fun a -> equal (join a Opaque) Opaque && equal (join Opaque a) Opaque);
    QCheck.Test.make ~name:"unit mul is commutative" ~count:500
      (QCheck.pair unit_arb unit_arb) (fun (a, b) ->
        equal (mul a b) (mul b a));
    QCheck.Test.make ~name:"unit mul is associative" ~count:500
      (QCheck.triple unit_arb unit_arb unit_arb) (fun (a, b, c) ->
        equal (mul a (mul b c)) (mul (mul a b) c));
    QCheck.Test.make ~name:"div cancels mul on plain units" ~count:500
      (QCheck.pair unit_arb unit_arb) (fun (a, b) ->
        match (a, b) with
        | Known { cum = false; _ }, Known { cum = false; _ } ->
            equal (div (mul a b) b) a
        | _ -> true);
    QCheck.Test.make ~name:"parse inverts to_string" ~count:500 unit_arb
      (fun a -> equal (parse (to_string a)) a);
    QCheck.Test.make ~name:"ratio<a,b> parses as a/b" ~count:500
      (QCheck.pair unit_arb unit_arb) (fun (a, b) ->
        match (a, b) with
        | Known _, Known _ ->
            equal
              (parse
                 (Printf.sprintf "ratio<%s,%s>" (to_string a) (to_string b)))
              (div a b)
        | _ -> true);
  ]

let test_driver_unknown_rule_and_report () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree"
  | Some root ->
      let exe = Filename.concat root "tools/lint/lint.exe" in
      if not (Sys.file_exists exe) then
        (* Source checkouts don't carry the binary; the in-process
           coverage above exercises the same paths. *)
        ()
      else begin
        let out = Filename.temp_file "mppm_lint_out" ".txt" in
        let run args =
          Sys.command
            (Printf.sprintf "%s --root %s %s > %s 2>&1" (Filename.quote exe)
               (Filename.quote root) args (Filename.quote out))
        in
        let rc = run "--verbose" in
        Alcotest.(check int) "clean tree exits 0" 0 rc;
        Alcotest.(check bool) "every file parses" true
          (contains (read_file out) "fallbacks=0");
        let rc = run "--rules P1,BOGUS" in
        Alcotest.(check int) "unknown rule exits 2" 2 rc;
        Alcotest.(check bool) "message names the rule" true
          (contains (read_file out) "lint: unknown rule BOGUS");
        let rc = run "--rules NOPE" in
        Alcotest.(check int) "unknown --rules entry exits 2" 2 rc;
        Alcotest.(check bool) "known-rule listing is alphabetized" true
          (contains (read_file out) "U1 U2 U3)");
        (* Retired flags stay retired: each is a usage error. *)
        List.iter
          (fun args ->
            Alcotest.(check int) (args ^ " exits 2") 2 (run args))
          [ "--fix"; "--only D1"; "--format sarif" ];
        let rc = run "--rules U1,U1" in
        Alcotest.(check int) "duplicate --rules entries dedup" 0 rc;
        let rc = run "--report hot" in
        Alcotest.(check int) "--report hot exits 0" 0 rc;
        Alcotest.(check bool) "inventory header printed" true
          (contains (read_file out) "hot-path inventory:");
        let rc = run "--report units" in
        Alcotest.(check int) "--report units exits 0" 0 rc;
        Alcotest.(check bool) "coverage header printed" true
          (contains (read_file out) "unit coverage:");
        Alcotest.(check bool) "hot paths carry no opaque unit" true
          (contains (read_file out) "none with an opaque unit");
        Sys.remove out
      end

(* ---- Whole-tree assertions (AST layer) ------------------------------------- *)

let test_tree_sema_clean () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree"
  | Some root ->
      let report = Sema.analyze_tree ~root () in
      let render ds = String.concat "\n" (List.map Diag.to_text ds) in
      Alcotest.(check string) "no AST-layer findings" ""
        (render report.Sema.diags);
      Alcotest.(check int) "every file parses (no fallbacks)" 0
        report.Sema.fallbacks;
      Alcotest.(check bool) "effect summaries cover the tree" true
        (List.length report.Sema.summaries > 100)

let tests =
  [
    ( "sema.tree",
      [
        Alcotest.test_case "repository is sema-clean" `Quick
          test_tree_sema_clean;
        Alcotest.test_case "S2 catches collapsed generator streams" `Quick
          test_s2_real_generator_separation;
        Alcotest.test_case "S6 catches an injected impure task" `Quick
          test_s6_real_experiments_injection;
        Alcotest.test_case "U2 catches a flipped SDC readout" `Quick
          test_u2_real_sdc_flip;
      ] );
    ( "sema.rules",
      [
        Alcotest.test_case "S1 direct I/O" `Quick test_s1_direct_io;
        Alcotest.test_case "S1 transitive" `Quick test_s1_transitive;
        Alcotest.test_case "S1 allowlist" `Quick test_s1_allowlist;
        Alcotest.test_case "S2 helper fixpoint" `Quick test_s2_helper_fixpoint;
        Alcotest.test_case "S2 constant seed" `Quick test_s2_constant_seed;
        Alcotest.test_case "S3 float accumulation" `Quick test_s3;
        Alcotest.test_case "S4 dead exports" `Quick test_s4;
        Alcotest.test_case "S5 direct concurrency" `Quick test_s5_direct;
        Alcotest.test_case "S5 transitive" `Quick test_s5_transitive;
        Alcotest.test_case "S5 allow absorbs taint" `Quick
          test_s5_allow_absorbs;
        Alcotest.test_case "S6 captured ref" `Quick test_s6_captured_ref;
        Alcotest.test_case "S6 pure tasks clean" `Quick
          test_s6_pure_tasks_clean;
        Alcotest.test_case "S6 tainted task path" `Quick
          test_s6_tainted_task_path;
        Alcotest.test_case "S6 partial application race" `Quick
          test_s6_partial_application_race;
        Alcotest.test_case "S6 sanctioned memo" `Quick
          test_s6_sanctioned_memo_clean;
        Alcotest.test_case "S7 toplevel state" `Quick test_s7_toplevel_state;
        Alcotest.test_case "S7 handed to mutator" `Quick
          test_s7_handed_to_mutator;
        Alcotest.test_case "S8 lock order" `Quick test_s8_lock_order;
        Alcotest.test_case "purity suppression" `Quick test_purity_suppression;
        Alcotest.test_case "shared suppression" `Quick test_suppression;
        Alcotest.test_case "fallback is flagged" `Quick test_fallback_is_flagged;
      ] );
    ( "sema.hotpath",
      [
        Alcotest.test_case "P1 hot root" `Quick test_hot_root_flagged;
        Alcotest.test_case "hotness is transitive" `Quick test_hot_transitive;
        Alcotest.test_case "cold guard excluded" `Quick test_hot_cold_guard;
        Alcotest.test_case "loop region only" `Quick test_hot_loop_region;
        Alcotest.test_case "mppm: cold marker" `Quick test_cold_marker;
        Alcotest.test_case "P2/P3/P4 shapes" `Quick test_p2_p3_p4_shapes;
        Alcotest.test_case "injected allocation rejected" `Quick
          test_injected_allocation_rejected;
        Alcotest.test_case "driver: unknown rule, --report hot" `Quick
          test_driver_unknown_rule_and_report;
      ] );
    ( "sema.units",
      [
        Alcotest.test_case "U1 mixed arithmetic" `Quick
          test_u1_mixed_arithmetic;
        Alcotest.test_case "U2 cumulative flavor" `Quick
          test_u2_cumulative_flavor;
        Alcotest.test_case "U3 ratio soundness" `Quick test_u3_ratio;
      ] );
    ( "sema.properties",
      List.map QCheck_alcotest.to_alcotest
        (qcheck_tests @ lattice_tests @ hot_closure_tests
        @ units_lattice_tests) );
  ]
