(* Tests for mppm_simcore: the core timing model, the engine, single-core
   simulation and profiling — including the key cross-validation that the
   counter-based memory CPI equals the two-run (perfect-vs-real LLC)
   method. *)

module Hierarchy = Mppm_cache.Hierarchy
module Geometry = Mppm_cache.Geometry
module Configs = Mppm_cache.Configs
module Core_model = Mppm_simcore.Core_model
module Core_engine = Mppm_simcore.Core_engine
module Single_core = Mppm_simcore.Single_core
module Generator = Mppm_trace.Generator
module Benchmark = Mppm_trace.Benchmark
module Suite = Mppm_trace.Suite
module Profile = Mppm_profile.Profile

let check_close eps = Alcotest.(check (float eps))

let baseline = Configs.baseline ()

(* ---- Core_model --------------------------------------------------------- *)

let test_stall_l1_free () =
  check_close 1e-9 "L1 hits are free" 0.0
    (Core_model.data_stall Core_model.default ~mlp:1.0 ~latency:1 Hierarchy.L1)

let test_stall_levels () =
  let p = Core_model.default in
  check_close 1e-9 "L2" (p.Core_model.l2_exposure *. 9.0)
    (Core_model.data_stall p ~mlp:1.0 ~latency:10 Hierarchy.L2);
  check_close 1e-9 "LLC" (p.Core_model.llc_exposure *. 15.0)
    (Core_model.data_stall p ~mlp:1.0 ~latency:16 Hierarchy.Llc);
  check_close 1e-9 "memory" (p.Core_model.memory_exposure *. 215.0)
    (Core_model.data_stall p ~mlp:1.0 ~latency:216 Hierarchy.Memory)

let test_stall_mlp_divides_offcore () =
  let p = Core_model.default in
  let at mlp = Core_model.data_stall p ~mlp ~latency:216 Hierarchy.Memory in
  check_close 1e-9 "mlp halves stall" (at 1.0 /. 2.0) (at 2.0);
  (* ...but not L2 stalls, which are not off-core. *)
  let l2 mlp = Core_model.data_stall p ~mlp ~latency:10 Hierarchy.L2 in
  check_close 1e-9 "L2 unaffected by mlp" (l2 1.0) (l2 4.0)

let test_llc_miss_extra_is_difference () =
  let p = Core_model.default in
  let mlp = 1.7 in
  let memory_stall = Core_model.data_stall p ~mlp ~latency:216 Hierarchy.Memory in
  let llc_hit_stall = Core_model.data_stall p ~mlp ~latency:16 Hierarchy.Llc in
  check_close 1e-9 "extra = memory - hit"
    (memory_stall -. llc_hit_stall)
    (Core_model.llc_miss_extra_stall p ~config:baseline ~mlp)

let test_fetch_stall () =
  let p = Core_model.default in
  check_close 1e-9 "fetch L1 free" 0.0
    (Core_model.fetch_stall p ~latency:1 Hierarchy.L1);
  check_close 1e-9 "fetch memory"
    (p.Core_model.fetch_exposure *. 215.0)
    (Core_model.fetch_stall p ~latency:216 Hierarchy.Memory);
  check_close 1e-9 "fetch extra"
    (p.Core_model.fetch_exposure *. 200.0)
    (Core_model.fetch_llc_miss_extra_stall p ~config:baseline)

(* ---- Single_core ---------------------------------------------------------- *)

let bench name = Suite.find name
let seed name = Suite.seed_for name

let test_run_totals_consistent () =
  let cfg = Single_core.config baseline in
  let t = Single_core.run cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~instructions:100_000 in
  Alcotest.(check int) "instructions" 100_000 t.Single_core.instructions;
  check_close 1e-9 "cpi" (t.Single_core.cycles /. 100_000.0) t.Single_core.cpi;
  check_close 1e-9 "memory cpi"
    (t.Single_core.memory_stall_cycles /. 100_000.0)
    t.Single_core.memory_cpi;
  Alcotest.(check bool) "cycles at least base work" true
    (t.Single_core.cycles > 0.3 *. 100_000.0);
  Alcotest.(check bool) "misses <= accesses" true
    (t.Single_core.llc_misses <= t.Single_core.llc_accesses)

let test_run_deterministic () =
  let cfg = Single_core.config baseline in
  let go () = Single_core.run cfg ~benchmark:(bench "astar") ~seed:7 ~instructions:50_000 in
  Alcotest.(check bool) "identical totals" true (go () = go ())

let test_perfect_llc_no_misses () =
  let cfg = Single_core.config ~perfect_llc:true baseline in
  let t = Single_core.run cfg ~benchmark:(bench "mcf") ~seed:(seed "mcf")
      ~instructions:100_000 in
  Alcotest.(check int) "no LLC misses" 0 t.Single_core.llc_misses;
  check_close 1e-9 "no memory CPI" 0.0 t.Single_core.memory_cpi

let test_perfect_llc_is_faster () =
  let real = Single_core.run (Single_core.config baseline)
      ~benchmark:(bench "mcf") ~seed:(seed "mcf") ~instructions:100_000 in
  let perfect = Single_core.run (Single_core.config ~perfect_llc:true baseline)
      ~benchmark:(bench "mcf") ~seed:(seed "mcf") ~instructions:100_000 in
  Alcotest.(check bool) "perfect LLC strictly faster on mcf" true
    (perfect.Single_core.cycles < real.Single_core.cycles)

let test_memory_cpi_methods_agree () =
  (* The Eyerman-style counter and the paper's two-run method must agree:
     the streams are deterministic and only LLC-miss stalls differ. *)
  let cfg = Single_core.config baseline in
  List.iter
    (fun name ->
      let counter =
        (Single_core.run cfg ~benchmark:(bench name) ~seed:(seed name)
           ~instructions:200_000)
          .Single_core.memory_cpi
      in
      let two_run =
        Single_core.memory_cpi_two_run cfg ~benchmark:(bench name)
          ~seed:(seed name) ~instructions:200_000
      in
      check_close 1e-6 (name ^ ": methods agree") two_run counter)
    [ "mcf"; "hmmer"; "gamess"; "lbm" ]

let test_profile_shape () =
  let cfg = Single_core.config baseline in
  let p = Single_core.profile cfg ~benchmark:(bench "gamess") ~seed:(seed "gamess")
      ~trace_instructions:100_000 ~interval_instructions:10_000 in
  Alcotest.(check int) "intervals" 10 (Array.length p.Profile.intervals);
  Alcotest.(check int) "total instructions" 100_000 (Profile.total_instructions p);
  Array.iter
    (fun iv ->
      Alcotest.(check int) "interval length" 10_000 iv.Profile.instructions;
      Alcotest.(check bool) "cycles positive" true (iv.Profile.cycles > 0.0);
      check_close 1e-6 "SDC accesses = llc accesses" iv.Profile.llc_accesses
        (Mppm_cache.Sdc.accesses iv.Profile.sdc);
      check_close 1e-6 "SDC misses = llc misses" iv.Profile.llc_misses
        (Mppm_cache.Sdc.misses iv.Profile.sdc))
    p.Profile.intervals

let test_profile_matches_run () =
  (* Profiling must not perturb the simulation: totals equal a plain run. *)
  let cfg = Single_core.config baseline in
  let p = Single_core.profile cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~trace_instructions:100_000 ~interval_instructions:10_000 in
  let t = Single_core.run cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~instructions:100_000 in
  check_close 1e-6 "same cycles" t.Single_core.cycles (Profile.total_cycles p);
  check_close 1e-9 "same cpi" t.Single_core.cpi (Profile.cpi p);
  check_close 1e-6 "same memory cpi" t.Single_core.memory_cpi (Profile.memory_cpi p)

let test_profile_validations () =
  let cfg = Single_core.config baseline in
  Alcotest.(check bool) "non-divisible raises" true
    (try
       ignore
         (Single_core.profile cfg ~benchmark:(bench "mcf") ~seed:1
            ~trace_instructions:100_000 ~interval_instructions:30_000);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "perfect-LLC profile raises" true
    (try
       ignore
         (Single_core.profile
            (Single_core.config ~perfect_llc:true baseline)
            ~benchmark:(bench "mcf") ~seed:1 ~trace_instructions:100_000
            ~interval_instructions:10_000);
       false
     with Invalid_argument _ -> true)

let test_compute_bound_has_low_memory_cpi () =
  (* Long enough runs that cold misses do not dominate. *)
  let cfg = Single_core.config baseline in
  let t = Single_core.run cfg ~benchmark:(bench "hmmer") ~seed:(seed "hmmer")
      ~instructions:1_000_000 in
  Alcotest.(check bool) "hmmer memory CPI small" true
    (t.Single_core.memory_cpi < 0.2 *. t.Single_core.cpi);
  let m = Single_core.run cfg ~benchmark:(bench "mcf") ~seed:(seed "mcf")
      ~instructions:200_000 in
  Alcotest.(check bool) "mcf memory CPI dominates" true
    (m.Single_core.memory_cpi > 0.5 *. m.Single_core.cpi)

let test_llc_size_monotonicity () =
  (* A bigger LLC must help a program whose working set exceeds 512KB but
     fits in 2MB: soplex's 880KB matrix. *)
  let run llc =
    (Single_core.run
       (Single_core.config (Configs.baseline ~llc ()))
       ~benchmark:(bench "soplex") ~seed:(seed "soplex")
       ~instructions:1_000_000)
      .Single_core.cycles
  in
  let small = run 1 and big = run 5 in
  Alcotest.(check bool) "2MB LLC beats 512KB for soplex" true
    (big < 0.95 *. small)

(* ---- Core_engine snapshots -------------------------------------------------- *)

let test_engine_snapshot_delta () =
  let generator = Generator.create ~seed:3 (bench "soplex") in
  let hierarchy = Hierarchy.create baseline in
  let engine =
    Core_engine.create ~params:Core_model.default ~hierarchy ~generator ()
  in
  let consume n =
    let remaining = ref n in
    while !remaining > 0 do
      remaining := !remaining - Core_engine.step engine ~cap:!remaining
    done
  in
  consume 10_000;
  let snap = Core_engine.snapshot engine in
  consume 5_000;
  let delta = Core_engine.since engine snap in
  Alcotest.(check int) "delta retired" 5_000 delta.Core_engine.s_retired;
  Alcotest.(check bool) "delta cycles positive" true (delta.Core_engine.s_cycles > 0.0);
  Alcotest.(check int) "retired total" 15_000 (Core_engine.retired engine)

(* ---- Allocation-free hot path --------------------------------------------- *)

(* Minor words [f ()] allocates on this domain, net of what the
   measurement itself costs.  The sanitizer is forced off: its reports
   allocate by design. *)
let minor_words_of f =
  let sanitizing = Mppm_util.Invariant.enabled () in
  Mppm_util.Invariant.set_enabled false;
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let v0 = Gc.minor_words () in
  let v1 = Gc.minor_words () in
  Mppm_util.Invariant.set_enabled sanitizing;
  w1 -. w0 -. (v1 -. v0)

let engine ?sdc_profiler name =
  let cfg = Single_core.config baseline in
  Core_engine.create ?sdc_profiler ~params:cfg.Single_core.core
    ~hierarchy:(Hierarchy.create baseline)
    ~generator:(Generator.create ~seed:(seed name) (bench name))
    ()

let steps engine n =
  for _ = 1 to n do
    ignore (Core_engine.step engine ~cap:(1 lsl 20))
  done

let test_step_allocates_nothing () =
  List.iter
    (fun (label, e) ->
      steps e 10_000;
      let words = minor_words_of (fun () -> steps e 100_000) in
      Alcotest.(check (float 0.0)) (label ^ ": words over 100k steps") 0.0 words)
    [
      ("mcf", engine "mcf");
      ("soplex", engine "soplex");
      ("gamess", engine "gamess");
      ( "lbm, profiled",
        engine "lbm"
          ~sdc_profiler:
            (Mppm_cache.Sdc_profiler.create
               ~assoc:
                 baseline.Hierarchy.llc.Hierarchy.geometry.Geometry.associativity)
      );
    ]

(* ---- Totality ---------------------------------------------------------------- *)

let raises_invalid_prefixed prefix f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument %s..." prefix
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S starts with %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)

(* Every stall the engine charges from [stall_costs] is bit-identical to
   the function it stands for; the miss extra is checked against the
   formula it had before it was hoisted. *)
let test_stall_costs_bit_identical =
  let bits = Int64.bits_of_float in
  let same a b = Int64.equal (bits a) (bits b) in
  QCheck.Test.make ~name:"stall_costs = per-access stalls, bit for bit"
    ~count:300
    QCheck.(
      triple (int_range 1 6) (float_range 1.0 16.0)
        (triple (float_range 0.0 1.0) (float_range 0.0 1.0)
           (float_range 0.0 1.0)))
    (fun (llc, mlp, (l2_exposure, llc_exposure, memory_exposure)) ->
      let config = Configs.baseline ~llc () in
      let p =
        {
          Core_model.default with
          Core_model.l2_exposure;
          llc_exposure;
          memory_exposure;
        }
      in
      let c = Core_model.stall_costs p ~config in
      let latency level = Hierarchy.latency config ~kind:Hierarchy.Load level in
      let data level = Core_model.data_stall p ~mlp ~latency:(latency level) level in
      let fetch level = Core_model.fetch_stall p ~latency:(latency level) level in
      let llc_latency = config.Hierarchy.llc.Hierarchy.latency in
      let miss_latency = llc_latency + config.Hierarchy.memory_latency in
      same c.Core_model.data_l2 (data Hierarchy.L2)
      && same (c.Core_model.data_llc_mlp /. mlp) (data Hierarchy.Llc)
      && same (c.Core_model.data_memory_mlp /. mlp) (data Hierarchy.Memory)
      && same
           ((c.Core_model.miss_memory_mlp /. mlp) -. (c.Core_model.miss_llc_mlp /. mlp))
           ((memory_exposure *. float_of_int (miss_latency - 1) /. mlp)
           -. (llc_exposure *. float_of_int (llc_latency - 1) /. mlp))
      && same c.Core_model.fetch_l2 (fetch Hierarchy.L2)
      && same c.Core_model.fetch_llc (fetch Hierarchy.Llc)
      && same c.Core_model.fetch_memory (fetch Hierarchy.Memory)
      && same c.Core_model.fetch_miss_extra
           (Core_model.fetch_llc_miss_extra_stall p ~config))

let test_non_finite_scales_rejected () =
  List.iter
    (fun bad ->
      raises_invalid_prefixed "Core_engine.create:" (fun () ->
          let cfg = Single_core.config baseline in
          Core_engine.create ~compute_scale:bad ~params:cfg.Single_core.core
            ~hierarchy:(Hierarchy.create baseline)
            ~generator:(Generator.create ~seed:1 (bench "mcf"))
            ());
      raises_invalid_prefixed "Memory_channel.create:" (fun () ->
          Mppm_simcore.Memory_channel.create ~transfer_cycles:bad))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0 ]

let tests =
  [
    ( "simcore.core_model",
      [
        Alcotest.test_case "L1 hits stall nothing" `Quick test_stall_l1_free;
        Alcotest.test_case "per-level stalls" `Quick test_stall_levels;
        Alcotest.test_case "mlp divides off-core stalls" `Quick test_stall_mlp_divides_offcore;
        Alcotest.test_case "miss extra = stall difference" `Quick test_llc_miss_extra_is_difference;
        Alcotest.test_case "fetch stalls" `Quick test_fetch_stall;
        QCheck_alcotest.to_alcotest test_stall_costs_bit_identical;
      ] );
    ( "simcore.single_core",
      [
        Alcotest.test_case "totals consistent" `Quick test_run_totals_consistent;
        Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        Alcotest.test_case "perfect LLC: no misses" `Quick test_perfect_llc_no_misses;
        Alcotest.test_case "perfect LLC is faster" `Quick test_perfect_llc_is_faster;
        Alcotest.test_case "memory CPI: counter = two-run" `Quick test_memory_cpi_methods_agree;
        Alcotest.test_case "profile shape" `Quick test_profile_shape;
        Alcotest.test_case "profile matches run" `Quick test_profile_matches_run;
        Alcotest.test_case "profile validations" `Quick test_profile_validations;
        Alcotest.test_case "compute vs memory bound" `Quick test_compute_bound_has_low_memory_cpi;
        Alcotest.test_case "LLC size monotonicity" `Quick test_llc_size_monotonicity;
      ] );
    ( "simcore.engine",
      [
        Alcotest.test_case "snapshot deltas" `Quick test_engine_snapshot_delta;
        Alcotest.test_case "step allocates nothing" `Quick
          test_step_allocates_nothing;
        Alcotest.test_case "non-finite scales rejected" `Quick
          test_non_finite_scales_rejected;
      ] );
  ]
