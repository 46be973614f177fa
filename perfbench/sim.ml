(* The `sim` workload: the validation path.

   A seeded population of 4- and 8-program mixes on LLC config #1 with
   2M-instruction traces.  Each mix goes through [Context.detailed] (the
   detailed multi-core simulator) and [Context.predict], sequentially on
   the main domain.  Simulated caches start empty for every mix, as
   [Multi_core.run] defines them.  Profiles are the one-time cost a user
   of `mppm compare` has already paid: they come from a profile cache
   kept under .bench_build (built on the first run of a checkout, outside
   any measurement), and set-up is loading them.

   One op is a million retired simulated instructions, restarts
   included; the latency percentiles are host milliseconds per op,
   taken per mix. *)

open Common

(* Each round is one seeded permutation of the suite cut into mixes of
   these sizes (28 of the 29 benchmarks), so every run simulates nearly
   the whole suite once whatever the seed. *)
let round_sizes = [ 8; 4; 8; 4; 4 ]

(* A round takes about 15 s on a 2-core x86 box. *)
let round_seconds = 15.0

let population ~seed ~seconds =
  let rng = Rng.create ~seed in
  let rounds = max 1 (Float.to_int (Float.round (seconds /. round_seconds))) in
  List.concat
    (List.init rounds (fun _ ->
         let perm = Array.init Suite.count Fun.id in
         Rng.shuffle_in_place rng perm;
         let _, mixes =
           List.fold_left
             (fun (start, acc) k ->
               (start + k, mix_of_indices (Array.sub perm start k) :: acc))
             (0, []) round_sizes
         in
         List.rev mixes))

let canary = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |]

let profile_cache = Filename.concat root_dir "profiles"

type mix_result = {
  text : string;  (* Dispatch.pp_comparison rendering *)
  retired : int;
  dt : float;
  words : float;
  stp_err : float;
  antt_err : float;
  useful : int;  (* first-pass instructions *)
  core_cycles : float;  (* simulated cycles summed over the cores *)
}

let compare_mix ~detailed ~predict mix =
  let (p, m), dt, words =
    Measure.timed (fun () ->
        let m = detailed mix in
        let p = predict mix in
        (p, m))
  in
  let err a b = 100.0 *. Float.abs (a -. b) /. b in
  {
    text = Format.asprintf "%a" Dispatch.pp_comparison (p, m);
    retired = Ledger.total_retired m;
    dt;
    words;
    stp_err = err p.Model.stp m.Context.m_stp;
    antt_err = err p.Model.antt m.Context.m_antt;
    useful = Mix.size mix * scale.Scale.trace_instructions;
    core_cycles =
      float_of_int (Mix.size mix)
      *. m.Context.m_detail.Mppm_multicore.Multi_core.wall_cycles;
  }

let run_phase ?(between = ignore) ctx ~spans mixes =
  let detailed, predict =
    match spans with
    | None ->
        ( (fun mix -> Context.detailed ctx ~llc_config mix),
          fun mix -> Context.predict ctx ~llc_config mix )
    | Some spans ->
        (Ledger.detailed_span spans ctx, Ledger.model_span spans ctx)
  in
  (* The whole phase is one counted region too, so that other domains'
     allocations too small to show per mix still show. *)
  let results, _, _ =
    Measure.timed @@ fun () ->
    List.map
      (fun mix ->
        let r = compare_mix ~detailed ~predict mix in
        between ();
        r)
      mixes
  in
  results

let digest results =
  let d = Measure.Digest_acc.create () in
  List.iter (fun r -> Measure.Digest_acc.add d r.text) results;
  Measure.Digest_acc.hex d

(* Set-up is sampled once before the mixes and [setup_reps_between]
   times after each: a set-up takes milliseconds and the host's speed
   drifts over seconds, so samples spread over the run give a steadier
   median than consecutive ones. *)
let setup_reps_between = 5

let run ~report ~spans ~seed ~seconds ~mppmd =
  let traced = Spans.enabled spans in
  (* The profile cache is filled once per checkout, unmeasured. *)
  mkdir_p profile_cache;
  ignore
    (Context.all_profiles
       (Context.create ~seed:context_seed ~cache_dir:profile_cache scale)
       ~llc_config);
  let setup () =
    let ctx = Context.create ~seed:context_seed ~cache_dir:profile_cache scale in
    ignore (Context.all_profiles ctx ~llc_config);
    ctx
  in
  let samples = ref [] in
  let timed_setup () =
    let ctx, dt, _ = Measure.timed setup in
    samples := dt :: !samples;
    ctx
  in
  let ctx = timed_setup () in
  let between () =
    if not traced then
      for _ = 1 to setup_reps_between do
        ignore (timed_setup ())
      done
  in
  let mixes = population ~seed ~seconds in
  let results = run_phase ~between ctx ~spans:None mixes in
  Report.set report "setup_s" (Measure.median (Array.of_list !samples));
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let minsn = sum (fun r -> float_of_int r.retired) /. 1e6 in
  let elapsed = sum (fun r -> r.dt) in
  let per_op =
    Array.of_list
      (List.map (fun r -> r.dt *. 1000.0 /. (float_of_int r.retired /. 1e6)) results)
  in
  Report.set report "throughput" (minsn /. elapsed);
  Report.set report "latency_ms_p50" (Measure.quantile per_op 0.5);
  Report.set report "latency_ms_p99" (Measure.quantile per_op 0.99);
  Report.set report "words_per_op" (sum (fun r -> r.words) /. minsn);
  let n = float_of_int (List.length results) in
  Report.set report "accuracy.stp_err_pct" (sum (fun r -> r.stp_err) /. n);
  Report.set report "accuracy.antt_err_pct" (sum (fun r -> r.antt_err) /. n);
  Report.set report "multi_core.useful_ratio"
    (sum (fun r -> float_of_int r.useful) /. sum (fun r -> float_of_int r.retired));
  List.iter2
    (fun mix r ->
      Printf.printf "  %-60s %6.2f s %6.1f Minsn %8.1f Mcycles\n"
        (Mix.to_string mix) r.dt
        (float_of_int r.retired /. 1e6)
        (r.core_cycles /. 1e6))
    mixes results;
  Printf.printf "sim: %d mixes (%s), %.1f M retired instructions in %.2f s\n"
    (List.length mixes)
    (String.concat " " (List.map (fun m -> string_of_int (Mix.size m)) mixes))
    minsn elapsed;
  let hex = digest results in
  let key = Printf.sprintf "sim.seed%d.s%g" seed seconds in
  check_digest report ~required:false key hex;
  (* The canary: the canonical mix, checked on every run. *)
  let c = compare_mix
      ~detailed:(fun mix -> Context.detailed ctx ~llc_config mix)
      ~predict:(fun mix -> Context.predict ctx ~llc_config mix)
      canary in
  check_digest report ~required:true "sim.canary" (digest [ c ]);
  if traced then begin
    let traced_results = run_phase ctx ~spans:(Some spans) mixes in
    Report.check report (String.equal (digest traced_results) hex);
    Report.set report "trace.untraced_s" elapsed;
    Report.set report "trace.traced_s"
      (List.fold_left (fun acc r -> acc +. r.dt) 0.0 traced_results);
    let acc, miss = Ledger.replay_programs spans ctx ~max_programs:max_int mixes in
    Report.set report "hierarchy.llc_miss_ratio"
      (float_of_int miss /. float_of_int acc);
    Ledger.complete ~spans ~report ~ctx ~mppmd ~seed mixes
  end;
  Report.set report "peak_rss_mb" (Measure.peak_rss_mb ())
