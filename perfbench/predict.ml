(* The `predict` workload: design-space exploration with the model.

   Set-up builds the 29 profiles of LLC config #1 cold with
   [Single_core.profile], saves them with [Profile.save] where
   [Context.cache_path] puts them in a fresh directory, and loads them
   back through [Context.profile] (i.e. [Profile.load]); a loaded
   profile must equal the one built.  The timed phase runs
   [Context.predict] in process, on the main domain, over a seeded
   population of mixes of 2, 4, 8 and 16 programs in equal numbers.
   One op is one mix. *)

open Common
module Profile = Mppm_profile.Profile

let core_counts = [| 2; 4; 8; 16 |]

(* About 220 groups of the four mix sizes per second on a 2-core x86 box. *)
let groups_per_second = 220.0

let population ~seed ~count =
  let rng = Rng.create ~seed in
  Array.init count (fun i ->
      random_mix rng ~cores:core_counts.(i mod Array.length core_counts))

let mixes_for ~seconds =
  Array.length core_counts
  * max 1 (Float.to_int (seconds *. groups_per_second))

(* The canary: the first mixes of the default seed's population. *)
let canary_count = 256

(* Builds, saves and reloads the suite's profiles, checking that every
   reloaded profile equals its build; returns the context holding
   them. *)
let setup ~report ~spans =
  let dir = fresh_dir "profiles" in
  let ctx = Context.create ~seed:context_seed ~cache_dir:dir scale in
  let built =
    Array.init Suite.count (fun i ->
        let p = Ledger.build_profile spans ctx i in
        (match Context.cache_path ctx ~llc_config i with
        | Some path -> Ledger.save_span spans p path
        | None -> ());
        p)
  in
  let same =
    Array.for_all Fun.id
      (Array.mapi
         (fun i p ->
           let loaded =
             Spans.span spans "profile.load" (fun () ->
                 Context.profile ctx ~llc_config i)
           in
           loaded = p)
         built)
  in
  Report.check report same;
  ctx

type outcome = { texts : Measure.Digest_acc.t; dts : float array; words : float }

let run_phase ctx ~spans mixes =
  let texts = Measure.Digest_acc.create () in
  let dts = Array.make (Array.length mixes) 0.0 in
  let words = ref 0.0 in
  (* The whole phase is one counted region too, so that other domains'
     allocations too small to show per mix still show. *)
  let (), _, _ =
    Measure.timed @@ fun () ->
    Array.iteri
      (fun i mix ->
        let r, dt, w =
          Measure.timed (fun () ->
              match spans with
              | None -> Context.predict ctx ~llc_config mix
              | Some spans -> Ledger.model_span spans ctx mix)
        in
        dts.(i) <- dt;
        words := !words +. w;
        Measure.Digest_acc.add texts
          (Format.asprintf "%a" Dispatch.pp_predicted r))
      mixes
  in
  { texts; dts; words = !words }

let setup_reps = 3

let run ~report ~spans ~seed ~seconds ~mppmd =
  let traced = Spans.enabled spans in
  let runs =
    Array.init
      (if traced then 1 else setup_reps)
      (fun _ -> Measure.timed (fun () -> setup ~report ~spans))
  in
  let ctx, _, _ = runs.(Array.length runs - 1) in
  Report.set report "setup_s"
    (Measure.median (Array.map (fun (_, dt, _) -> dt) runs));
  let mixes = population ~seed ~count:(mixes_for ~seconds) in
  let o = run_phase ctx ~spans:None mixes in
  let n = float_of_int (Array.length mixes) in
  let elapsed = Measure.sum o.dts in
  Report.set report "throughput" (n /. elapsed);
  let ms = Array.map (fun dt -> dt *. 1000.0) o.dts in
  Report.set report "latency_ms_p50" (Measure.quantile ms 0.5);
  Report.set report "latency_ms_p99" (Measure.quantile ms 0.99);
  Report.set report "words_per_op" (o.words /. n);
  Printf.printf "predict: %d mixes (2/4/8/16 programs) in %.2f s\n"
    (Array.length mixes) elapsed;
  let hex = Measure.Digest_acc.hex o.texts in
  let key = Printf.sprintf "predict.seed%d.s%g" seed seconds in
  check_digest report ~required:false key hex;
  let canary =
    run_phase ctx ~spans:None (population ~seed:default_seed ~count:canary_count)
  in
  check_digest report ~required:true "predict.canary"
    (Measure.Digest_acc.hex canary.texts);
  if traced then begin
    let t = run_phase ctx ~spans:(Some spans) mixes in
    Report.check report (String.equal (Measure.Digest_acc.hex t.texts) hex);
    Report.set report "trace.untraced_s" elapsed;
    Report.set report "trace.traced_s" (Measure.sum t.dts);
    Ledger.complete ~spans ~report ~ctx ~mppmd ~seed
      (Array.to_list (Array.sub mixes 0 8))
  end;
  Report.set report "peak_rss_mb" (Measure.peak_rss_mb ())
