(* The per-layer ledger of a traced run.

   Every layer is measured by spans around calls into its public
   functions.  A workload's own set-up and timed phase record the spans
   of the layers it exercises; [complete] then measures, on inputs drawn
   from the same workload, each layer that has no spans yet, so that
   every traced run reports the whole ledger.  [Multi_core.run] hides
   the generator and the cache hierarchy, so those two are measured by
   replaying [Generator.next]/[next_fetch] and [Hierarchy.access] in
   isolation over each program's own benchmark, seed and address
   offset. *)

open Common
module Generator = Mppm_trace.Generator
module Op = Mppm_trace.Op
module Hierarchy = Mppm_cache.Hierarchy
module Single_core = Mppm_simcore.Single_core
module Core_model = Mppm_simcore.Core_model
module Multi_core = Mppm_multicore.Multi_core
module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Pool = Mppm_pool.Pool
module Prof = Mppm_obs.Prof

(* ---- spans the workloads share ---------------------------------------- *)

let model_span spans ctx mix =
  Spans.span spans
    (Printf.sprintf "model.%d" (Mix.size mix))
    ~units:(fun r -> float_of_int r.Model.iterations)
    (fun () -> Context.predict ctx ~llc_config mix)

let total_retired (m : Context.measured) =
  Array.fold_left
    (fun acc p -> acc + p.Multi_core.total_retired)
    0 m.Context.m_detail.Multi_core.programs

let detailed_span spans ctx mix =
  Spans.span spans "multi_core"
    ~units:(fun m -> float_of_int (total_retired m))
    (fun () -> Context.detailed ctx ~llc_config mix)

(* Builds one profile exactly as [Context.profile] does on a miss. *)
let build_profile spans ctx i =
  let benchmark = Suite.all.(i) in
  Spans.span spans "single_core"
    ~units:(fun _ -> float_of_int scale.Scale.trace_instructions)
    (fun () ->
      Single_core.profile
        (Single_core.config ~core:Core_model.default
           (Context.hierarchy ctx ~llc_config))
        ~benchmark
        ~seed:(Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
        ~trace_instructions:scale.Scale.trace_instructions
        ~interval_instructions:scale.Scale.interval_instructions)

let save_span spans p path =
  Spans.span spans "profile.save" (fun () -> Profile.save p path)

let dispatch_span spans ctx req =
  let kind =
    match req with
    | Wire.Predict { names = first :: _; _ } when String.contains first ',' ->
        "dispatch.batch"
    | _ -> "dispatch.single"
  in
  Spans.span spans kind (fun () -> Dispatch.handle ctx req)

(* ---- the serve request stream ----------------------------------------- *)

let batch_every = 16
let batch_mixes = 16

let is_batch i = i mod batch_every = batch_every - 1

(* Request [i] of a seeded stream: every [batch_every]-th request is a
   comma batch of [batch_mixes] four-program mixes, the rest one mix of
   2 to 16 programs. *)
let request rng i =
  if is_batch i then
    Wire.Predict
      {
        names =
          List.init batch_mixes (fun _ ->
              String.concat "," (names (random_mix rng ~cores:4)));
        llc_config;
      }
  else
    Wire.Predict
      { names = names (random_mix rng ~cores:(2 + Rng.int rng 15)); llc_config }

let requests ~seed ~count =
  let rng = Rng.create ~seed in
  Array.init count (fun i -> request (Rng.split rng) i)

(* ---- generator and hierarchy replay ----------------------------------- *)

type replay_buffers = { addrs : int array; kinds : Bytes.t }

let buffers () =
  let n =
    scale.Scale.trace_instructions
    + (scale.Scale.trace_instructions / Generator.instructions_per_fetch)
    + 1
  in
  { addrs = Array.make n 0; kinds = Bytes.make n '\000' }

(* Pulls one program's first pass in the order the core engine issues
   it: each block, then the fetches it makes due, then its data access.
   Returns (generator calls, recorded accesses). *)
let pull_stream gen buf =
  let ipf = Generator.instructions_per_fetch in
  let remaining = ref scale.Scale.trace_instructions in
  let debt = ref 0 in
  let n = ref 0 in
  let calls = ref 0 in
  while !remaining > 0 do
    let op = Generator.next gen ~cap:!remaining in
    incr calls;
    remaining := !remaining - op.Op.instructions;
    debt := !debt + op.Op.instructions;
    while !debt >= ipf do
      debt := !debt - ipf;
      buf.addrs.(!n) <- Generator.next_fetch gen;
      Bytes.unsafe_set buf.kinds !n '\000';
      incr calls;
      incr n
    done;
    match op.Op.access with
    | None -> ()
    | Some { Op.addr; kind } ->
        buf.addrs.(!n) <- addr;
        Bytes.unsafe_set buf.kinds !n
          (match kind with Op.Load -> '\001' | Op.Store -> '\002');
        incr n
  done;
  (!calls, !n)

let push_stream h buf n =
  for i = 0 to n - 1 do
    let kind =
      match Bytes.unsafe_get buf.kinds i with
      | '\000' -> Hierarchy.Fetch
      | '\001' -> Hierarchy.Load
      | _ -> Hierarchy.Store
    in
    ignore (Hierarchy.access h ~kind ~addr:buf.addrs.(i))
  done

(* Replays every program of [mixes] (at most [max_programs]) with the
   seed and slot offset [Context.detailed] gives it.  Returns the LLC
   (accesses, misses) summed over the replays. *)
let replay_programs spans ctx ~max_programs mixes =
  let buf = buffers () in
  let offsets = Multi_core.default_offsets ~seed:context_seed 16 in
  let programs =
    List.concat_map
      (fun mix ->
        Array.to_list
          (Array.mapi (fun slot b -> (b, offsets.(slot))) (Mix.benchmarks mix)))
      mixes
  in
  let programs = List.filteri (fun i _ -> i < max_programs) programs in
  List.fold_left
    (fun (acc, miss) ((b : Mppm_trace.Benchmark.t), offset) ->
      let gen =
        Generator.create ~offset ~seed:(Suite.seed_for b.Mppm_trace.Benchmark.name) b
      in
      let _, n =
        Spans.span spans "generator"
          ~units:(fun (calls, _) -> float_of_int calls)
          (fun () -> pull_stream gen buf)
      in
      let h = Hierarchy.create (Context.hierarchy ctx ~llc_config) in
      Spans.span spans "hierarchy"
        ~units:(fun () -> float_of_int n)
        (fun () -> push_stream h buf n);
      (acc + Hierarchy.llc_accesses h, miss + Hierarchy.llc_misses h))
    (0, 0) programs

(* ---- micro measurements ------------------------------------------------ *)

let window_calls = 20_000
let contention_calls = 2_000

(* [Profile.window] over seeded windows of one model epoch's length. *)
let windows spans ctx rng =
  let profiles = Context.all_profiles ctx ~llc_config in
  let trace = float_of_int scale.Scale.trace_instructions in
  let count = trace /. 5.0 in
  let starts = Array.init window_calls (fun _ -> Rng.float rng trace) in
  let which = Array.init window_calls (fun _ -> Rng.int rng Suite.count) in
  Spans.span spans "profile.window"
    ~units:(fun _ -> float_of_int window_calls)
    (fun () ->
      for i = 0 to window_calls - 1 do
        ignore (Profile.window profiles.(which.(i)) ~start:starts.(i) ~count)
      done);
  (* Epoch SDCs of 4 and 16 co-runners for the contention model. *)
  List.iter
    (fun k ->
      let sdcs =
        Array.init k (fun _ ->
            (Profile.window
               profiles.(Rng.int rng Suite.count)
               ~start:(Rng.float rng trace) ~count)
              .Profile.w_sdc)
      in
      Spans.span spans
        (Printf.sprintf "contention.%d" k)
        ~units:(fun _ -> float_of_int contention_calls)
        (fun () ->
          for _ = 1 to contention_calls do
            ignore (Contention.predict Contention.default sdcs)
          done))
    [ 4; 16 ]

(* Encode, frame and decode of a request and its response. *)
let wire_roundtrips spans pairs =
  let bytes = ref 0 in
  Spans.span spans "wire"
    ~units:(fun () -> float_of_int (Array.length pairs))
    (fun () ->
      Array.iter
        (fun (req, resp) ->
          let framed = Wire.frame (Wire.encode_request req) in
          (match Wire.frame_length (String.sub framed 0 4) with
          | Ok len -> ignore (Wire.decode_request (String.sub framed 4 len))
          | Error _ -> ());
          let framed = Wire.frame (Wire.encode_response resp) in
          bytes := !bytes + String.length framed;
          match Wire.frame_length (String.sub framed 0 4) with
          | Ok len -> ignore (Wire.decode_response (String.sub framed 4 len))
          | Error _ -> ())
        pairs);
  float_of_int !bytes /. float_of_int (Array.length pairs)

(* The daemon's set-up profile build, in process: all 29 profiles of the
   suite on a 2-job pool, with the pool's per-task timing recorded. *)
let pool_build report =
  let prof = Prof.make ~clock:Measure.now in
  let ctx = Context.create ~seed:context_seed scale in
  Pool.with_pool ~jobs:2 ~prof (fun pool ->
      ignore (Context.all_profiles ~pool ctx ~llc_config));
  match Prof.pool_stats prof with
  | Some s ->
      Report.set report "pool.utilization" s.Prof.p_utilization;
      Report.set report "pool.wait_ms_p50" (s.Prof.p_wait_p50 *. 1000.0)
  | None -> ()

(* Daemon request counters: (requests, batches). *)
let daemon_counts d =
  match Wire.decode_response (call d Wire.Stats) with
  | Ok (Wire.Counters kvs) ->
      let get k = Option.value ~default:nan (List.assoc_opt k kvs) in
      (get "serve.requests", get "serve.batches")
  | Ok _ | Error _ -> (nan, nan)

(* Two closed-loop connections over [reqs], plus the daemon's mean batch
   size over them (each Stats probe is one request in a batch of its
   own). *)
let replay_counted d reqs =
  let r0, b0 = daemon_counts d in
  let framed = Array.map (fun r -> Wire.frame (Wire.encode_request r)) reqs in
  let payloads, latencies, elapsed = replay d ~connections:2 framed in
  let r1, b1 = daemon_counts d in
  (payloads, latencies, elapsed, (r1 -. r0 -. 1.0) /. (b1 -. b0 -. 1.0))

let daemon_requests = 100 * batch_every

(* The mppmd daemon: a cold start with [--jobs 2] on a fresh cache, then
   a seeded stream of Predict requests over two closed-loop connections
   (every [batch_every]-th a batch), each response checked byte for byte
   against [Dispatch.handle] in process on the same request.  The
   latency percentiles are over single-mix requests. *)
let daemon ~spans ~report ~ctx ~mppmd ~seed =
  let set = Report.set report in
  let reqs = requests ~seed ~count:daemon_requests in
  let cache = fresh_dir "mppmd-cache" in
  let d, start_s, _ = Measure.timed (fun () -> start_daemon ~mppmd ~cache) in
  let payloads, latencies, elapsed, mean, rss =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let p, l, e, m = replay_counted d reqs in
        (p, l, e, m, daemon_peak_rss_mb d))
  in
  let handle_s = Array.make daemon_requests 0.0 in
  let pairs =
    Array.mapi
      (fun i req ->
        let t0 = Measure.now () in
        let resp = dispatch_span spans ctx req in
        handle_s.(i) <- Measure.now () -. t0;
        Report.check report
          (String.equal payloads.(i) (Wire.encode_response resp));
        (req, resp))
      reqs
  in
  let single_ms =
    Array.of_list
      (List.filteri
         (fun i _ -> not (is_batch i))
         (Array.to_list (Array.map (fun l -> l *. 1000.0) latencies)))
  in
  set "mppmd.setup_s" start_s;
  set "mppmd.qps" (float_of_int daemon_requests /. elapsed);
  set "mppmd.ms_p50" (Measure.quantile single_ms 0.5);
  set "mppmd.ms_p99" (Measure.quantile single_ms 0.99);
  set "mppmd.peak_rss_mb" rss;
  set "mppmd.queue_ms_p99"
    (Measure.quantile
       (Array.mapi (fun i l -> (l -. handle_s.(i)) *. 1000.0) latencies)
       0.99);
  set "mppmd.mean_batch" mean;
  set "wire.bytes_per_response" (wire_roundtrips spans pairs)

(* ---- completing and summarising the ledger ----------------------------- *)

let has spans name = Spans.named spans name <> []

(* Measures every layer the workload's own spans left uncovered, then
   the daemon.  [ctx] has the suite's config-#1 profiles resident;
   [mixes] are the workload's inputs. *)
let complete ~spans ~report ~ctx ~mppmd ~seed mixes =
  let rng = Rng.create ~seed:(seed + 0x1ed9e5) in
  if not (has spans "generator") then begin
    let acc, miss = replay_programs spans ctx ~max_programs:8 mixes in
    Report.set report "hierarchy.llc_miss_ratio"
      (float_of_int miss /. float_of_int acc)
  end;
  if not (has spans "single_core") then
    List.iter
      (fun i -> ignore (build_profile spans ctx i))
      (Array.to_list (Array.sub (Mix.indices (List.hd mixes)) 0 2));
  if not (has spans "multi_core") then begin
    let mix = random_mix rng ~cores:4 in
    let m = detailed_span spans ctx mix in
    let p = Context.predict ctx ~llc_config mix in
    let err a b = 100.0 *. Float.abs (a -. b) /. b in
    Report.set report "accuracy.stp_err_pct" (err p.Model.stp m.Context.m_stp);
    Report.set report "accuracy.antt_err_pct"
      (err p.Model.antt m.Context.m_antt);
    Report.set report "multi_core.useful_ratio"
      (float_of_int (Mix.size mix * scale.Scale.trace_instructions)
      /. float_of_int (total_retired m))
  end;
  if not (has spans "profile.save") then begin
    let dir = fresh_dir "ledger-profiles" in
    Array.iteri
      (fun j i ->
        let path = Filename.concat dir (Printf.sprintf "p%d.prof" j) in
        save_span spans (Context.profile ctx ~llc_config i) path;
        ignore (Spans.span spans "profile.load" (fun () -> Profile.load path)))
      (Mix.indices (List.hd mixes))
  end;
  windows spans ctx rng;
  List.iter
    (fun k ->
      if not (has spans (Printf.sprintf "model.%d" k)) then
        for _ = 1 to 32 do
          ignore (model_span spans ctx (random_mix rng ~cores:k))
        done)
    [ 2; 4; 8; 16 ];
  pool_build report;
  daemon ~spans ~report ~ctx ~mppmd ~seed

let per_unit spans name scale_factor =
  let dt, w, u = Spans.totals spans name in
  (dt /. u *. scale_factor, w /. u)

let mean_ms spans name = Measure.mean (Spans.durations spans name) *. 1000.0

(* Turns the recorded spans into the per-layer metrics. *)
let summarise ~spans ~report =
  let set = Report.set report in
  let ns, w = per_unit spans "generator" 1e9 in
  set "generator.ns_per_op" ns;
  set "generator.words_per_op" w;
  let ns, w = per_unit spans "hierarchy" 1e9 in
  set "hierarchy.ns_per_access" ns;
  set "hierarchy.words_per_access" w;
  let ns, w = per_unit spans "single_core" 1e9 in
  set "single_core.ns_per_insn" ns;
  set "single_core.words_per_insn" w;
  let ns, w = per_unit spans "multi_core" 1e9 in
  set "multi_core.ns_per_insn" ns;
  set "multi_core.words_per_insn" w;
  set "profile.save_ms" (mean_ms spans "profile.save");
  set "profile.load_ms" (mean_ms spans "profile.load");
  set "profile.window_ns" (fst (per_unit spans "profile.window" 1e9));
  List.iter
    (fun k ->
      set
        (Printf.sprintf "contention.us_per_call.%d" k)
        (fst (per_unit spans (Printf.sprintf "contention.%d" k) 1e6)))
    [ 4; 16 ];
  let model = List.map (fun k -> Printf.sprintf "model.%d" k) [ 2; 4; 8; 16 ] in
  List.iter2
    (fun k name -> set (Printf.sprintf "model.ms_per_mix.%d" k) (mean_ms spans name))
    [ 2; 4; 8; 16 ] model;
  let dt, w, epochs, mixes =
    List.fold_left
      (fun (dt, w, u, n) name ->
        let dt', w', u' = Spans.totals spans name in
        ( dt +. dt',
          w +. w',
          u +. u',
          n +. float_of_int (List.length (Spans.named spans name)) ))
      (0.0, 0.0, 0.0, 0.0) model
  in
  set "model.epochs_per_mix" (epochs /. mixes);
  set "model.ns_per_epoch" (dt /. epochs *. 1e9);
  set "model.words_per_mix" (w /. mixes);
  set "wire.us_per_roundtrip" (fst (per_unit spans "wire" 1e6));
  set "dispatch.ms_per_request.single" (mean_ms spans "dispatch.single");
  set "dispatch.ms_per_request.batch" (mean_ms spans "dispatch.batch")
