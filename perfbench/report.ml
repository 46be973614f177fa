(* What one run reports: output checks made and failed, and metrics
   by name with their units.  Metric names and units mirror
   BENCHMARK.json, which run.py checks the output against. *)

(* End-to-end metrics: every workload reports each of them, for its own
   unit of work ("op"; see README.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput", "1/s");
    ("latency_ms_p50", "ms");
    ("latency_ms_p99", "ms");
    ("words_per_op", "words");
    ("peak_rss_mb", "MiB");
    ("ok_ratio", "1");
  ]

(* Per-layer metrics, reported by the traced run of every workload. *)
let per_layer =
  [
    ("generator.ns_per_op", "ns");
    ("generator.words_per_op", "words");
    ("hierarchy.ns_per_access", "ns");
    ("hierarchy.words_per_access", "words");
    ("hierarchy.llc_miss_ratio", "1");
    ("single_core.ns_per_insn", "ns");
    ("single_core.words_per_insn", "words");
    ("multi_core.ns_per_insn", "ns");
    ("multi_core.words_per_insn", "words");
    ("multi_core.useful_ratio", "1");
    ("profile.save_ms", "ms");
    ("profile.load_ms", "ms");
    ("profile.window_ns", "ns");
    ("contention.us_per_call.4", "us");
    ("contention.us_per_call.16", "us");
    ("model.ms_per_mix.2", "ms");
    ("model.ms_per_mix.4", "ms");
    ("model.ms_per_mix.8", "ms");
    ("model.ms_per_mix.16", "ms");
    ("model.epochs_per_mix", "count");
    ("model.ns_per_epoch", "ns");
    ("model.words_per_mix", "words");
    ("accuracy.stp_err_pct", "%");
    ("accuracy.antt_err_pct", "%");
    ("context.profile_memo_hits", "count");
    ("context.profile_misses", "count");
    ("pool.utilization", "1");
    ("pool.wait_ms_p50", "ms");
    ("wire.us_per_roundtrip", "us");
    ("wire.bytes_per_response", "bytes");
    ("dispatch.ms_per_request.single", "ms");
    ("dispatch.ms_per_request.batch", "ms");
    ("mppmd.setup_s", "s");
    ("mppmd.qps", "1/s");
    ("mppmd.ms_p50", "ms");
    ("mppmd.ms_p99", "ms");
    ("mppmd.peak_rss_mb", "MiB");
    ("mppmd.queue_ms_p99", "ms");
    ("mppmd.mean_batch", "count");
    ("trace.untraced_s", "s");
    ("trace.traced_s", "s");
    ("trace.overhead_pct", "%");
  ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; values = Hashtbl.create ~random:false 64 }

(* Counts one output check, a failure if [ok] is false. *)
let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let set t name value = Hashtbl.replace t.values name value

let get t name = Hashtbl.find_opt t.values name

(* Human-readable lines for every metric set, end-to-end first. *)
let print_table t =
  List.iter
    (fun (name, u) ->
      match get t name with
      | Some v -> Printf.printf "  %-34s %16.6g %s\n" name v u
      | None -> ())
    (end_to_end @ per_layer)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The result line: the end-to-end set untraced, the per-layer set
   traced. *)
let json t ~traced =
  let names = if traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, u) ->
        let v = Option.value ~default:nan (get t name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) u)
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0 && t.attempted > 0)
    t.attempted t.failed
    (String.concat ", " metrics)
