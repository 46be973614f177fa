(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench.exe --workload sim|predict --seed N --seconds S
                   --trace 0|1 --mppmd PATH

   Run it through perfbench/run.py, which builds it and mppmd first.
   The last line of standard output is the JSON result; the lines before
   it are a human-readable report.  Exits 1 when any output check fails
   (the result line then says "correct": false). *)

open Common

(* Shows that the benchmark does not under-report allocation done on
   another domain.  A spawned domain allocates a known amount inside a
   counted region of the main domain, the way every allocation metric
   is read: the main domain's counter misses it, and [Measure] must
   record it as foreign, which would fail the run.  The same allocation
   on the main domain must be counted in full and not recorded as
   foreign.  The self-check's own foreign words are then cleared. *)
let alloc_self_check report =
  let pairs = 1_000_000 in
  let expected = float_of_int (3 * pairs) in
  (* Short-lived pairs, so the check leaves the run's peak RSS alone. *)
  let work () =
    for i = 1 to pairs do
      ignore (Sys.opaque_identity (i, i))
    done
  in
  let foreign0 = !Measure.foreign_words in
  let (), _, main_seen =
    Measure.timed (fun () -> Domain.join (Domain.spawn work))
  in
  let caught = !Measure.foreign_words -. foreign0 in
  Measure.foreign_words := foreign0;
  let (), _, own = Measure.timed work in
  let false_alarm = !Measure.foreign_words -. foreign0 in
  Printf.printf
    "alloc self-check: a spawned domain allocated %.0f words in a counted \
     region; the main domain's counter saw %.0f, the foreign-words check \
     caught %.0f; on the main domain %.0f counted, %.0f called foreign\n"
    expected main_seen caught own false_alarm;
  Report.check report
    (caught >= expected -. Measure.slack
    && own >= expected && Float.equal false_alarm 0.0)

(* No counted region of the run may have missed another domain's
   allocation. *)
let foreign_check report =
  let w = !Measure.foreign_words in
  if w > 0.0 then
    Printf.printf
      "counted regions missed %.0f words that other domains allocated \
       (a nested region counts them again); the allocation metrics would \
       under-report them\n"
      w;
  Report.check report (Float.equal w 0.0)

let registry_counters () =
  ( Registry.get "profile_cache.memo_hits",
    Registry.get "profile_cache.misses" )

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload sim|predict --seed N --seconds S \
     --trace 0|1 --mppmd PATH";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and mppmd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sim|predict");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end, 1 = per-layer");
      ("--mppmd", Arg.Set_string mppmd, "path of the built mppmd.exe");
    ]
    (fun _ -> usage ())
    "perfbench";
  let run =
    match !workload with
    | "sim" -> Sim.run
    | "predict" -> Predict.run
    | _ -> usage ()
  in
  if !mppmd = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  (* A daemon must not outlive an interrupted run. *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             kill_all_daemons ();
             exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let report = Report.create () in
  let spans = Spans.create ~enabled:traced in
  mkdir_p (run_dir ());
  let status =
    match
      alloc_self_check report;
      let hits0, misses0 = registry_counters () in
      run ~report ~spans ~seed:!seed ~seconds:!seconds ~mppmd:!mppmd;
      foreign_check report;
      if traced then begin
        Ledger.summarise ~spans ~report;
        let hits1, misses1 = registry_counters () in
        Report.set report "context.profile_memo_hits" (hits1 -. hits0);
        Report.set report "context.profile_misses" (misses1 -. misses0);
        (match (Report.get report "trace.traced_s", Report.get report "trace.untraced_s") with
        | Some t, Some u -> Report.set report "trace.overhead_pct" ((t -. u) /. u *. 100.0)
        | _ -> ());
        let path =
          Filename.concat root_dir
            (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
        in
        Spans.write spans path;
        Printf.printf "spans written to %s\n" path
      end
    with
    | () ->
        let wanted = if traced then Report.per_layer else Report.end_to_end in
        Report.set report "ok_ratio"
          (float_of_int (report.Report.attempted - report.Report.failed)
          /. float_of_int (max 1 report.Report.attempted));
        List.iter
          (fun (name, _) ->
            match Report.get report name with
            | Some v when Float.is_finite v -> ()
            | _ ->
                Printf.printf "metric %s was not measured\n" name;
                Report.check report false)
          wanted;
        Printf.printf "%s, seed %d, %g s, %s: %d checked, %d failed\n" !workload
          !seed !seconds
          (if traced then "traced" else "untraced")
          report.Report.attempted report.Report.failed;
        Report.print_table report;
        print_endline (Report.json report ~traced);
        if report.Report.failed = 0 then 0 else 1
    | exception e ->
        Printf.printf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
        1
  in
  kill_all_daemons ();
  (try remove_tree (run_dir ()) with Sys_error _ -> ());
  exit status
