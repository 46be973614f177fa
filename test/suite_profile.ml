(* Tests for mppm_profile: window aggregation (the heart of MPPM's
   per-iteration arithmetic), associativity derivation and serialization. *)

module Profile = Mppm_profile.Profile
module Sdc = Mppm_cache.Sdc

let check_close eps = Alcotest.(check (float eps))

(* A hand-built profile with easily checkable per-interval values:
   interval i has cycles 100*(i+1), stall 10*(i+1), i misses. *)
let assoc = 4

let make_interval i =
  let sdc = Sdc.create ~assoc in
  for _ = 1 to 20 do
    Sdc.record sdc ~depth:1
  done;
  for _ = 1 to i do
    Sdc.record sdc ~depth:(assoc + 1)
  done;
  {
    Profile.instructions = 1_000;
    cycles = 100.0 *. float_of_int (i + 1);
    memory_stall_cycles = 10.0 *. float_of_int (i + 1);
    llc_accesses = float_of_int (20 + i);
    llc_misses = float_of_int i;
    sdc;
  }

let sample_profile () =
  Profile.make ~benchmark:"synthetic" ~interval_instructions:1_000 ~llc_assoc:assoc
    (Array.init 5 make_interval)

let test_totals () =
  let p = sample_profile () in
  Alcotest.(check int) "instructions" 5_000 (Profile.total_instructions p);
  check_close 1e-9 "cycles" 1500.0 (Profile.total_cycles p);
  check_close 1e-9 "cpi" 0.3 (Profile.cpi p);
  check_close 1e-9 "memory cpi" 0.03 (Profile.memory_cpi p);
  check_close 1e-9 "memory fraction" 0.1 (Profile.memory_cpi_fraction p);
  check_close 1e-9 "mpki" (10.0 *. 1000.0 /. 5000.0) (Profile.llc_mpki p)

let test_make_validations () =
  let iv = make_interval 0 in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (invalid (fun () -> Profile.make ~benchmark:"x" ~interval_instructions:10 ~llc_assoc:assoc [||]));
  Alcotest.(check bool) "assoc mismatch" true
    (invalid (fun () ->
         Profile.make ~benchmark:"x" ~interval_instructions:10 ~llc_assoc:8 [| iv |]))

let test_window_full_trace () =
  let p = sample_profile () in
  let w = Profile.window p ~start:0.0 ~count:5000.0 in
  check_close 1e-6 "instructions" 5000.0 w.Profile.w_instructions;
  check_close 1e-6 "cycles" 1500.0 w.Profile.w_cycles;
  check_close 1e-6 "stall" 150.0 w.Profile.w_memory_stall_cycles;
  check_close 1e-6 "misses" 10.0 w.Profile.w_llc_misses;
  check_close 1e-6 "sdc misses agree" 10.0 (Sdc.misses w.Profile.w_sdc);
  check_close 1e-9 "window cpi" 0.3 (Profile.window_cpi w)

let test_window_single_interval () =
  let p = sample_profile () in
  let w = Profile.window p ~start:2000.0 ~count:1000.0 in
  check_close 1e-6 "third interval cycles" 300.0 w.Profile.w_cycles;
  check_close 1e-6 "third interval misses" 2.0 w.Profile.w_llc_misses

let test_window_fractional () =
  let p = sample_profile () in
  (* Half of interval 0 plus half of interval 1. *)
  let w = Profile.window p ~start:500.0 ~count:1000.0 in
  check_close 1e-6 "cycles" ((0.5 *. 100.0) +. (0.5 *. 200.0)) w.Profile.w_cycles;
  check_close 1e-6 "misses" 0.5 w.Profile.w_llc_misses;
  check_close 1e-6 "instructions" 1000.0 w.Profile.w_instructions

let test_window_additivity () =
  let p = sample_profile () in
  let whole = Profile.window p ~start:700.0 ~count:3100.0 in
  let first = Profile.window p ~start:700.0 ~count:1300.0 in
  let second = Profile.window p ~start:2000.0 ~count:1800.0 in
  check_close 1e-6 "cycles add"
    (first.Profile.w_cycles +. second.Profile.w_cycles)
    whole.Profile.w_cycles;
  check_close 1e-6 "misses add"
    (first.Profile.w_llc_misses +. second.Profile.w_llc_misses)
    whole.Profile.w_llc_misses

let test_window_wraps () =
  let p = sample_profile () in
  (* Start in the last interval and wrap into the first. *)
  let w = Profile.window p ~start:4500.0 ~count:1000.0 in
  check_close 1e-6 "wrap cycles" ((0.5 *. 500.0) +. (0.5 *. 100.0)) w.Profile.w_cycles;
  (* Start beyond one full trace behaves modulo. *)
  let w2 = Profile.window p ~start:(4500.0 +. 5000.0) ~count:1000.0 in
  check_close 1e-6 "modulo start" w.Profile.w_cycles w2.Profile.w_cycles

let test_window_multiple_laps () =
  let p = sample_profile () in
  let w = Profile.window p ~start:0.0 ~count:10_000.0 in
  check_close 1e-5 "two laps" 3000.0 w.Profile.w_cycles

let test_window_validations () =
  let p = sample_profile () in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero count" true
    (invalid (fun () -> Profile.window p ~start:0.0 ~count:0.0));
  Alcotest.(check bool) "negative start" true
    (invalid (fun () -> Profile.window p ~start:(-1.0) ~count:10.0))

let test_reduce_associativity () =
  let p = sample_profile () in
  let r = Profile.reduce_associativity p ~assoc:2 in
  Alcotest.(check int) "assoc" 2 r.Profile.llc_assoc;
  Array.iteri
    (fun i iv ->
      (* No hits deeper than depth 1 in the synthetic SDCs, so the fold
         does not create new misses. *)
      check_close 1e-9 "misses re-derived from SDC" (float_of_int i)
        iv.Profile.llc_misses)
    r.Profile.intervals;
  Alcotest.(check bool) "cannot increase" true
    (try ignore (Profile.reduce_associativity p ~assoc:8); false
     with Invalid_argument _ -> true)

let test_save_load_roundtrip () =
  (* Deliberately fractional values: window scaling and associativity
     folding make real SDC counters and miss counts non-integer, and
     those must survive the disk round-trip exactly. *)
  let fractional_interval i =
    let k = float_of_int (i + 1) in
    {
      Profile.instructions = 1_000;
      cycles = 110133.011905 *. k /. 3.0;
      memory_stall_cycles = 103919.047619 *. k /. 7.0;
      llc_accesses = 645.2861652717584 *. k;
      llc_misses = 0.07 *. k;
      sdc =
        Sdc.of_list ~assoc
          [ 20.25 *. k; k /. 3.0; 0.1 *. k; 1e-3 *. k; 0.07 *. k ];
    }
  in
  let p =
    Profile.make ~benchmark:"synthetic" ~interval_instructions:1_000
      ~llc_assoc:assoc
      (Array.init 5 fractional_interval)
  in
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save p path;
      let q = Profile.load path in
      Alcotest.(check string) "benchmark" p.Profile.benchmark q.Profile.benchmark;
      Alcotest.(check int) "interval len" p.Profile.interval_instructions
        q.Profile.interval_instructions;
      Alcotest.(check int) "assoc" p.Profile.llc_assoc q.Profile.llc_assoc;
      Alcotest.(check int) "intervals" (Array.length p.Profile.intervals)
        (Array.length q.Profile.intervals);
      (* Round-trip must be exact: a cache hit and a recompute have to be
         bit-for-bit interchangeable (traces are golden-tested on it). *)
      let bits = Int64.bits_of_float in
      Array.iteri
        (fun i iv ->
          let jv = q.Profile.intervals.(i) in
          Alcotest.(check int64) "cycles" (bits iv.Profile.cycles)
            (bits jv.Profile.cycles);
          Alcotest.(check int64) "stall"
            (bits iv.Profile.memory_stall_cycles)
            (bits jv.Profile.memory_stall_cycles);
          Alcotest.(check (list int64)) "sdc"
            (List.map bits (Sdc.to_list iv.Profile.sdc))
            (List.map bits (Sdc.to_list jv.Profile.sdc)))
        p.Profile.intervals)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a profile\n";
      close_out oc;
      Alcotest.(check bool) "bad header fails" true
        (try ignore (Profile.load path); false with Failure _ -> true))

(* Each case rewrites one number of a saved profile's second interval
   (line 7: version, benchmark, interval, assoc and intervals come
   first).  A non-finite, negative or unparsable float, or a zero
   instruction count, must be a [Failure] that names the line, not a
   hang in the model or an [Invalid_argument] from [make]. *)
let check_load_rejects cases =
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save (sample_profile ()) path;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines = Array.of_list (String.split_on_char '\n' text) in
      List.iter
        (fun (column, value) ->
          let edited = Array.copy lines in
          let fields = Array.of_list (String.split_on_char ' ' lines.(6)) in
          fields.(column) <- value;
          edited.(6) <- String.concat " " (Array.to_list fields);
          let oc = open_out_bin path in
          output_string oc (String.concat "\n" (Array.to_list edited));
          close_out oc;
          let case = Printf.sprintf "field %d = %s" column value in
          match Profile.load path with
          | _ -> Alcotest.failf "%s: load accepted it" case
          | exception Failure msg ->
              let where = Printf.sprintf "Profile.load: %s:7: " path in
              Alcotest.(check bool)
                (Printf.sprintf "%s: message %S names the line" case msg)
                true
                (String.length msg >= String.length where
                && String.sub msg 0 (String.length where) = where))
        cases)

let test_load_rejects_bad_numbers () =
  check_load_rejects
    [ (1, "nan"); (1, "inf"); (2, "-5"); (5, "abc"); (0, "0") ]

(* A zero-cycle interval makes a window's CPI zero, and the model's
   progress then NaN or infinite: the epoch loop never ends.  [load]
   refuses it like any other bad number. *)
let test_load_rejects_zero_cycles () =
  check_load_rejects [ (1, "0"); (1, "-0"); (1, "0.0") ]

(* [make] is the guard for in-process callers: every interval value the
   window walk and the model divide by or sum must be finite, cycles
   positive. *)
let test_make_rejects_degenerate_intervals () =
  let base = make_interval 1 in
  let rejects what iv =
    match
      Profile.make ~benchmark:"x" ~interval_instructions:1_000 ~llc_assoc:assoc
        [| make_interval 0; iv |]
    with
    | _ -> Alcotest.failf "make accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "zero cycles" { base with Profile.cycles = 0.0 };
  rejects "negative cycles" { base with Profile.cycles = -1.0 };
  rejects "NaN cycles" { base with Profile.cycles = Float.nan };
  rejects "infinite cycles" { base with Profile.cycles = Float.infinity };
  rejects "NaN stall" { base with Profile.memory_stall_cycles = Float.nan };
  rejects "negative stall" { base with Profile.memory_stall_cycles = -1.0 };
  rejects "negative accesses" { base with Profile.llc_accesses = -1.0 };
  rejects "infinite misses" { base with Profile.llc_misses = Float.infinity };
  rejects "NaN SDC counter"
    {
      base with
      Profile.sdc =
        Sdc.of_list ~assoc (Float.nan :: List.tl (Sdc.to_list base.Profile.sdc));
    };
  let p = sample_profile () in
  Alcotest.check_raises "infinite window count"
    (Invalid_argument "Profile.window: non-finite window") (fun () ->
      ignore (Profile.window p ~start:0.0 ~count:Float.infinity));
  Alcotest.check_raises "NaN window start"
    (Invalid_argument "Profile.window: non-finite window") (fun () ->
      ignore (Profile.window p ~start:Float.nan ~count:10.0))

(* ---- the window walk against a linear-scan oracle ------------------- *)

(* The window walk as it was written before the walk moved into
   caller-owned scratch: a left-to-right scan for the start interval with
   a running float offset, a fresh scaled SDC copy per interval, and
   boxed sums.  The rewrite must match it bit for bit. *)
let oracle_window (t : Profile.t) ~start ~count =
  let trace_len =
    float_of_int
      (Array.fold_left (fun acc iv -> acc + iv.Profile.instructions) 0
         t.Profile.intervals)
  in
  let sdc = Sdc.create ~assoc:t.Profile.llc_assoc in
  let ins = ref 0.0 and cyc = ref 0.0 and stall = ref 0.0 in
  let acc = ref 0.0 and miss = ref 0.0 in
  let n = Array.length t.Profile.intervals in
  let pos = Float.rem start trace_len in
  let rec locate i off =
    let len = float_of_int t.Profile.intervals.(i).Profile.instructions in
    if pos < off +. len || i = n - 1 then (i, pos -. off)
    else locate (i + 1) (off +. len)
  in
  let idx, offset = locate 0 0.0 in
  let idx = ref idx and offset = ref offset and remaining = ref count in
  while !remaining > 1e-9 do
    let iv = t.Profile.intervals.(!idx) in
    let len = float_of_int iv.Profile.instructions in
    let take = Float.min (len -. !offset) !remaining in
    let frac = take /. len in
    if frac > 0.0 then begin
      Sdc.add_into ~dst:sdc (Sdc.scale iv.Profile.sdc frac);
      ins := !ins +. (float_of_int iv.Profile.instructions *. frac);
      cyc := !cyc +. (iv.Profile.cycles *. frac);
      stall := !stall +. (iv.Profile.memory_stall_cycles *. frac);
      acc := !acc +. (iv.Profile.llc_accesses *. frac);
      miss := !miss +. (iv.Profile.llc_misses *. frac)
    end;
    remaining := !remaining -. take;
    offset := 0.0;
    idx := (!idx + 1) mod n
  done;
  (!ins, !cyc, !stall, !acc, !miss, sdc)

let bits x = Int64.bits_of_float x

(* A random profile: 1 to 12 intervals of uneven length with arbitrary
   fractional statistics, and window queries that start anywhere in the
   first few laps (a quarter of them exactly on an interval boundary) and
   span from a fraction of one interval to several wraps. *)
let window_case_gen =
  let open QCheck.Gen in
  let assoc = 4 in
  let interval =
    let* instructions = int_range 1 5_000 in
    let* cycles = float_range 1.0 20_000.0 in
    let* stall = float_range 0.0 5_000.0 in
    let* accesses = float_range 0.0 400.0 in
    let* misses = float_range 0.0 100.0 in
    let+ counters = list_repeat (assoc + 1) (float_range 0.0 90.0) in
    {
      Profile.instructions;
      cycles;
      memory_stall_cycles = stall;
      llc_accesses = accesses;
      llc_misses = misses;
      sdc = Sdc.of_list ~assoc counters;
    }
  in
  let* intervals = array_size (int_range 1 12) interval in
  let p =
    Profile.make ~benchmark:"random" ~interval_instructions:1_000
      ~llc_assoc:assoc intervals
  in
  let n = Array.length intervals in
  let total = Profile.total_instructions p in
  let* start =
    oneof
      [
        float_range 0.0 (3.0 *. float_of_int total);
        (let+ k = int_range 0 n and+ lap = int_range 0 3 in
         float_of_int (p.Profile.starts.(k) + (lap * total)));
      ]
  in
  let shortest =
    Array.fold_left (fun m iv -> min m iv.Profile.instructions) max_int intervals
  in
  let+ count =
    oneof
      [
        float_range 1e-3 (float_of_int shortest);
        float_range 1.0 (float_of_int total);
        float_range 1.0 (4.0 *. float_of_int total);
      ]
  in
  (p, start, count)

let window_case_print (p, start, count) =
  Printf.sprintf "%d intervals (%d insns), start %h, count %h"
    (Array.length p.Profile.intervals)
    (Profile.total_instructions p) start count

let window_matches_oracle (p, start, count) =
  let ins, cyc, stall, acc, miss, sdc = oracle_window p ~start ~count in
  let sc = Profile.scratch ~assoc:p.Profile.llc_assoc in
  (* Dirty the scratch first: a reused accumulator must not leak. *)
  Profile.window_into p sc ~starts:[| 0.0 |] ~counts:[| 1.5 |] 0;
  Profile.window_into p sc ~starts:[| start |] ~counts:[| count |] 0;
  let s = sc.Profile.sums in
  let w = Profile.window p ~start ~count in
  let same a b = Int64.equal (bits a) (bits b) in
  let same_list a b = List.length a = List.length b && List.for_all2 same a b in
  same ins s.Profile.s_instructions
  && same cyc s.Profile.s_cycles
  && same stall s.Profile.s_memory_stall_cycles
  && same acc s.Profile.s_llc_accesses
  && same miss s.Profile.s_llc_misses
  && same_list (Sdc.to_list sdc) (Sdc.to_list sc.Profile.window_sdc)
  && same cyc w.Profile.w_cycles
  && same_list (Sdc.to_list sdc) (Sdc.to_list w.Profile.w_sdc)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"window matches the linear-scan oracle bit for bit"
      ~count:500
      (make ~print:window_case_print window_case_gen)
      window_matches_oracle;
    Test.make ~name:"window instruction count is exact" ~count:200
      (pair (float_range 0.0 20_000.0) (float_range 1.0 8_000.0))
      (fun (start, count) ->
        let p = sample_profile () in
        let w = Profile.window p ~start ~count in
        abs_float (w.Profile.w_instructions -. count) < 1e-6 *. count +. 1e-6);
    Test.make ~name:"window cycles positive and bounded" ~count:200
      (pair (float_range 0.0 5_000.0) (float_range 1.0 5_000.0))
      (fun (start, count) ->
        let p = sample_profile () in
        let w = Profile.window p ~start ~count in
        (* Bounded by count * max interval CPI (0.5). *)
        w.Profile.w_cycles > 0.0 && w.Profile.w_cycles <= (0.5 *. count) +. 1e-6);
  ]

let tests =
  [
    ( "profile.core",
      [
        Alcotest.test_case "totals" `Quick test_totals;
        Alcotest.test_case "make validations" `Quick test_make_validations;
        Alcotest.test_case "window full trace" `Quick test_window_full_trace;
        Alcotest.test_case "window single interval" `Quick test_window_single_interval;
        Alcotest.test_case "window fractional" `Quick test_window_fractional;
        Alcotest.test_case "window additivity" `Quick test_window_additivity;
        Alcotest.test_case "window wraps" `Quick test_window_wraps;
        Alcotest.test_case "window multiple laps" `Quick test_window_multiple_laps;
        Alcotest.test_case "window validations" `Quick test_window_validations;
        Alcotest.test_case "reduce associativity" `Quick test_reduce_associativity;
        Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
        Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        Alcotest.test_case "load rejects zero cycles" `Quick
          test_load_rejects_zero_cycles;
        Alcotest.test_case "make rejects degenerate intervals" `Quick
          test_make_rejects_degenerate_intervals;
        Alcotest.test_case "load rejects bad numbers" `Quick
          test_load_rejects_bad_numbers;
      ] );
    ("profile.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
