module Sdc = Mppm_cache.Sdc

type interval = {
  instructions : int;
  cycles : float;
  memory_stall_cycles : float;
  llc_accesses : float;
  llc_misses : float;
  sdc : Sdc.t;
}

type t = {
  benchmark : string;
  interval_instructions : int;
  llc_assoc : int;
  intervals : interval array;
  starts : int array;
  whole_cpi : float;
  whole_miss_penalty : float;
}

let check_interval llc_assoc iv =
  let non_negative x = x >= 0.0 && x < Float.infinity (* false for NaN *) in
  if iv.instructions <= 0 then
    invalid_arg "Profile.make: interval with non-positive instructions";
  if not (iv.cycles > 0.0 && iv.cycles < Float.infinity) then
    invalid_arg "Profile.make: interval with non-positive or non-finite cycles";
  if
    not
      (non_negative iv.memory_stall_cycles
      && non_negative iv.llc_accesses && non_negative iv.llc_misses)
  then
    invalid_arg
      "Profile.make: interval with a negative or non-finite stall, access or \
       miss count";
  if Sdc.assoc iv.sdc <> llc_assoc then
    invalid_arg "Profile.make: SDC associativity mismatch";
  if not (Sdc.well_formed iv.sdc) then
    invalid_arg "Profile.make: negative or non-finite SDC counter"

(* The derived fields are computed here, once, and [t] is private, so
   they cannot go stale.  The sums run left to right from 0, as every
   whole-trace query always has. *)
let make ~benchmark ~interval_instructions ~llc_assoc intervals =
  if interval_instructions <= 0 then
    invalid_arg "Profile.make: non-positive interval length";
  if Array.length intervals = 0 then invalid_arg "Profile.make: no intervals";
  Array.iter (check_interval llc_assoc) intervals;
  let n = Array.length intervals in
  let starts = Array.make (n + 1) 0 in
  Array.iteri
    (fun i iv -> starts.(i + 1) <- starts.(i) + iv.instructions)
    intervals;
  let sum field = Array.fold_left (fun acc iv -> acc +. field iv) 0.0 intervals in
  let total_misses = sum (fun iv -> iv.llc_misses) in
  {
    benchmark;
    interval_instructions;
    llc_assoc;
    intervals;
    starts;
    whole_cpi = sum (fun iv -> iv.cycles) /. float_of_int starts.(n);
    whole_miss_penalty =
      (if total_misses > 0.0 then
         sum (fun iv -> iv.memory_stall_cycles) /. total_misses
       else 0.0);
  }

let total_instructions t = t.starts.(Array.length t.intervals)

let total_cycles t =
  Array.fold_left (fun acc iv -> acc +. iv.cycles) 0.0 t.intervals

let cpi t = t.whole_cpi

let memory_cpi t =
  Array.fold_left (fun acc iv -> acc +. iv.memory_stall_cycles) 0.0 t.intervals
  /. float_of_int (total_instructions t)

let memory_cpi_fraction t = memory_cpi t /. cpi t

let llc_mpki t =
  Array.fold_left (fun acc iv -> acc +. iv.llc_misses) 0.0 t.intervals
  *. 1000.0
  /. float_of_int (total_instructions t)

(* ---- instruction windows -------------------------------------------- *)

type sums = {
  mutable s_instructions : float;
  mutable s_cycles : float;
  mutable s_memory_stall_cycles : float;
  mutable s_llc_accesses : float;
  mutable s_llc_misses : float;
}

type scratch = { sums : sums; window_sdc : Sdc.t; cursor : float array }

let scratch ~assoc =
  {
    sums =
      {
        s_instructions = 0.0;
        s_cycles = 0.0;
        s_memory_stall_cycles = 0.0;
        s_llc_accesses = 0.0;
        s_llc_misses = 0.0;
      };
    window_sdc = Sdc.create ~assoc;
    cursor = Array.make 2 0.0;
  }

(* The walk's two float cells: the instructions still to take, and the
   interval currently being taken from (its available instructions, then
   the fraction of it taken).  Cells of a float array are unboxed. *)
let remaining = 0
let current = 1

(* The interval holding position [cursor.(current)]: the first whose end
   lies beyond it, or the last one.  A binary search over the exact
   integer interval ends, so it makes the comparisons a left-to-right
   scan with a running float offset would make (offsets below 2^53 are
   exact) and picks the same interval. *)
(* mppm: unit _ *)
let rec locate starts cursor lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cursor.(current) < float_of_int starts.(mid + 1) then
      locate starts cursor lo mid
    else locate starts cursor (mid + 1) hi

(* Takes [min available remaining] instructions from interval [idx],
   with [available] in the [current] cell, adding that linear fraction of
   the interval to the sums (cycles and instructions only unless
   [full]). *)
let take_from t sc ~full idx =
  let cur = sc.cursor and s = sc.sums in
  let iv = t.intervals.(idx) in
  let len = float_of_int iv.instructions in
  let take = Float.min cur.(current) cur.(remaining) in
  cur.(current) <- take /. len;
  if cur.(current) > 0.0 then begin
    s.s_instructions <-
      s.s_instructions +. (float_of_int iv.instructions *. cur.(current));
    s.s_cycles <- s.s_cycles +. (iv.cycles *. cur.(current));
    if full then begin
      s.s_memory_stall_cycles <-
        s.s_memory_stall_cycles +. (iv.memory_stall_cycles *. cur.(current));
      s.s_llc_accesses <- s.s_llc_accesses +. (iv.llc_accesses *. cur.(current));
      s.s_llc_misses <- s.s_llc_misses +. (iv.llc_misses *. cur.(current));
      Sdc.add_scaled_into ~dst:sc.window_sdc iv.sdc cur current
    end
  end;
  cur.(remaining) <- cur.(remaining) -. take

(* Whole intervals from [idx] on, wrapping, until the window is
   consumed. *)
let rec walk t sc ~full idx =
  if sc.cursor.(remaining) > 1e-9 then begin
    sc.cursor.(current) <- float_of_int t.intervals.(idx).instructions;
    take_from t sc ~full idx;
    walk t sc ~full ((idx + 1) mod Array.length t.intervals)
  end

let fill t sc ~full ~starts ~counts i =
  let start = starts.(i) and count = counts.(i) in
  if count <= 0.0 then invalid_arg "Profile.window: non-positive count";
  if start < 0.0 then invalid_arg "Profile.window: negative start";
  if not (count < Float.infinity && start < Float.infinity) then
    invalid_arg "Profile.window: non-finite window";
  let s = sc.sums and cur = sc.cursor in
  s.s_instructions <- 0.0;
  s.s_cycles <- 0.0;
  s.s_memory_stall_cycles <- 0.0;
  s.s_llc_accesses <- 0.0;
  s.s_llc_misses <- 0.0;
  if full then Sdc.clear sc.window_sdc;
  let n = Array.length t.intervals in
  cur.(current) <- Float.rem start (float_of_int t.starts.(n));
  let idx = locate t.starts cur 0 (n - 1) in
  cur.(remaining) <- count;
  (* The first interval is entered at an offset; every later one whole. *)
  if cur.(remaining) > 1e-9 then begin
    cur.(current) <-
      float_of_int t.intervals.(idx).instructions
      -. (cur.(current) -. float_of_int t.starts.(idx));
    take_from t sc ~full idx;
    walk t sc ~full ((idx + 1) mod n)
  end

(* mppm: hot — per-quantum window aggregation *)
let window_into t sc ~starts ~counts i = fill t sc ~full:true ~starts ~counts i

(* mppm: hot — per-quantum CPI projection *)
let window_cycles_into t sc ~starts ~counts i =
  fill t sc ~full:false ~starts ~counts i

type window = {
  w_instructions : float;
  w_cycles : float;
  w_memory_stall_cycles : float;
  w_llc_accesses : float;
  w_llc_misses : float;
  w_sdc : Sdc.t;
}

let window t ~start ~count =
  let sc = scratch ~assoc:t.llc_assoc in
  window_into t sc ~starts:[| start |] ~counts:[| count |] 0;
  let s = sc.sums in
  {
    w_instructions = s.s_instructions;
    w_cycles = s.s_cycles;
    w_memory_stall_cycles = s.s_memory_stall_cycles;
    w_llc_accesses = s.s_llc_accesses;
    w_llc_misses = s.s_llc_misses;
    w_sdc = sc.window_sdc;
  }

let window_cpi w = w.w_cycles /. w.w_instructions

let reduce_associativity t ~assoc =
  if assoc > t.llc_assoc then
    invalid_arg "Profile.reduce_associativity: cannot increase associativity";
  let intervals =
    Array.map
      (fun iv ->
        let sdc = Sdc.reduce_associativity iv.sdc ~assoc in
        { iv with sdc; llc_misses = Sdc.misses sdc })
      t.intervals
  in
  make ~benchmark:t.benchmark ~interval_instructions:t.interval_instructions
    ~llc_assoc:assoc intervals

(* ---- text serialization ------------------------------------------- *)

(* v2: floats are written shortest-round-trip (v1 truncated to %.6f/%.1f,
   so a cache hit was not bit-identical to a recompute — SDC counters are
   fractional).  The version string feeds the profile-cache fingerprint,
   so v1 entries read as stale rather than as lossy profiles. *)
let format_version = "mppm-profile v2"

(* Shortest decimal representation that parses back to the same bits:
   %.15g when that round-trips, %.17g otherwise (always exact). *)
let float_str x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* Writes go to a ".tmp" sibling first and are renamed into place, so a
   concurrent reader (pool workers share one cache directory) or an
   interrupted run never observes a truncated profile.  The tmp name is
   deterministic; racing writers of the same path write identical bytes,
   so last-rename-wins is harmless. *)
let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" format_version;
      Printf.fprintf oc "benchmark %s\n" t.benchmark;
      Printf.fprintf oc "interval %d\n" t.interval_instructions;
      Printf.fprintf oc "assoc %d\n" t.llc_assoc;
      Printf.fprintf oc "intervals %d\n" (Array.length t.intervals);
      Array.iter
        (fun iv ->
          Printf.fprintf oc "%d %s %s %s %s" iv.instructions
            (float_str iv.cycles)
            (float_str iv.memory_stall_cycles)
            (float_str iv.llc_accesses) (float_str iv.llc_misses);
          List.iter
            (fun c -> Printf.fprintf oc " %s" (float_str c))
            (Sdc.to_list iv.sdc);
          Printf.fprintf oc "\n")
        t.intervals);
  Sys.rename tmp path

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line_no = ref 0 in
      let next_line () =
        incr line_no;
        try input_line ic
        with End_of_file ->
          failwith
            (Printf.sprintf "Profile.load: %s: unexpected end of file at line %d"
               path !line_no)
      in
      let field expected line =
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = expected ->
            String.sub line (i + 1) (String.length line - i - 1)
        | Some _ | None ->
            failwith
              (Printf.sprintf "Profile.load: %s:%d: expected '%s <value>'" path
                 !line_no expected)
      in
      let bad what expected s =
        failwith
          (Printf.sprintf "Profile.load: %s:%d: %s %S is not %s" path !line_no
             what s expected)
      in
      (* Every number goes through one of these three, so a NaN,
         infinity, negative or zero count, or a zero cycle count, is a
         located [Failure] here rather than a hang or an
         [Invalid_argument] downstream. *)
      let positive_int what s =
        match int_of_string s with
        | v when v > 0 -> v
        | _ | (exception Failure _) -> bad what "a positive integer" s
      in
      let finite what s =
        match float_of_string s with
        | v when v >= 0.0 && v < Float.infinity -> v (* false for NaN *)
        | _ | (exception Failure _) -> bad what "a finite non-negative number" s
      in
      let positive_finite what s =
        match float_of_string s with
        | v when v > 0.0 && v < Float.infinity -> v (* false for NaN *)
        | _ | (exception Failure _) -> bad what "a finite positive number" s
      in
      let version = next_line () in
      if version <> format_version then
        failwith
          (Printf.sprintf "Profile.load: %s: unsupported format %S" path version);
      let benchmark = field "benchmark" (next_line ()) in
      let header what = positive_int what (field what (next_line ())) in
      let interval_instructions = header "interval" in
      let llc_assoc = header "assoc" in
      let n = header "intervals" in
      let parse_interval line =
        match String.split_on_char ' ' line with
        | insns :: cycles :: stall :: acc :: miss :: counters
          when List.length counters = llc_assoc + 1 ->
            {
              instructions = positive_int "instructions" insns;
              cycles = positive_finite "cycles" cycles;
              memory_stall_cycles = finite "stall" stall;
              llc_accesses = finite "accesses" acc;
              llc_misses = finite "misses" miss;
              sdc =
                Sdc.of_list ~assoc:llc_assoc
                  (List.map (finite "counter") counters);
            }
        | _ ->
            failwith
              (Printf.sprintf "Profile.load: %s:%d: malformed interval" path
                 !line_no)
      in
      let intervals = Array.init n (fun _ -> parse_interval (next_line ())) in
      try make ~benchmark ~interval_instructions ~llc_assoc intervals
      with Invalid_argument msg ->
        failwith
          (Printf.sprintf "Profile.load: %s:%d: %s" path !line_no msg))

let pp_summary ppf t =
  Format.fprintf ppf
    "%s: %d insns, CPI %.3f (mem %.3f, %.0f%%), LLC MPKI %.2f, %d intervals"
    t.benchmark (total_instructions t) (cpi t) (memory_cpi t)
    (100.0 *. memory_cpi_fraction t)
    (llc_mpki t) (Array.length t.intervals)
