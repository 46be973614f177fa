let instructions_per_fetch = 16
let page_bytes = 4096
let line_bytes = 64

let round_to_page bytes = (bytes + page_bytes - 1) / page_bytes * page_bytes

(* Per-region runtime state: the base address in the generator's address
   space and, for Sequential/Strided patterns, the running cursor. *)
type region_state = {
  region : Benchmark.region;
  base : int;
  mutable cursor : int;
}

type phase_state = {
  phase : Benchmark.phase;
  duration : int;
  cumulative : float array;
      (** running sums of the region weights, left to right from 0.0 *)
  total_weight : float;
  inv_log_one_minus_p : float;
      (** 1 / ln(1 - mem_ratio), precomputed for geometric gap draws; 0 when
          mem_ratio is 0 or 1 *)
  region_states : region_state array;
}

type t = {
  bench : Benchmark.t;
  rng : Mppm_util.Rng.t;
  fetch_rng : Mppm_util.Rng.t;
      (* The fetch stream draws from its own PRNG stream so that the data
         stream is invariant to how the caller blocks its [next] calls
         relative to [next_fetch]. *)
  offset : int;
  phases : phase_state array;
  mutable phase_idx : int;
  mutable phase_remaining : int;
  mutable retired : int;
  (* Compute instructions owed before the pending memory access, and the
     memory ratio it was drawn under (a phase switch invalidates it). *)
  mutable pending_gap : int;
  mutable pending_valid : bool;
  mutable pending_ratio : float;
  (* Fetch stream state. *)
  code_bytes : int;
  mutable fetch_cursor : int;
  address_space_bytes : int;
  (* The block produced by the last [next_in_place]. *)
  mutable op_instructions : int;
  mutable op_is_memory : bool;
  mutable op_addr : int;
  mutable op_kind : Op.access_kind;
}

let create ?(offset = 0) ~seed bench =
  Benchmark.validate bench;
  let rng = Mppm_util.Rng.create ~seed in
  let fetch_rng = Mppm_util.Rng.split rng in
  (* Lay out the address space: code first, then each distinct region (by
     name) page-aligned, in first-appearance order. *)
  let next_free = ref (round_to_page bench.Benchmark.code_bytes) in
  let shared_states : (string, region_state) Hashtbl.t = Hashtbl.create ~random:false 16 in
  let state_for (region : Benchmark.region) =
    match Hashtbl.find_opt shared_states region.Benchmark.region_name with
    | Some st -> st
    | None ->
        let base = !next_free in
        next_free := !next_free + round_to_page region.Benchmark.size_bytes;
        let st = { region; base; cursor = 0 } in
        Hashtbl.add shared_states region.Benchmark.region_name st;
        st
  in
  let phases =
    bench.Benchmark.schedule
    |> List.map (fun ((phase : Benchmark.phase), duration) ->
           let region_states =
             Array.of_list (List.map state_for phase.Benchmark.regions)
           in
           let cumulative =
             let acc = ref 0.0 in
             Array.map
               (fun st ->
                 acc := !acc +. st.region.Benchmark.weight;
                 !acc)
               region_states
           in
           let p = phase.Benchmark.mem_ratio in
           {
             phase;
             duration;
             cumulative;
             total_weight = cumulative.(Array.length cumulative - 1);
             inv_log_one_minus_p =
               (if p > 0.0 && p < 1.0 then 1.0 /. log (1.0 -. p) else 0.0);
             region_states;
           })
    |> Array.of_list
  in
  {
    bench;
    rng;
    fetch_rng;
    offset;
    phases;
    phase_idx = 0;
    phase_remaining = phases.(0).duration;
    retired = 0;
    pending_gap = 0;
    pending_valid = false;
    pending_ratio = 0.0;
    code_bytes = bench.Benchmark.code_bytes;
    fetch_cursor = 0;
    address_space_bytes = !next_free;
    op_instructions = 0;
    op_is_memory = false;
    op_addr = 0;
    op_kind = Op.Load;
  }

let benchmark t = t.bench
let retired t = t.retired
let current_phase t = t.phases.(t.phase_idx).phase
let address_space_bytes t = t.address_space_bytes

(* Advance the retired-instruction clock by [k], rolling phases over. [k]
   never exceeds the current phase's remaining budget (callers clamp). *)
let advance t k =
  t.retired <- t.retired + k;
  t.phase_remaining <- t.phase_remaining - k;
  if Int.equal t.phase_remaining 0 then begin
    t.phase_idx <- (t.phase_idx + 1) mod Array.length t.phases;
    t.phase_remaining <- t.phases.(t.phase_idx).duration
  end

let lines_in bytes = max 1 (bytes / line_bytes)

(* [(cursor + step) mod size] for a non-negative cursor and step: the
   division runs only when the cursor wraps. *)
(* mppm: unit _ -- byte offset within a region *)
let wrap_add cursor step size =
  let c = cursor + step in
  if c < size then c else c mod size

(* mppm: unit _ -- byte address *)
let region_address t (st : region_state) =
  let open Benchmark in
  let within =
    match st.region.region_pattern with
    | Uniform -> Mppm_util.Rng.int t.rng (lines_in st.region.size_bytes) * line_bytes
    | Sequential ->
        let a = st.cursor in
        st.cursor <- wrap_add st.cursor line_bytes st.region.size_bytes;
        a
    | Strided stride ->
        let a = st.cursor in
        st.cursor <- wrap_add st.cursor stride st.region.size_bytes;
        a
  in
  t.offset + st.base + within

(* [Rng.float rng bound], bit for bit, computed here from the raw draw so
   the uniform stays an unboxed local. *)
(* mppm: unit _ -- uniform draw carries no unit *)
let[@inline] uniform_of_bits bits bound = float_of_int bits *. 0x1p-53 *. bound

(* mppm: unit insns -- compute-gap draw between accesses *)
let draw_gap t (ps : phase_state) =
  if ps.phase.Benchmark.mem_ratio >= 1.0 then 0
  else
    (* Inverse-CDF geometric draw with the log precomputed per phase. *)
    let u = uniform_of_bits (Mppm_util.Rng.bits53 t.rng) 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (log u *. ps.inv_log_one_minus_p)

(* Weighted region pick: the first region whose cumulative weight exceeds
   the draw, else the last.  The draw travels as its raw bits so the scan
   passes no float argument. *)
(* mppm: unit _ -- weighted index scan *)
let rec scan_cumulative (ps : phase_state) bits i =
  let last = Array.length ps.cumulative - 1 in
  if i >= last then last
  else if uniform_of_bits bits ps.total_weight < ps.cumulative.(i) then i
  else scan_cumulative ps bits (i + 1)

(* mppm: unit _ -- weighted region index draw *)
let pick_region t (ps : phase_state) =
  scan_cumulative ps (Mppm_util.Rng.bits53 t.rng) 0

let set_compute t n =
  t.op_instructions <- n;
  t.op_is_memory <- false

(* mppm: unit _ -> cap:insns -> _ *)
let next_in_place t ~cap =
  if cap < 1 then invalid_arg "Generator.next: cap must be >= 1";
  let ps = t.phases.(t.phase_idx) in
  let phase = ps.phase in
  let limit = min cap t.phase_remaining in
  if phase.Benchmark.mem_ratio <= 0.0 then begin
    (* Pure-compute phase: no access can occur before the phase ends. *)
    t.pending_valid <- false;
    advance t limit;
    set_compute t limit
  end
  else begin
    if not (t.pending_valid && Float.equal t.pending_ratio phase.Benchmark.mem_ratio)
    then begin
      t.pending_gap <- draw_gap t ps;
      t.pending_valid <- true;
      t.pending_ratio <- phase.Benchmark.mem_ratio
    end;
    if t.pending_gap + 1 > limit then begin
      (* The access does not fit: emit compute and keep owing it. *)
      t.pending_gap <- t.pending_gap - limit;
      advance t limit;
      set_compute t limit
    end
    else begin
      let gap = t.pending_gap in
      t.pending_valid <- false;
      let region_idx = pick_region t ps in
      let addr = region_address t ps.region_states.(region_idx) in
      let kind =
        if Mppm_util.Rng.bernoulli t.rng ~p:phase.Benchmark.store_fraction then
          Op.Store
        else Op.Load
      in
      advance t (gap + 1);
      t.op_instructions <- gap + 1;
      t.op_is_memory <- true;
      t.op_addr <- addr;
      t.op_kind <- kind
    end
  end

let op_instructions t = t.op_instructions
let op_is_memory t = t.op_is_memory
let op_addr t = t.op_addr
let op_kind t = t.op_kind

(* mppm: unit _ -> cap:insns -> op *)
let next t ~cap =
  next_in_place t ~cap;
  if t.op_is_memory then
    Op.memory ~gap:(t.op_instructions - 1) ~addr:t.op_addr ~kind:t.op_kind
  else Op.compute t.op_instructions

(* mppm: unit op -- generated fetch op *)
let next_fetch t =
  (* Fetches cycle sequentially through the hot loop body (so the L1I sees
     steady reuse to the extent the loop fits), with occasional excursions
     into the cold code footprint. *)
  if Mppm_util.Rng.bernoulli t.fetch_rng ~p:t.bench.Benchmark.cold_fetch_rate
  then
    t.offset
    + (Mppm_util.Rng.int t.fetch_rng (lines_in t.code_bytes) * line_bytes)
  else begin
    t.fetch_cursor <-
      wrap_add t.fetch_cursor line_bytes t.bench.Benchmark.hot_code_bytes;
    t.offset + t.fetch_cursor
  end
