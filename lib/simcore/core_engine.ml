module Hierarchy = Mppm_cache.Hierarchy
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Generator = Mppm_trace.Generator
module Op = Mppm_trace.Op
module Benchmark = Mppm_trace.Benchmark
module Invariant = Mppm_util.Invariant

(* An all-float record is stored flat: updating it boxes nothing, unlike
   a mutable float field of [t]. *)
type clock = {
  mutable cycles : float;
  mutable memory_stall_cycles : float;
}

type t = {
  params : Core_model.params;
  costs : Core_model.stall_costs;
  hierarchy : Hierarchy.t;
  generator : Generator.t;
  sdc_profiler : Sdc_profiler.t option;
  memory_channel : Memory_channel.t option;
  compute_scale : float;
  clock : clock;
  mutable fetch_debt : int;
  mutable llc_accesses : int;
  mutable llc_misses : int;
}

let create ?sdc_profiler ?memory_channel ?(compute_scale = 1.0) ~params
    ~hierarchy ~generator () =
  if not (Float.is_finite compute_scale && compute_scale > 0.0) then
    invalid_arg "Core_engine.create: compute_scale must be finite and > 0";
  {
    params;
    costs = Core_model.stall_costs params ~config:(Hierarchy.config hierarchy);
    hierarchy;
    generator;
    sdc_profiler;
    memory_channel;
    compute_scale;
    clock = { cycles = 0.0; memory_stall_cycles = 0.0 };
    fetch_debt = 0;
    llc_accesses = 0;
    llc_misses = 0;
  }

(* Count an access that reached the LLC and profile its stack depth. *)
let note_llc t level packed =
  match level with
  | Hierarchy.L1 | Hierarchy.L2 -> ()
  | Hierarchy.Llc | Hierarchy.Memory -> (
      t.llc_accesses <- t.llc_accesses + 1;
      (match level with
      | Hierarchy.Memory -> t.llc_misses <- t.llc_misses + 1
      | Hierarchy.L1 | Hierarchy.L2 | Hierarchy.Llc -> ());
      match t.sdc_profiler with
      | Some profiler ->
          Sdc_profiler.record_depth profiler (Hierarchy.packed_llc_depth packed)
      | None -> ())

(* Queueing delay of an LLC miss on the shared memory channel, exposed the
   same way the raw miss latency is. *)
let channel_delay t =
  match t.memory_channel with
  | None -> 0.0
  | Some channel -> Memory_channel.request channel ~now:t.clock.cycles

(* Charge an access that missed the LLC: the part of its [stall] an LLC
   hit would also have suffered scales with the core; the off-chip
   [miss_extra] and the channel [queueing] do not.  Inlined, so the
   float arguments are never boxed. *)
let[@inline] charge_miss t ~stall ~miss_extra ~queueing =
  let clock = t.clock in
  clock.cycles <-
    clock.cycles
    +. (t.compute_scale *. (stall -. miss_extra))
    +. miss_extra +. queueing;
  clock.memory_stall_cycles <-
    clock.memory_stall_cycles +. miss_extra +. queueing

(* mppm: hot — inner fetch loop of the simulator step *)
let issue_fetches t count =
  t.fetch_debt <- t.fetch_debt + count;
  let costs = t.costs in
  let clock = t.clock in
  while t.fetch_debt >= Generator.instructions_per_fetch do
    t.fetch_debt <- t.fetch_debt - Generator.instructions_per_fetch;
    let addr = Generator.next_fetch t.generator in
    let packed = Hierarchy.access t.hierarchy ~kind:Hierarchy.Fetch ~addr in
    let level = Hierarchy.packed_level packed in
    note_llc t level packed;
    match level with
    | Hierarchy.Memory ->
        charge_miss t ~stall:costs.Core_model.fetch_memory
          ~miss_extra:costs.Core_model.fetch_miss_extra
          ~queueing:(t.params.Core_model.fetch_exposure *. channel_delay t)
    | Hierarchy.Llc ->
        clock.cycles <-
          clock.cycles +. (t.compute_scale *. costs.Core_model.fetch_llc)
    | Hierarchy.L2 ->
        clock.cycles <-
          clock.cycles +. (t.compute_scale *. costs.Core_model.fetch_l2)
    | Hierarchy.L1 ->
        (* An L1 hit stalls nothing, and 0.0 scaled by the finite
           positive compute scale adds nothing. *)
        ()
  done

(* mppm: hot — per-instruction simulator step *)
let step t ~cap =
  let clock = t.clock in
  let cycles_before = clock.cycles in
  let gen = t.generator in
  let phase = Generator.current_phase gen in
  Generator.next_in_place gen ~cap;
  let instructions = Generator.op_instructions gen in
  clock.cycles <-
    clock.cycles
    +. (t.compute_scale
       *. float_of_int instructions
       *. phase.Benchmark.base_cpi);
  issue_fetches t instructions;
  if Generator.op_is_memory gen then begin
    let kind =
      match Generator.op_kind gen with
      | Op.Load -> Hierarchy.Load
      | Op.Store -> Hierarchy.Store
    in
    let packed =
      Hierarchy.access t.hierarchy ~kind ~addr:(Generator.op_addr gen)
    in
    let mlp = phase.Benchmark.mlp in
    let costs = t.costs in
    let level = Hierarchy.packed_level packed in
    note_llc t level packed;
    match level with
    | Hierarchy.Memory ->
        charge_miss t ~stall:(costs.Core_model.data_memory_mlp /. mlp)
          ~miss_extra:
            ((costs.Core_model.miss_memory_mlp /. mlp)
            -. (costs.Core_model.miss_llc_mlp /. mlp))
          ~queueing:
            (t.params.Core_model.memory_exposure *. channel_delay t /. mlp)
    | Hierarchy.Llc ->
        clock.cycles <-
          clock.cycles
          +. (t.compute_scale *. (costs.Core_model.data_llc_mlp /. mlp))
    | Hierarchy.L2 ->
        clock.cycles <-
          clock.cycles +. (t.compute_scale *. costs.Core_model.data_l2)
    | Hierarchy.L1 -> ()
  end;
  if Invariant.enabled () then begin
    Invariant.checkf "simcore.cycles_monotone" (clock.cycles >= cycles_before)
      (fun () ->
        Printf.sprintf "cycle count fell from %g to %g" cycles_before
          clock.cycles);
    Invariant.check "simcore.cycles_finite" (Float.is_finite clock.cycles);
    Invariant.check "simcore.memory_stall_nonneg"
      (clock.memory_stall_cycles >= 0.0
      && clock.memory_stall_cycles <= clock.cycles)
  end;
  instructions

let retired t = Generator.retired t.generator
let hierarchy t = t.hierarchy
let clock t = t.clock
let cycles t = t.clock.cycles
let memory_stall_cycles t = t.clock.memory_stall_cycles
let llc_accesses t = t.llc_accesses
let llc_misses t = t.llc_misses

type snapshot = {
  s_retired : int;
  s_cycles : float;
  s_memory_stall_cycles : float;
  s_llc_accesses : int;
  s_llc_misses : int;
}

let snapshot t =
  {
    s_retired = retired t;
    s_cycles = t.clock.cycles;
    s_memory_stall_cycles = t.clock.memory_stall_cycles;
    s_llc_accesses = t.llc_accesses;
    s_llc_misses = t.llc_misses;
  }

let since t s =
  {
    s_retired = retired t - s.s_retired;
    s_cycles = t.clock.cycles -. s.s_cycles;
    s_memory_stall_cycles =
      t.clock.memory_stall_cycles -. s.s_memory_stall_cycles;
    s_llc_accesses = t.llc_accesses - s.s_llc_accesses;
    s_llc_misses = t.llc_misses - s.s_llc_misses;
  }
