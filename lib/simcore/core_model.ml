module Hierarchy = Mppm_cache.Hierarchy

type params = {
  width : int;
  rob_entries : int;
  l2_exposure : float;
  llc_exposure : float;
  memory_exposure : float;
  fetch_exposure : float;
}

let default =
  {
    width = 4;
    rob_entries = 128;
    l2_exposure = 0.35;
    llc_exposure = 0.55;
    memory_exposure = 0.85;
    fetch_exposure = 0.70;
  }

(* The L1 hit latency is pipelined away; only latency beyond it can stall. *)
let extra_latency latency = float_of_int (max 0 (latency - 1))

let data_stall params ~mlp ~latency = function
  | Hierarchy.L1 -> 0.0
  | Hierarchy.L2 -> params.l2_exposure *. extra_latency latency
  | Hierarchy.Llc -> params.llc_exposure *. extra_latency latency /. mlp
  | Hierarchy.Memory -> params.memory_exposure *. extra_latency latency /. mlp

let fetch_stall params ~latency = function
  | Hierarchy.L1 -> 0.0
  | Hierarchy.L2 | Hierarchy.Llc | Hierarchy.Memory ->
      params.fetch_exposure *. extra_latency latency

let fetch_llc_miss_extra_stall params ~config =
  let llc_latency = config.Hierarchy.llc.latency in
  let miss_latency = llc_latency + config.Hierarchy.memory_latency in
  params.fetch_exposure *. float_of_int (miss_latency - llc_latency)

type stall_costs = {
  data_l2 : float;
  data_llc_mlp : float;
  data_memory_mlp : float;
  miss_memory_mlp : float;
  miss_llc_mlp : float;
  fetch_l2 : float;
  fetch_llc : float;
  fetch_memory : float;
  fetch_miss_extra : float;
}

let stall_costs params ~config =
  (* At mlp 1.0 the division is exact, so [data] is the stall's numerator. *)
  let data level =
    data_stall params ~mlp:1.0
      ~latency:(Hierarchy.latency config ~kind:Hierarchy.Load level)
      level
  in
  let fetch level =
    fetch_stall params
      ~latency:(Hierarchy.latency config ~kind:Hierarchy.Fetch level)
      level
  in
  let llc_latency = config.Hierarchy.llc.latency in
  let miss_latency = llc_latency + config.Hierarchy.memory_latency in
  {
    data_l2 = data Hierarchy.L2;
    data_llc_mlp = data Hierarchy.Llc;
    data_memory_mlp = data Hierarchy.Memory;
    miss_memory_mlp = params.memory_exposure *. float_of_int (miss_latency - 1);
    miss_llc_mlp = params.llc_exposure *. float_of_int (llc_latency - 1);
    fetch_l2 = fetch Hierarchy.L2;
    fetch_llc = fetch Hierarchy.Llc;
    fetch_memory = fetch Hierarchy.Memory;
    fetch_miss_extra = fetch_llc_miss_extra_stall params ~config;
  }

(* The engine charges a data LLC miss [(c.miss_memory_mlp /. mlp) -.
   (c.miss_llc_mlp /. mlp)] inline; this is the same expression. *)
let llc_miss_extra_stall params ~config ~mlp =
  let c = stall_costs params ~config in
  (c.miss_memory_mlp /. mlp) -. (c.miss_llc_mlp /. mlp)

let pp ppf params =
  Format.fprintf ppf
    "%d-wide, %d-entry ROB; exposure L2 %.2f / LLC %.2f / mem %.2f / fetch %.2f"
    params.width params.rob_entries params.l2_exposure params.llc_exposure
    params.memory_exposure params.fetch_exposure
