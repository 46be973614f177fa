type level = { geometry : Geometry.t; latency : int }

type config = {
  l1i : level;
  l1d : level;
  l2 : level;
  llc : level;
  memory_latency : int;
}

type hit_level = L1 | L2 | Llc | Memory
type access_kind = Fetch | Load | Store

type t = {
  config : config;
  l1i_cache : Cache.t;
  l1d_cache : Cache.t;
  l2_cache : Cache.t;
  llc_cache : Cache.t;
  llc_owner : int;
  perfect_llc : bool;
  mutable llc_accesses : int;
  mutable llc_misses : int;
}

let create ?llc ?(llc_owner = 0) ?(perfect_llc = false) config =
  let llc_cache =
    match llc with
    | Some cache ->
        if Cache.geometry cache <> config.llc.geometry then
          invalid_arg "Hierarchy.create: shared LLC geometry mismatch";
        cache
    | None -> Cache.create config.llc.geometry
  in
  {
    config;
    l1i_cache = Cache.create config.l1i.geometry;
    l1d_cache = Cache.create config.l1d.geometry;
    l2_cache = Cache.create config.l2.geometry;
    llc_cache;
    llc_owner;
    perfect_llc;
    llc_accesses = 0;
    llc_misses = 0;
  }

let config t = t.config
let llc t = t.llc_cache

(* The packed result: the level code in the low two bits, the LLC hit
   depth above them. *)
let level_bits = 2
let l1_code = 0
let l2_code = 1
let llc_code = 2
let memory_code = 3

(* mppm: unit _ -> kind:_ -> addr:_ -> _ *)
let access t ~kind ~addr =
  let l1 =
    match kind with Fetch -> t.l1i_cache | Load | Store -> t.l1d_cache
  in
  if Cache.lookup l1 addr > 0 then l1_code
  else if Cache.lookup t.l2_cache addr > 0 then l2_code
  else begin
    t.llc_accesses <- t.llc_accesses + 1;
    (* A perfect LLC hits on every access and keeps no state. *)
    let depth =
      if t.perfect_llc then 1
      else Cache.lookup_as t.llc_cache ~owner:t.llc_owner addr
    in
    if depth > 0 then (depth lsl level_bits) lor llc_code
    else begin
      t.llc_misses <- t.llc_misses + 1;
      memory_code
    end
  end

let packed_level packed =
  match packed land ((1 lsl level_bits) - 1) with
  | 0 -> L1
  | 1 -> L2
  | 2 -> Llc
  | _ -> Memory

(* mppm: unit ways *)
let packed_llc_depth packed = packed lsr level_bits

(* mppm: unit cycles *)
let latency config ~kind = function
  | L1 -> (
      match kind with
      | Fetch -> config.l1i.latency
      | Load | Store -> config.l1d.latency)
  | L2 -> config.l2.latency
  | Llc -> config.llc.latency
  | Memory -> config.llc.latency + config.memory_latency

let llc_accesses t = t.llc_accesses
let llc_misses t = t.llc_misses

let counters t =
  let level name cache =
    List.map (fun (k, v) -> (name ^ "." ^ k, v)) (Cache.counters cache)
  in
  level "l1i" t.l1i_cache
  @ level "l1d" t.l1d_cache
  @ level "l2" t.l2_cache
  (* The LLC may be shared between cores; report this core's own view. *)
  @ [
      ("llc.accesses", float_of_int t.llc_accesses);
      ("llc.misses", float_of_int t.llc_misses);
      ("llc.hits", float_of_int (t.llc_accesses - t.llc_misses));
    ]

let pp_level ppf (name, level) =
  Format.fprintf ppf "%-10s %a, %d cycle%s" name Geometry.pp level.geometry
    level.latency
    (if level.latency = 1 then "" else "s")

let pp_config ppf config =
  Format.fprintf ppf "@[<v>%a@,%a@,%a@,%a@,%-10s %d cycles@]" pp_level
    ("L1 I", config.l1i) pp_level
    ("L1 D", config.l1d)
    pp_level ("L2", config.l2) pp_level ("LLC", config.llc) "memory"
    config.memory_latency
