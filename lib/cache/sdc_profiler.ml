type t = {
  mutable current : Sdc.t;
  total : Sdc.t;
}

let create ~assoc = { current = Sdc.create ~assoc; total = Sdc.create ~assoc }

(* mppm: hot — per-access profiling hook *)
let record_depth t depth =
  let depth = if Int.equal depth 0 then max_int else depth in
  Sdc.record t.current ~depth;
  Sdc.record t.total ~depth

let cut_interval t =
  let finished = t.current in
  t.current <- Sdc.create ~assoc:(Sdc.assoc finished);
  finished

let current t = t.current
let lifetime_total t = Sdc.copy t.total
