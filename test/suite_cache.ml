(* Tests for mppm_cache: geometry, the cache model (validated against a
   naive list-based reference under every policy and partition),
   stack-distance counters, the SDC profiler and the hierarchy (validated
   against the same reference assembled into levels). *)

module Geometry = Mppm_cache.Geometry
module Replacement = Mppm_cache.Replacement
module Cache = Mppm_cache.Cache
module Sdc = Mppm_cache.Sdc
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Hierarchy = Mppm_cache.Hierarchy
module Configs = Mppm_cache.Configs
module Rng = Mppm_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let small_geometry =
  (* 4 sets x 4 ways x 64B lines = 1KB: tiny enough to reason by hand. *)
  Geometry.make ~size_bytes:1024 ~line_bytes:64 ~associativity:4

(* ---- Geometry ------------------------------------------------------- *)

let test_geometry_derived () =
  let g = Geometry.make ~size_bytes:(Geometry.kib 512) ~line_bytes:64 ~associativity:8 in
  Alcotest.(check int) "sets" 1024 g.Geometry.num_sets;
  Alcotest.(check int) "lines" 8192 (Geometry.lines g);
  Alcotest.(check int) "set shift" 6 g.Geometry.set_shift

let test_geometry_indexing () =
  let g = small_geometry in
  Alcotest.(check int) "set of 0" 0 (Geometry.set_index g 0);
  Alcotest.(check int) "set of 64" 1 (Geometry.set_index g 64);
  Alcotest.(check int) "sets wrap" 0 (Geometry.set_index g (4 * 64));
  Alcotest.(check int) "offset ignored" (Geometry.set_index g 64)
    (Geometry.set_index g (64 + 63));
  Alcotest.(check int) "line address clears offset" 64 (Geometry.line_address g 127);
  Alcotest.(check bool) "tags differ across conflicting lines" true
    (Geometry.tag g 0 <> Geometry.tag g (4 * 64))

let test_geometry_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-pow2 size" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1000 ~line_bytes:64 ~associativity:4)));
  Alcotest.(check bool) "non-pow2 line" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1024 ~line_bytes:60 ~associativity:4)));
  Alcotest.(check bool) "zero assoc" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1024 ~line_bytes:64 ~associativity:0)))

let test_geometry_describe () =
  Alcotest.(check string) "KB" "512KB" (Geometry.describe_size (Geometry.kib 512));
  Alcotest.(check string) "MB" "2MB" (Geometry.describe_size (Geometry.mib 2));
  Alcotest.(check string) "B" "100B" (Geometry.describe_size 100)

(* ---- Replacement ----------------------------------------------------- *)

let test_replacement_strings () =
  Alcotest.(check string) "lru" "lru" (Replacement.to_string Replacement.Lru);
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Replacement.of_string (Replacement.to_string p) = p))
    [ Replacement.Lru; Replacement.Fifo; Replacement.Random 7 ]

(* ---- Cache: reference-model validation ------------------------------- *)

(* A deliberately naive cache: per set, a list of (tag, owner) lines in
   recency order (MRU first), plus the insertion order for FIFO.  The
   victim rules are the documented ones, written without reference to the
   production cache's arrays.  The production cache must agree access for
   access, under every policy and partition. *)
module Model = struct
  type t = {
    geometry : Geometry.t;
    policy : Replacement.t;
    partition : int array option;
    rng : Rng.t option;  (* Random: the same draws the cache makes *)
    sets : (int * int) list array;
    ages : int list array;  (* FIFO: tags, oldest insertion first *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(policy = Replacement.Lru) ?partition geometry =
    let n = geometry.Geometry.num_sets in
    let rng =
      match policy with
      | Replacement.Random seed -> Some (Rng.create ~seed)
      | _ -> None
    in
    { geometry; policy; partition; rng; sets = Array.make n [];
      ages = Array.make n []; hits = 0; misses = 0 }

  let rec position p i = function
    | [] -> None
    | x :: rest -> if p x then Some i else position p (i + 1) rest

  (* The recency position a miss evicts from the full set [si]: LRU the
     last line, FIFO the oldest insertion, Random a drawn position.  Under
     a partition, an owner at or above its quota evicts its own LRU line;
     one below it steals the LRU line of an over-quota owner, or the
     global LRU line if nobody is over. *)
  let victim t si set ~owner =
    let ways = t.geometry.Geometry.associativity in
    let deepest p =
      Option.map (fun i -> ways - 1 - i) (position p 0 (List.rev set))
    in
    match (t.partition, t.policy) with
    | Some quotas, _ ->
        let count o = List.length (List.filter (fun (_, o') -> o' = o) set) in
        Option.value ~default:(ways - 1)
          (if count owner >= quotas.(owner) then deepest (fun (_, o) -> o = owner)
           else deepest (fun (_, o) -> count o > quotas.(o)))
    | None, Replacement.Lru -> ways - 1
    | None, Replacement.Random _ -> Rng.int (Option.get t.rng) ways
    | None, Replacement.Fifo ->
        let oldest = List.hd t.ages.(si) in
        t.ages.(si) <- List.tl t.ages.(si);
        Option.get (position (fun (tag, _) -> tag = oldest) 0 set)

  let access_as t ~owner addr =
    let si = Geometry.set_index t.geometry addr in
    let tag = Geometry.tag t.geometry addr in
    let set = t.sets.(si) in
    let without i = List.filteri (fun j _ -> j <> i) set in
    match position (fun (x, _) -> x = tag) 0 set with
    | Some pos ->
        t.hits <- t.hits + 1;
        t.sets.(si) <- List.nth set pos :: without pos;
        pos + 1
    | None ->
        t.misses <- t.misses + 1;
        let full = List.length set = t.geometry.Geometry.associativity in
        let kept = if full then without (victim t si set ~owner) else set in
        (* An unpartitioned cache files every line under owner 0. *)
        let owner = if t.partition = None then 0 else owner in
        t.sets.(si) <- (tag, owner) :: kept;
        if t.policy = Replacement.Fifo then t.ages.(si) <- t.ages.(si) @ [ tag ];
        0

  let access t addr = access_as t ~owner:0 addr

  let count_lines t p =
    Array.fold_left (fun n set -> n + List.length (List.filter p set)) 0 t.sets

  let resident_lines t = count_lines t (fun _ -> true)
  let owner_lines t ~owner = count_lines t (fun (_, o) -> o = owner)

  let probe t addr =
    let tag = Geometry.tag t.geometry addr in
    List.exists (fun (x, _) -> x = tag) t.sets.(Geometry.set_index t.geometry addr)
end

let random_addresses ~seed ~count ~span =
  let rng = Rng.create ~seed in
  Array.init count (fun _ -> Rng.int rng span * 16)

let test_cache_matches_reference () =
  let g = small_geometry in
  let cache = Cache.create g in
  let reference = Model.create g in
  let addrs = random_addresses ~seed:5 ~count:20_000 ~span:256 in
  Array.iter
    (fun addr ->
      let got = Cache.lookup cache addr in
      let want = Model.access reference addr in
      if got <> want then
        Alcotest.failf "divergence at addr %d: got depth %d want %d" addr got
          want)
    addrs

let test_cache_lru_eviction_order () =
  let g = small_geometry in
  let cache = Cache.create g in
  (* Five conflicting lines in a 4-way set: 0, 256, 512, ... map to set 0. *)
  let line i = i * 4 * 64 in
  for i = 0 to 3 do
    Alcotest.(check bool) "cold miss" true (Cache.lookup cache (line i) = 0)
  done;
  (* Touch line 0 to refresh it, then insert a fifth line: the LRU victim
     must be line 1. *)
  Alcotest.(check bool) "refresh hit" true (Cache.lookup cache (line 0) > 0);
  Alcotest.(check bool) "fifth line misses" true (Cache.lookup cache (line 4) = 0);
  Alcotest.(check bool) "line 1 was evicted" true (Cache.lookup cache (line 1) = 0);
  Alcotest.(check bool) "line 0 survived" true (Cache.lookup cache (line 0) > 0)

let test_cache_hit_depth () =
  let cache = Cache.create small_geometry in
  ignore (Cache.lookup cache 0);
  ignore (Cache.lookup cache (4 * 64));
  Alcotest.(check int) "second MRU" 2 (Cache.lookup cache 0);
  Alcotest.(check int) "now MRU" 1 (Cache.lookup cache 0)

let test_cache_stats () =
  let cache = Cache.create small_geometry in
  ignore (Cache.lookup cache 0);
  ignore (Cache.lookup cache 0);
  ignore (Cache.lookup cache 64);
  Alcotest.(check int) "accesses" 3 (Cache.accesses cache);
  Alcotest.(check int) "hits" 1 (Cache.hits cache);
  Alcotest.(check int) "misses" 2 (Cache.misses cache);
  check_float "miss rate" (2.0 /. 3.0) (Cache.miss_rate cache);
  Cache.reset_stats cache;
  Alcotest.(check int) "reset" 0 (Cache.accesses cache);
  Alcotest.(check bool) "contents survive reset" true (Cache.lookup cache 0 > 0)

let test_cache_probe () =
  let cache = Cache.create small_geometry in
  Alcotest.(check bool) "absent" false (Cache.probe cache 0);
  ignore (Cache.lookup cache 0);
  Alcotest.(check bool) "present" true (Cache.probe cache 0);
  Alcotest.(check int) "probe does not count" 1 (Cache.accesses cache)

let test_cache_clear_and_occupancy () =
  let cache = Cache.create small_geometry in
  for i = 0 to 9 do
    ignore (Cache.lookup cache (i * 64))
  done;
  Alcotest.(check int) "resident lines" 10 (Cache.resident_lines cache);
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.resident_lines cache);
  Alcotest.(check bool) "all cold again" true (Cache.lookup cache 0 = 0)

let test_cache_fifo_no_refresh () =
  let cache = Cache.create ~policy:Replacement.Fifo small_geometry in
  let line i = i * 4 * 64 in
  for i = 0 to 3 do
    ignore (Cache.lookup cache (line i))
  done;
  (* Refresh line 0; under FIFO this must NOT save it from eviction. *)
  ignore (Cache.lookup cache (line 0));
  ignore (Cache.lookup cache (line 4));
  Alcotest.(check bool) "line 0 evicted despite refresh" true
    (Cache.lookup cache (line 0) = 0)

let test_cache_random_bounded () =
  let cache = Cache.create ~policy:(Replacement.Random 3) small_geometry in
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    ignore (Cache.lookup cache (Rng.int rng 64 * 64))
  done;
  Alcotest.(check bool) "occupancy bounded" true
    (Cache.resident_lines cache <= Geometry.lines small_geometry)

let test_cache_working_set_behaviour () =
  (* A working set that fits has ~100% steady-state hits; double the size
     thrashes. *)
  let g = small_geometry in
  let lines = Geometry.lines g in
  let fits = Cache.create g in
  for _ = 1 to 10 do
    for i = 0 to lines - 1 do
      ignore (Cache.lookup fits (i * 64))
    done
  done;
  Alcotest.(check int) "fitting set: only cold misses" lines (Cache.misses fits);
  let thrash = Cache.create g in
  for _ = 1 to 10 do
    for i = 0 to (2 * lines) - 1 do
      ignore (Cache.lookup thrash (i * 64))
    done
  done;
  (* Cyclic sequential at 2x capacity under LRU misses every access. *)
  Alcotest.(check int) "thrashing set: all miss" (2 * lines * 10) (Cache.misses thrash)

(* ---- Sdc ------------------------------------------------------------- *)

let test_sdc_record_and_counters () =
  let sdc = Sdc.create ~assoc:4 in
  Sdc.record sdc ~depth:1;
  Sdc.record sdc ~depth:1;
  Sdc.record sdc ~depth:4;
  Sdc.record sdc ~depth:9;
  (* beyond assoc: a miss *)
  Sdc.record sdc ~depth:max_int;
  check_float "C1" 2.0 (Sdc.counter sdc 1);
  check_float "C4" 1.0 (Sdc.counter sdc 4);
  check_float "C>A" 2.0 (Sdc.counter sdc 5);
  check_float "accesses" 5.0 (Sdc.accesses sdc);
  check_float "hits" 3.0 (Sdc.hits sdc);
  check_float "misses" 2.0 (Sdc.misses sdc);
  check_float "miss rate" 0.4 (Sdc.miss_rate sdc)

let test_sdc_add_scale () =
  let a = Sdc.of_list ~assoc:2 [ 1.0; 2.0; 3.0 ] in
  let b = Sdc.of_list ~assoc:2 [ 10.0; 20.0; 30.0 ] in
  Alcotest.(check (list (float 1e-9))) "add" [ 11.0; 22.0; 33.0 ]
    (Sdc.to_list (Sdc.add a b));
  Alcotest.(check (list (float 1e-9))) "scale" [ 0.5; 1.0; 1.5 ]
    (Sdc.to_list (Sdc.scale a 0.5));
  let dst = Sdc.copy a in
  Sdc.add_into ~dst b;
  Alcotest.(check (list (float 1e-9))) "add_into" [ 11.0; 22.0; 33.0 ] (Sdc.to_list dst)

let test_sdc_reduce_associativity () =
  let sdc = Sdc.of_list ~assoc:4 [ 5.0; 4.0; 3.0; 2.0; 1.0 ] in
  let reduced = Sdc.reduce_associativity sdc ~assoc:2 in
  Alcotest.(check (list (float 1e-9))) "folded" [ 5.0; 4.0; 6.0 ] (Sdc.to_list reduced);
  check_float "accesses preserved" (Sdc.accesses sdc) (Sdc.accesses reduced)

let test_sdc_misses_with_ways () =
  let sdc = Sdc.of_list ~assoc:4 [ 5.0; 4.0; 3.0; 2.0; 1.0 ] in
  check_float "full ways" 1.0 (Sdc.misses_with_ways sdc ~ways:4.0);
  check_float "0 ways: everything misses" 15.0 (Sdc.misses_with_ways sdc ~ways:0.0);
  check_float "2 ways" 6.0 (Sdc.misses_with_ways sdc ~ways:2.0);
  (* Linear interpolation between 2 (6 misses) and 3 (3 misses). *)
  check_float "2.5 ways" 4.5 (Sdc.misses_with_ways sdc ~ways:2.5);
  check_float "beyond assoc clamps" 1.0 (Sdc.misses_with_ways sdc ~ways:10.0)

let test_sdc_reduction_matches_resimulation () =
  (* The paper's Sec. 2 claim: a 16-way profile reduced to 8 ways equals a
     direct 8-way profile with the same set count. *)
  let sets = 16 in
  let g16 = Geometry.make ~size_bytes:(sets * 16 * 64) ~line_bytes:64 ~associativity:16 in
  let g8 = Geometry.make ~size_bytes:(sets * 8 * 64) ~line_bytes:64 ~associativity:8 in
  Alcotest.(check int) "same set count" g16.Geometry.num_sets g8.Geometry.num_sets;
  let c16 = Cache.create g16 and c8 = Cache.create g8 in
  let p16 = Sdc_profiler.create ~assoc:16 in
  let p8 = Sdc_profiler.create ~assoc:8 in
  let addrs = random_addresses ~seed:17 ~count:50_000 ~span:4096 in
  Array.iter
    (fun addr ->
      Sdc_profiler.record_depth p16 (Cache.lookup c16 addr);
      Sdc_profiler.record_depth p8 (Cache.lookup c8 addr))
    addrs;
  let reduced = Sdc.reduce_associativity (Sdc_profiler.lifetime_total p16) ~assoc:8 in
  Alcotest.(check (list (float 1e-9)))
    "derived = resimulated"
    (Sdc.to_list (Sdc_profiler.lifetime_total p8))
    (Sdc.to_list reduced)

let test_sdc_errors () =
  let sdc = Sdc.create ~assoc:4 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad depth" true (raises (fun () -> Sdc.record sdc ~depth:0));
  Alcotest.(check bool) "assoc mismatch" true
    (raises (fun () -> ignore (Sdc.add sdc (Sdc.create ~assoc:2))));
  Alcotest.(check bool) "bad of_list" true
    (raises (fun () -> ignore (Sdc.of_list ~assoc:2 [ 1.0 ])))

(* ---- Sdc_profiler ---------------------------------------------------- *)

let test_profiler_intervals_sum_to_total () =
  let cache = Cache.create small_geometry in
  let profiler = Sdc_profiler.create ~assoc:4 in
  let addrs = random_addresses ~seed:23 ~count:5_000 ~span:512 in
  let cuts = ref [] in
  Array.iteri
    (fun i addr ->
      Sdc_profiler.record_depth profiler (Cache.lookup cache addr);
      if (i + 1) mod 1000 = 0 then cuts := Sdc_profiler.cut_interval profiler :: !cuts)
    addrs;
  let total =
    List.fold_left Sdc.add (Sdc_profiler.current profiler) !cuts
  in
  Alcotest.(check (list (float 1e-9)))
    "interval sum equals lifetime"
    (Sdc.to_list (Sdc_profiler.lifetime_total profiler))
    (Sdc.to_list total);
  check_float "every access recorded" 5000.0 (Sdc.accesses total)

let test_profiler_depths_match_cache () =
  (* The profiler's histogram must agree with the depths it was fed. *)
  let cache = Cache.create small_geometry in
  let profiler = Sdc_profiler.create ~assoc:4 in
  let addrs = random_addresses ~seed:29 ~count:10_000 ~span:400 in
  let misses = ref 0 and hits_by_depth = Array.make 4 0 in
  Array.iter
    (fun addr ->
      let depth = Cache.lookup cache addr in
      if depth = 0 then incr misses
      else hits_by_depth.(depth - 1) <- hits_by_depth.(depth - 1) + 1;
      Sdc_profiler.record_depth profiler depth)
    addrs;
  let sdc = Sdc_profiler.lifetime_total profiler in
  check_float "misses agree" (float_of_int !misses) (Sdc.misses sdc);
  Array.iteri
    (fun i c ->
      check_float (Printf.sprintf "depth %d" (i + 1)) (float_of_int c)
        (Sdc.counter sdc (i + 1)))
    hits_by_depth

(* ---- Hierarchy -------------------------------------------------------- *)

let tiny_hierarchy ?(llc_assoc = 8) () =
  let level size assoc latency =
    { Hierarchy.geometry = Geometry.make ~size_bytes:size ~line_bytes:64 ~associativity:assoc;
      latency }
  in
  {
    Hierarchy.l1i = level 1024 2 1;
    l1d = level 1024 2 1;
    l2 = level 4096 4 10;
    llc = level 16384 llc_assoc 16;
    memory_latency = 200;
  }

(* Where [Hierarchy.access] satisfied an access, and in how many cycles. *)
let access_level h ~kind ~addr =
  let level = Hierarchy.packed_level (Hierarchy.access h ~kind ~addr) in
  (level, Hierarchy.latency (Hierarchy.config h) ~kind level)

let test_hierarchy_latencies () =
  let h = Hierarchy.create (tiny_hierarchy ()) in
  (* Cold access goes to memory. *)
  let level, latency = access_level h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "memory latency" 216 latency;
  Alcotest.(check bool) "hit level" true (level = Hierarchy.Memory);
  (* Immediately again: L1 hit. *)
  let packed = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "l1 latency" 1
    (Hierarchy.latency (Hierarchy.config h) ~kind:Hierarchy.Load
       (Hierarchy.packed_level packed));
  Alcotest.(check int) "no llc depth on l1 hit" 0 (Hierarchy.packed_llc_depth packed)

let test_hierarchy_l2_path () =
  let h = Hierarchy.create (tiny_hierarchy ()) in
  (* Fill L1 set so the first line falls to L2 but stays there. *)
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:0);
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:1024);
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:2048);
  let level, latency = access_level h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check bool) "L2 hit" true (level = Hierarchy.L2);
  Alcotest.(check int) "L2 latency" 10 latency

let test_hierarchy_perfect_llc () =
  let h = Hierarchy.create ~perfect_llc:true (tiny_hierarchy ()) in
  let level, latency = access_level h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check bool) "perfect LLC hits" true (level = Hierarchy.Llc);
  Alcotest.(check int) "llc latency" 16 latency;
  Alcotest.(check int) "no misses" 0 (Hierarchy.llc_misses h);
  Alcotest.(check int) "counted access" 1 (Hierarchy.llc_accesses h)

let test_hierarchy_fetch_uses_l1i () =
  let h = Hierarchy.create (tiny_hierarchy ()) in
  ignore (Hierarchy.access h ~kind:Hierarchy.Fetch ~addr:0);
  (* The same line via the data side must still miss L1D (separate caches),
     but hit in L2 where the fetch installed it. *)
  let level, _ = access_level h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check bool) "L2 hit via shared L2" true (level = Hierarchy.L2)

let test_hierarchy_shared_llc () =
  let config = tiny_hierarchy () in
  let shared = Cache.create config.Hierarchy.llc.Hierarchy.geometry in
  let a = Hierarchy.create ~llc:shared config in
  let b = Hierarchy.create ~llc:shared config in
  ignore (Hierarchy.access a ~kind:Hierarchy.Load ~addr:0);
  (* Core B misses its private levels but finds the line in the shared
     LLC. *)
  let level, _ = access_level b ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check bool) "hits shared LLC" true (level = Hierarchy.Llc);
  Alcotest.(check int) "a's stats" 1 (Hierarchy.llc_misses a);
  Alcotest.(check int) "b's stats" 0 (Hierarchy.llc_misses b)

let test_hierarchy_geometry_mismatch () =
  let config = tiny_hierarchy () in
  let wrong = Cache.create small_geometry in
  Alcotest.(check bool) "mismatch raises" true
    (try
       ignore (Hierarchy.create ~llc:wrong config);
       false
     with Invalid_argument _ -> true)

(* ---- Configs ----------------------------------------------------------- *)

let test_configs_table2 () =
  let expected =
    [ (1, 512, 8, 16); (2, 512, 16, 20); (3, 1024, 8, 18);
      (4, 1024, 16, 22); (5, 2048, 8, 20); (6, 2048, 16, 24) ]
  in
  List.iter
    (fun (n, kb, assoc, latency) ->
      let level = Configs.llc_config n in
      Alcotest.(check int) "size" (kb * 1024)
        level.Hierarchy.geometry.Geometry.size_bytes;
      Alcotest.(check int) "assoc" assoc
        level.Hierarchy.geometry.Geometry.associativity;
      Alcotest.(check int) "latency" latency level.Hierarchy.latency)
    expected;
  Alcotest.(check bool) "config 7 raises" true
    (try ignore (Configs.llc_config 7); false with Invalid_argument _ -> true)

let test_configs_table1 () =
  let b = Configs.baseline () in
  Alcotest.(check int) "L1I" (Geometry.kib 32) b.Hierarchy.l1i.Hierarchy.geometry.Geometry.size_bytes;
  Alcotest.(check int) "L1I ways" 4 b.Hierarchy.l1i.Hierarchy.geometry.Geometry.associativity;
  Alcotest.(check int) "L1D ways" 8 b.Hierarchy.l1d.Hierarchy.geometry.Geometry.associativity;
  Alcotest.(check int) "L2 size" (Geometry.kib 256) b.Hierarchy.l2.Hierarchy.geometry.Geometry.size_bytes;
  Alcotest.(check int) "memory" 200 b.Hierarchy.memory_latency;
  Alcotest.(check int) "default LLC is config #1" (Geometry.kib 512)
    b.Hierarchy.llc.Hierarchy.geometry.Geometry.size_bytes

(* ---- qcheck properties -------------------------------------------------- *)

(* Hits, misses, occupancy and contents of [cache] equal [model]'s. *)
let same_state cache model ~owners ~lines =
  Cache.hits cache = model.Model.hits
  && Cache.misses cache = model.Model.misses
  && Cache.resident_lines cache = Model.resident_lines model
  && List.for_all
       (fun owner -> Cache.owner_lines cache ~owner = Model.owner_lines model ~owner)
       (List.init owners Fun.id)
  && List.for_all
       (fun line -> Cache.probe cache (line * 64) = Model.probe model (line * 64))
       (List.init lines Fun.id)

(* The cache against [Model] over a random stream: every access's depth,
   then the final state. *)
let cache_matches_model ~policy ?partition ~owners seed =
  let cache = Cache.create ~policy ?partition small_geometry in
  let model = Model.create ~policy ?partition small_geometry in
  let rng = Rng.create ~seed in
  let ok = ref true in
  for _ = 1 to 3_000 do
    let owner = Rng.int rng owners and addr = Rng.int rng 64 * 64 in
    let got, want =
      if partition = None then (Cache.lookup cache addr, Model.access model addr)
      else (Cache.lookup_as cache ~owner addr, Model.access_as model ~owner addr)
    in
    if got <> want then ok := false
  done;
  !ok && same_state cache model ~owners ~lines:64

(* One core's hierarchy built from [Model] caches: L1 (instruction or data
   side), then L2, then the LLC (none needed when perfect), then memory.
   Returns where an access was satisfied and its LLC depth. *)
let hierarchy_model ~llc ~owner ~perfect_llc config =
  let l1i = Model.create config.Hierarchy.l1i.Hierarchy.geometry in
  let l1d = Model.create config.Hierarchy.l1d.Hierarchy.geometry in
  let l2 = Model.create config.Hierarchy.l2.Hierarchy.geometry in
  fun ~kind addr ->
    let l1 = if kind = Hierarchy.Fetch then l1i else l1d in
    if Model.access l1 addr > 0 then (Hierarchy.L1, 0)
    else if Model.access l2 addr > 0 then (Hierarchy.L2, 0)
    else
      let depth = if perfect_llc then 1 else Model.access_as llc ~owner addr in
      ((if depth > 0 then Hierarchy.Llc else Hierarchy.Memory), depth)

(* Two cores share a way-partitioned LLC (or each has a private or perfect
   one); each core's [Hierarchy.access] must match its model access for
   access, count the same LLC accesses and misses, and leave its LLC in
   the model's state. *)
let hierarchy_matches_model ~shared ~perfect_llc seed =
  let config = tiny_hierarchy () in
  let geometry = config.Hierarchy.llc.Hierarchy.geometry in
  let partition = if shared then Some [| 3; 5 |] else None in
  let shared_llc = Option.map (fun p -> Cache.create ~partition:p geometry) partition in
  let shared_model = Model.create ?partition geometry in
  let cores =
    Array.init 2 (fun owner ->
        let llc = if shared then shared_model else Model.create geometry in
        ( Hierarchy.create ?llc:shared_llc ~llc_owner:owner ~perfect_llc config,
          hierarchy_model ~llc ~owner ~perfect_llc config,
          llc ))
  in
  let llc_accesses = Array.make 2 0 and llc_misses = Array.make 2 0 in
  let rng = Rng.create ~seed in
  let ok = ref true in
  for _ = 1 to 4_000 do
    let core = Rng.int rng 2 in
    let h, model, _ = cores.(core) in
    let kind =
      match Rng.int rng 3 with
      | 0 -> Hierarchy.Fetch
      | 1 -> Hierarchy.Load
      | _ -> Hierarchy.Store
    in
    let addr = Rng.int rng 512 * 64 in
    let packed = Hierarchy.access h ~kind ~addr in
    let level, depth = model ~kind addr in
    if level = Hierarchy.Llc || level = Hierarchy.Memory then
      llc_accesses.(core) <- llc_accesses.(core) + 1;
    if level = Hierarchy.Memory then llc_misses.(core) <- llc_misses.(core) + 1;
    if Hierarchy.packed_level packed <> level || Hierarchy.packed_llc_depth packed <> depth
    then ok := false
  done;
  !ok
  && Array.for_all Fun.id
       (Array.mapi
          (fun core (h, _, llc) ->
            Hierarchy.llc_accesses h = llc_accesses.(core)
            && Hierarchy.llc_misses h = llc_misses.(core)
            && same_state (Hierarchy.llc h) llc ~owners:2 ~lines:512)
          cores)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"lookup = access (LRU)" ~count:50 small_int
      (cache_matches_model ~policy:Replacement.Lru ~owners:1);
    Test.make ~name:"lookup = access (FIFO)" ~count:50 small_int
      (cache_matches_model ~policy:Replacement.Fifo ~owners:1);
    Test.make ~name:"lookup = access (Random seed)" ~count:50
      (pair small_int small_int)
      (fun (policy_seed, seed) ->
        cache_matches_model ~policy:(Replacement.Random policy_seed) ~owners:1
          seed);
    Test.make ~name:"lookup_as = access_as (way-partitioned)" ~count:50
      small_int
      (cache_matches_model ~policy:Replacement.Lru ~partition:[| 1; 2; 1 |]
         ~owners:3);
    Test.make ~name:"hierarchy = model (private LLC)" ~count:30 small_int
      (hierarchy_matches_model ~shared:false ~perfect_llc:false);
    Test.make ~name:"hierarchy = model (perfect LLC)" ~count:30 small_int
      (hierarchy_matches_model ~shared:false ~perfect_llc:true);
    Test.make ~name:"hierarchy = model (shared partitioned LLC)" ~count:30
      small_int
      (hierarchy_matches_model ~shared:true ~perfect_llc:false);
    Test.make ~name:"hit depth never exceeds associativity" ~count:50
      small_int
      (fun seed ->
        let cache = Cache.create small_geometry in
        let rng = Rng.create ~seed in
        let ok = ref true in
        for _ = 1 to 2000 do
          let d = Cache.lookup cache (Rng.int rng 1024 * 64) in
          if d < 0 || d > 4 then ok := false
        done;
        !ok);
    Test.make ~name:"misses_with_ways is monotone decreasing" ~count:200
      (pair small_int (pair (float_range 0.0 8.0) (float_range 0.0 2.0)))
      (fun (seed, (ways, delta)) ->
        let rng = Rng.create ~seed in
        let sdc = Sdc.create ~assoc:8 in
        for _ = 1 to 100 do
          Sdc.record sdc ~depth:(1 + Rng.int rng 12)
        done;
        Sdc.misses_with_ways sdc ~ways:(ways +. delta)
        <= Sdc.misses_with_ways sdc ~ways +. 1e-9);
    Test.make ~name:"LRU inclusion: fewer ways never means fewer misses"
      ~count:50 small_int
      (fun seed ->
        let g8 = Geometry.make ~size_bytes:(16 * 8 * 64) ~line_bytes:64 ~associativity:8 in
        let g4 = Geometry.make ~size_bytes:(16 * 4 * 64) ~line_bytes:64 ~associativity:4 in
        let c8 = Cache.create g8 and c4 = Cache.create g4 in
        let rng = Rng.create ~seed in
        for _ = 1 to 5000 do
          let addr = Rng.int rng 512 * 64 in
          ignore (Cache.lookup c8 addr);
          ignore (Cache.lookup c4 addr)
        done;
        Cache.misses c4 >= Cache.misses c8);
  ]

let tests =
  [
    ( "cache.geometry",
      [
        Alcotest.test_case "derived fields" `Quick test_geometry_derived;
        Alcotest.test_case "indexing" `Quick test_geometry_indexing;
        Alcotest.test_case "invalid geometry" `Quick test_geometry_invalid;
        Alcotest.test_case "describe_size" `Quick test_geometry_describe;
      ] );
    ( "cache.replacement",
      [ Alcotest.test_case "string roundtrip" `Quick test_replacement_strings ] );
    ( "cache.cache",
      [
        Alcotest.test_case "matches reference LRU" `Quick test_cache_matches_reference;
        Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction_order;
        Alcotest.test_case "hit depth" `Quick test_cache_hit_depth;
        Alcotest.test_case "statistics" `Quick test_cache_stats;
        Alcotest.test_case "probe" `Quick test_cache_probe;
        Alcotest.test_case "clear and occupancy" `Quick test_cache_clear_and_occupancy;
        Alcotest.test_case "FIFO ignores refresh" `Quick test_cache_fifo_no_refresh;
        Alcotest.test_case "random policy bounded" `Quick test_cache_random_bounded;
        Alcotest.test_case "working-set behaviour" `Quick test_cache_working_set_behaviour;
      ] );
    ( "cache.sdc",
      [
        Alcotest.test_case "record and counters" `Quick test_sdc_record_and_counters;
        Alcotest.test_case "add and scale" `Quick test_sdc_add_scale;
        Alcotest.test_case "reduce associativity" `Quick test_sdc_reduce_associativity;
        Alcotest.test_case "misses with fractional ways" `Quick test_sdc_misses_with_ways;
        Alcotest.test_case "reduction matches resimulation" `Quick
          test_sdc_reduction_matches_resimulation;
        Alcotest.test_case "error cases" `Quick test_sdc_errors;
      ] );
    ( "cache.profiler",
      [
        Alcotest.test_case "intervals sum to lifetime" `Quick
          test_profiler_intervals_sum_to_total;
        Alcotest.test_case "depths match cache" `Quick test_profiler_depths_match_cache;
      ] );
    ( "cache.hierarchy",
      [
        Alcotest.test_case "latency model" `Quick test_hierarchy_latencies;
        Alcotest.test_case "L2 path" `Quick test_hierarchy_l2_path;
        Alcotest.test_case "perfect LLC" `Quick test_hierarchy_perfect_llc;
        Alcotest.test_case "fetch side" `Quick test_hierarchy_fetch_uses_l1i;
        Alcotest.test_case "shared LLC" `Quick test_hierarchy_shared_llc;
        Alcotest.test_case "geometry mismatch" `Quick test_hierarchy_geometry_mismatch;
      ] );
    ( "cache.configs",
      [
        Alcotest.test_case "Table 2 values" `Quick test_configs_table2;
        Alcotest.test_case "Table 1 baseline" `Quick test_configs_table1;
      ] );
    ("cache.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
