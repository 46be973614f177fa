(* Each set stores tags in recency order: index 0 is MRU.  [fill] tracks how
   many ways of the set are valid; valid tags occupy the prefix.  For FIFO,
   [age_order] tracks tags in insertion order so hits do not disturb the
   victim cursor.  For partitioned caches, [owners] mirrors [recency] with
   the inserting owner of every line. *)
type t = {
  geometry : Geometry.t;
  policy : Replacement.t;
  recency : int array array;  (* per-set tags in recency order (MRU first) *)
  fill : int array;  (* valid ways per set *)
  age_order : int array array option;  (* FIFO: tags in insertion order *)
  rng : Mppm_util.Rng.t option;  (* Random policy only *)
  partition : int array option;  (* way quotas per owner *)
  owners : int array array option;  (* per-set owners, parallel to recency *)
  census : int array;  (* victim-search scratch: valid lines per owner *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
}

let invalid_tag = -1

let create ?(policy = Replacement.Lru) ?partition geometry =
  let sets = geometry.Geometry.num_sets in
  let ways = geometry.Geometry.associativity in
  let make_tags () = Array.init sets (fun _ -> Array.make ways invalid_tag) in
  (match partition with
  | None -> ()
  | Some quotas ->
      if policy <> Replacement.Lru then
        invalid_arg "Cache.create: partitioning requires the LRU policy";
      if Array.length quotas = 0 then invalid_arg "Cache.create: empty partition";
      Array.iter
        (fun q -> if q <= 0 then invalid_arg "Cache.create: non-positive quota")
        quotas;
      if Array.fold_left ( + ) 0 quotas > ways then
        invalid_arg "Cache.create: quotas exceed associativity");
  {
    geometry;
    policy;
    recency = make_tags ();
    fill = Array.make sets 0;
    age_order =
      (match policy with Replacement.Fifo -> Some (make_tags ()) | _ -> None);
    rng =
      (match policy with
      | Replacement.Random seed -> Some (Mppm_util.Rng.create ~seed)
      | _ -> None);
    partition = Option.map Array.copy partition;
    owners = (match partition with Some _ -> Some (make_tags ()) | None -> None);
    census =
      Array.make (match partition with Some q -> Array.length q | None -> 0) 0;
    accesses = 0;
    hits = 0;
    misses = 0;
  }

let geometry t = t.geometry

(* Toplevel so the per-access search allocates no closure; tags are ints,
   so the comparison is monomorphic. *)
(* mppm: unit ways -- way position of a tag probe, -1 when absent *)
let rec scan_set (set : int array) fill tag i =
  if i >= fill then -1
  else if Int.equal set.(i) tag then i
  else scan_set set fill tag (i + 1)

(* mppm: unit ways -- way position of a tag probe, -1 when absent *)
let find_in_set set fill tag = scan_set set fill tag 0

(* Shift a.(0..len-1) down one slot and place [v] at the front.  A manual
   loop beats Array.blit at these sizes (<= 16 elements) and this is the
   simulator's innermost operation.  Monomorphic, so the stores are plain
   int writes with no write barrier. *)
let shift_down_and_front (a : int array) len v =
  for i = len - 1 downto 1 do
    a.(i) <- a.(i - 1)
  done;
  a.(0) <- v

(* Choose the victim recency position for a partitioned set: an owner at or
   above quota evicts its own LRU line; otherwise the LRU line of any
   over-quota owner; otherwise the global LRU line (preferring other
   owners' lines). *)
(* The three victim predicates, int-coded so the recency scan below stays
   closure-free on the miss path: 0 = the owner's own line, 1 = a line of
   any over-quota owner, 2 = any other owner's line. *)
(* mppm: unit _ -- victim predicate *)
let victim_matches kind counts quotas owner o =
  match kind with
  | 0 -> Int.equal o owner
  | 1 -> o >= 0 && o < Array.length quotas && counts.(o) > quotas.(o)
  | _ -> not (Int.equal o owner)

(* Deepest (least-recent) position in [owners_row.(0..from)] matching the
   predicate, or -1. *)
(* mppm: unit ways -- recency depth within a set *)
let rec deepest_from owners_row counts quotas owner kind from =
  if from < 0 then -1
  else if victim_matches kind counts quotas owner owners_row.(from) then from
  else deepest_from owners_row counts quotas owner kind (from - 1)

(* mppm: unit ways -- victim recency position *)
let partition_victim owners_row counts ways quotas owner =
  let n_owners = Array.length quotas in
  Array.fill counts 0 n_owners 0;
  for i = 0 to ways - 1 do
    let o = owners_row.(i) in
    if o >= 0 && o < n_owners then counts.(o) <- counts.(o) + 1
  done;
  if counts.(owner) >= quotas.(owner) && counts.(owner) > 0 then begin
    let pos = deepest_from owners_row counts quotas owner 0 (ways - 1) in
    if pos >= 0 then pos else ways - 1
  end
  else
    let pos = deepest_from owners_row counts quotas owner 1 (ways - 1) in
    if pos >= 0 then pos
    else
      let pos = deepest_from owners_row counts quotas owner 2 (ways - 1) in
      if pos >= 0 then pos else ways - 1

(* Fill [tag] at the front of a full set, dropping the line at recency
   position [victim_pos]. *)
(* mppm: unit _ -- in-place set update *)
let insert t set_idx set tag owner victim_pos =
  shift_down_and_front set (victim_pos + 1) tag;
  match t.owners with
  | Some owners -> shift_down_and_front owners.(set_idx) (victim_pos + 1) owner
  | None -> ()

(* mppm: unit ways -- LRU depth of a hit, 0 on a miss *)
let lookup_as t ~owner addr =
  (* [Geometry.tag] and [Geometry.set_index], spelled out: a call across
     the module boundary per lookup is measurable here. *)
  let tag = addr lsr t.geometry.Geometry.set_shift in
  let set_idx = tag land t.geometry.Geometry.set_mask in
  let set = t.recency.(set_idx) in
  let fill = t.fill.(set_idx) in
  t.accesses <- t.accesses + 1;
  (match t.partition with
  | Some quotas ->
      if owner < 0 || owner >= Array.length quotas then
        invalid_arg "Cache.lookup_as: owner outside the partition"
  | None -> ());
  let pos = find_in_set set fill tag in
  if pos >= 0 then begin
    t.hits <- t.hits + 1;
    shift_down_and_front set (pos + 1) tag;
    (match t.owners with
    | Some owners ->
        let row = owners.(set_idx) in
        shift_down_and_front row (pos + 1) row.(pos)
    | None -> ());
    pos + 1
  end
  else begin
    t.misses <- t.misses + 1;
    let ways = t.geometry.Geometry.associativity in
    if fill < ways then begin
      (* Grow the valid prefix: shift it down, new tag in front. *)
      shift_down_and_front set (fill + 1) tag;
      t.fill.(set_idx) <- fill + 1;
      (match t.owners with
      | Some owners -> shift_down_and_front owners.(set_idx) (fill + 1) owner
      | None -> ());
      match t.age_order with
      | Some ages -> ages.(set_idx).(fill) <- tag
      | None -> ()
    end
    else begin
      let victim_pos =
        match (t.partition, t.policy) with
        | Some quotas, _ ->
            let owners_row =
              match t.owners with Some o -> o.(set_idx) | None -> assert false
            in
            partition_victim owners_row t.census ways quotas owner
        | None, Replacement.Lru -> ways - 1
        | None, Replacement.Random _ ->
            let rng = match t.rng with Some r -> r | None -> assert false in
            Mppm_util.Rng.int rng ways
        | None, Replacement.Fifo ->
            let ages =
              match t.age_order with Some a -> a.(set_idx) | None -> assert false
            in
            (* Victim is the oldest insertion: ages.(0).  Rotate ages and
               replace the victim in the recency array. *)
            let victim_tag = ages.(0) in
            Array.blit ages 1 ages 0 (ways - 1);
            ages.(ways - 1) <- tag;
            let pos = find_in_set set fill victim_tag in
            assert (pos >= 0);
            pos
      in
      insert t set_idx set tag owner victim_pos
    end;
    0
  end

(* mppm: unit ways -- LRU depth of a hit, 0 on a miss *)
let lookup t addr = lookup_as t ~owner:0 addr

let probe t addr =
  let set_idx = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag t.geometry addr in
  find_in_set t.recency.(set_idx) t.fill.(set_idx) tag >= 0

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0

let clear t =
  Array.iteri
    (fun i set ->
      Array.fill set 0 (Array.length set) invalid_tag;
      t.fill.(i) <- 0)
    t.recency;
  (match t.age_order with
  | Some ages ->
      Array.iter (fun set -> Array.fill set 0 (Array.length set) invalid_tag) ages
  | None -> ());
  (match t.owners with
  | Some owners ->
      Array.iter (fun row -> Array.fill row 0 (Array.length row) invalid_tag) owners
  | None -> ());
  reset_stats t

let resident_lines t = Array.fold_left ( + ) 0 t.fill

let owner_lines t ~owner =
  match t.owners with
  | Some owners ->
      let total = ref 0 in
      Array.iteri
        (fun set_idx row ->
          for i = 0 to t.fill.(set_idx) - 1 do
            if row.(i) = owner then incr total
          done)
        owners;
      !total
  | None -> if owner = 0 then resident_lines t else 0

let counters t =
  [
    ("accesses", float_of_int t.accesses);
    ("hits", float_of_int t.hits);
    ("misses", float_of_int t.misses);
  ]
