module Invariant = Mppm_util.Invariant

type t = { assoc : int; counters : float array (* length assoc + 1 *) }

(* Tolerant float comparison for the sanitizer's mass-conservation checks:
   counter sums are regrouped, so exact equality is too strict. *)
let mass_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let create ~assoc =
  if assoc <= 0 then invalid_arg "Sdc.create: assoc must be positive";
  { assoc; counters = Array.make (assoc + 1) 0.0 }

let assoc t = t.assoc

(* mppm: hot — per-access SDC update *)
let record t ~depth =
  if depth < 1 then invalid_arg "Sdc.record: depth must be >= 1";
  let i = if depth > t.assoc then t.assoc else depth - 1 in
  t.counters.(i) <- t.counters.(i) +. 1.0

let counter t i =
  if i < 1 || i > t.assoc + 1 then invalid_arg "Sdc.counter: index out of range";
  t.counters.(i - 1)

let well_formed t =
  let ok = ref true in
  for i = 0 to t.assoc do
    let c = t.counters.(i) in
    if not (c >= 0.0 && c < Float.infinity) then ok := false
  done;
  !ok

let clear t = Array.fill t.counters 0 (t.assoc + 1) 0.0

(* The sum accumulates in the destination cell, C_1 first, as
   [Array.fold_left ( +. ) 0.0] does; a float cell is unboxed, so
   neither the running total nor the result is boxed. *)
(* mppm: unit _ -> accesses -> _ -> _ *)
let accesses_into t dst i =
  dst.(i) <- 0.0;
  for j = 0 to t.assoc do
    dst.(i) <- dst.(i) +. t.counters.(j)
  done

let accesses t =
  let cell = Array.make 1 0.0 in
  accesses_into t cell 0;
  cell.(0)

(* mppm: unit _ -> accesses -> _ -> _ *)
let misses_into t dst i = dst.(i) <- t.counters.(t.assoc)

let misses t = t.counters.(t.assoc)
let hits t = accesses t -. misses t

let miss_rate t =
  let total = accesses t in
  if Float.equal total 0.0 then 0.0 else misses t /. total

let copy t = { assoc = t.assoc; counters = Array.copy t.counters }

let add a b =
  if a.assoc <> b.assoc then invalid_arg "Sdc.add: associativity mismatch";
  let sum = { assoc = a.assoc; counters = Array.map2 ( +. ) a.counters b.counters } in
  if Invariant.enabled () then
    Invariant.checkf "sdc.add_mass"
      (mass_close (accesses sum) (accesses a +. accesses b))
      (fun () ->
        Printf.sprintf "sum %g <> %g + %g" (accesses sum) (accesses a)
          (accesses b));
  sum

(* mppm: hot — per-quantum SDC summation *)
let add_into ~dst src =
  if not (Int.equal dst.assoc src.assoc) then
    invalid_arg "Sdc.add_into: associativity mismatch";
  let before =
    if Invariant.enabled () then accesses dst +. accesses src else 0.0
  in
  for i = 0 to dst.assoc do
    dst.counters.(i) <- dst.counters.(i) +. src.counters.(i)
  done;
  if Invariant.enabled () then
    Invariant.check "sdc.add_mass" (mass_close (accesses dst) before)

(* mppm: hot — per-interval window accumulation *)
let add_scaled_into ~dst src ks i =
  if not (Int.equal dst.assoc src.assoc) then
    invalid_arg "Sdc.add_scaled_into: associativity mismatch";
  if ks.(i) < 0.0 then invalid_arg "Sdc.add_scaled_into: negative factor";
  let before =
    if Invariant.enabled () then accesses dst +. (accesses src *. ks.(i))
    else 0.0
  in
  for j = 0 to dst.assoc do
    dst.counters.(j) <- dst.counters.(j) +. (src.counters.(j) *. ks.(i))
  done;
  if Invariant.enabled () then
    Invariant.check "sdc.add_mass" (mass_close (accesses dst) before)

let scale t k =
  if k < 0.0 then invalid_arg "Sdc.scale: negative factor";
  let scaled = { assoc = t.assoc; counters = Array.map (fun v -> v *. k) t.counters } in
  if Invariant.enabled () then
    Invariant.check "sdc.scale_mass"
      (mass_close (accesses scaled) (accesses t *. k));
  scaled

let reduce_associativity t ~assoc:new_assoc =
  if new_assoc <= 0 || new_assoc > t.assoc then
    invalid_arg "Sdc.reduce_associativity: bad target associativity";
  let counters = Array.make (new_assoc + 1) 0.0 in
  for i = 0 to new_assoc - 1 do
    counters.(i) <- t.counters.(i)
  done;
  for i = new_assoc to t.assoc do
    counters.(new_assoc) <- counters.(new_assoc) +. t.counters.(i)
  done;
  let reduced = { assoc = new_assoc; counters } in
  if Invariant.enabled () then
    Invariant.checkf "sdc.reduce_mass"
      (mass_close (accesses reduced) (accesses t))
      (fun () ->
        Printf.sprintf "%d->%d-way reduction changed mass %g -> %g" t.assoc
          new_assoc (accesses t) (accesses reduced));
  reduced

type probe = {
  mutable ways : float;  (* mppm: unit ways *)
  mutable misses : float;  (* mppm: unit accesses *)
  mutable deeper : float;  (* mppm: unit accesses *)
}

let probe () = { ways = 0.0; misses = 0.0; deeper = 0.0 }

(* misses(k) for integer k ways is the sum of the counters deeper than k.
   The two sums that bracket [ways] run side by side, each from 0 and in
   counter order, in the probe's cells: a flat float record, so no
   running total is boxed. *)
(* mppm: hot — per-quantum miss projection *)
let misses_with_ways_into t p =
  if p.ways < 0.0 then invalid_arg "Sdc.misses_with_ways: negative ways";
  if p.ways >= float_of_int t.assoc then p.misses <- t.counters.(t.assoc)
  else begin
    let k = int_of_float (floor p.ways) in
    p.misses <- 0.0;
    p.deeper <- 0.0;
    for j = k to t.assoc do
      p.misses <- p.misses +. t.counters.(j);
      if j > k then p.deeper <- p.deeper +. t.counters.(j)
    done;
    let frac = p.ways -. float_of_int k in
    (* lint: allow U1 the interpolation weight [ways -. floor ways] is a dimensionless fraction of one way *)
    p.misses <- p.misses +. (frac *. (p.deeper -. p.misses))
  end

let misses_with_ways t ~ways =
  let p = probe () in
  p.ways <- ways;
  misses_with_ways_into t p;
  p.misses

let to_list t = Array.to_list t.counters

let of_list ~assoc counters =
  if List.length counters <> assoc + 1 then
    invalid_arg "Sdc.of_list: length must be assoc + 1";
  if List.exists (fun c -> c < 0.0) counters then
    invalid_arg "Sdc.of_list: negative counter";
  { assoc; counters = Array.of_list counters }

let pp ppf t =
  Format.fprintf ppf "@[<h>SDC(%d-way:" t.assoc;
  Array.iteri
    (fun i c ->
      if i = t.assoc then Format.fprintf ppf " >%.0f" c
      else Format.fprintf ppf " %.0f" c)
    t.counters;
  Format.fprintf ppf ")@]"
