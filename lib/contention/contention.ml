module Sdc = Mppm_cache.Sdc

type model =
  | Foa
  | Sdc_competition
  | Prob of { iterations : int }
  | Way_partition of float array

let default = Foa

type prediction = {
  isolated_misses : float array;
  shared_misses : float array;
  extra_misses : float array;
  effective_ways : float array;
  total : float array;
  probe : Sdc.probe;
}

(* mppm: unit prediction *)
let prediction n =
  {
    isolated_misses = Array.make n 0.0;
    shared_misses = Array.make n 0.0;
    extra_misses = Array.make n 0.0;
    effective_ways = Array.make n 0.0;
    total = Array.make 1 0.0;
    probe = Sdc.probe ();
  }

(* mppm: unit ways *)
let check_inputs sdcs out =
  let n = Array.length sdcs in
  if Int.equal n 0 then invalid_arg "Contention.predict: no programs";
  if not (Int.equal (Array.length out.shared_misses) n) then
    invalid_arg "Contention.predict_into: prediction sized for another mix";
  let assoc = Sdc.assoc sdcs.(0) in
  for i = 0 to n - 1 do
    if not (Int.equal (Sdc.assoc sdcs.(i)) assoc) then
      invalid_arg "Contention.predict: associativity mismatch"
  done;
  assoc

(* [out.total.(0)] <- the left-to-right sum of [a], from 0. *)
(* mppm: unit _ *)
let sum_into out a =
  out.total.(0) <- 0.0;
  for i = 0 to Array.length a - 1 do
    out.total.(0) <- out.total.(0) +. a.(i)
  done

(* Program [i]'s misses at [effective_ways.(i)] ways, into
   [shared_misses.(i)]. *)
(* mppm: unit _ *)
let shared_at_ways out sdcs i =
  out.probe.Sdc.ways <- out.effective_ways.(i);
  Sdc.misses_with_ways_into sdcs.(i) out.probe;
  out.shared_misses.(i) <- out.probe.Sdc.misses

(* Isolated and extra misses, once [shared_misses] and [effective_ways]
   are in place: extra is [max 0 (shared - isolated)]. *)
(* mppm: unit _ *)
let finish sdcs out =
  for i = 0 to Array.length sdcs - 1 do
    Sdc.misses_into sdcs.(i) out.isolated_misses i;
    out.extra_misses.(i) <-
      Float.max 0.0 (out.shared_misses.(i) -. out.isolated_misses.(i))
  done

(* mppm: unit _ *)
let no_contention sdcs assoc out =
  for i = 0 to Array.length sdcs - 1 do
    Sdc.misses_into sdcs.(i) out.shared_misses i;
    out.effective_ways.(i) <- float_of_int assoc
  done;
  finish sdcs out

(* FOA: effective ways proportional to access frequency.  Accesses are
   counted in [extra_misses] until [finish] overwrites it. *)
(* mppm: unit _ *)
let predict_foa sdcs assoc out =
  let accesses = out.extra_misses in
  for i = 0 to Array.length sdcs - 1 do
    Sdc.accesses_into sdcs.(i) accesses i
  done;
  sum_into out accesses;
  if out.total.(0) <= 0.0 then no_contention sdcs assoc out
  else begin
    for i = 0 to Array.length sdcs - 1 do
      out.effective_ways.(i) <-
        float_of_int assoc *. accesses.(i) /. out.total.(0);
      shared_at_ways out sdcs i
    done;
    finish sdcs out
  end

(* The first program whose next (deeper) counter beats [out.total.(0)],
   the best gain so far, scanning [p .. n-1]; [best] if none does.  The
   ways each program owns so far are counted in [effective_ways]. *)
(* mppm: unit _ *)
let rec best_bidder sdcs assoc out p best =
  if p >= Array.length sdcs then best
  else if out.effective_ways.(p) < float_of_int assoc then begin
    let owned = int_of_float out.effective_ways.(p) in
    if Sdc.counter sdcs.(p) (owned + 1) > out.total.(0) then begin
      out.total.(0) <- Sdc.counter sdcs.(p) (owned + 1);
      best_bidder sdcs assoc out (p + 1) p
    end
    else best_bidder sdcs assoc out (p + 1) best
  end
  else best_bidder sdcs assoc out (p + 1) best

(* Stack-distance competition: greedily hand out the A ways, one at a time,
   to the program whose next (deeper) stack-distance counter is largest —
   i.e. the program that would convert the most hits by owning one more
   way. *)
(* mppm: unit _ *)
let predict_sdc_competition sdcs assoc out =
  let ways = out.effective_ways in
  Array.fill ways 0 (Array.length ways) 0.0;
  for _ = 1 to assoc do
    out.total.(0) <- Float.neg_infinity;
    let best = best_bidder sdcs assoc out 0 (-1) in
    if best >= 0 then ways.(best) <- ways.(best) +. 1.0
  done;
  for i = 0 to Array.length sdcs - 1 do
    shared_at_ways out sdcs i
  done;
  finish sdcs out

(* Prob-style dilation: between two accesses by program p at stack distance
   d, co-runners allocate (d / accesses_p) * sum_q misses_q new lines on
   average, dilating the distance to d * (1 + others_misses / accesses_p).
   An access survives iff its dilated distance fits in A, i.e. its original
   distance fits in A / (1 + r).  Misses feed back into the dilation, so we
   iterate to a fixed point.  Accesses are held in [isolated_misses] until
   [finish] overwrites it. *)
(* mppm: unit _ *)
let predict_prob ~iterations sdcs assoc out =
  let n = Array.length sdcs in
  let accesses = out.isolated_misses and shared = out.shared_misses in
  for p = 0 to n - 1 do
    Sdc.accesses_into sdcs.(p) accesses p;
    Sdc.misses_into sdcs.(p) shared p;
    out.effective_ways.(p) <- float_of_int assoc
  done;
  for _ = 1 to max 1 iterations do
    sum_into out shared;
    for p = 0 to n - 1 do
      if accesses.(p) > 0.0 then begin
        let others = out.total.(0) -. shared.(p) in
        let dilation = 1.0 +. (others /. accesses.(p)) in
        out.effective_ways.(p) <- float_of_int assoc /. dilation;
        shared_at_ways out sdcs p
      end
    done
  done;
  finish sdcs out

(* Way partitioning decouples the programs entirely: each one owns its
   quota regardless of how the others behave, so its shared misses are its
   isolated SDC evaluated at the quota. *)
(* mppm: unit _ *)
let predict_way_partition quotas sdcs assoc out =
  if Array.length quotas < Array.length sdcs then
    invalid_arg "Contention.predict: partition smaller than the mix";
  Array.iter
    (fun q -> if q <= 0.0 then invalid_arg "Contention.predict: non-positive quota")
    quotas;
  for i = 0 to Array.length sdcs - 1 do
    out.effective_ways.(i) <- Float.min quotas.(i) (float_of_int assoc);
    shared_at_ways out sdcs i
  done;
  finish sdcs out

(* mppm: unit _ *)
(* mppm: hot — per-quantum FOA / contention prediction *)
let predict_into model sdcs out =
  let assoc = check_inputs sdcs out in
  match model with
  | Way_partition quotas -> predict_way_partition quotas sdcs assoc out
  | (Foa | Sdc_competition | Prob _) when Int.equal (Array.length sdcs) 1 ->
      no_contention sdcs assoc out
  | Foa -> predict_foa sdcs assoc out
  | Sdc_competition -> predict_sdc_competition sdcs assoc out
  | Prob { iterations } -> predict_prob ~iterations sdcs assoc out

let predict model sdcs =
  let out = prediction (Array.length sdcs) in
  predict_into model sdcs out;
  out

let model_name = function
  | Foa -> "foa"
  | Sdc_competition -> "sdc"
  | Prob { iterations } -> Printf.sprintf "prob:%d" iterations
  | Way_partition quotas ->
      "part:"
      ^ String.concat ","
          (List.map (Printf.sprintf "%g") (Array.to_list quotas))

let of_string s =
  match String.lowercase_ascii s with
  | "foa" -> Foa
  | "sdc" -> Sdc_competition
  | "prob" -> Prob { iterations = 5 }
  | s when String.length s > 5 && String.sub s 0 5 = "prob:" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some iterations when iterations > 0 -> Prob { iterations }
      | Some _ | None -> invalid_arg "Contention.of_string: bad prob iterations")
  | s when String.length s > 5 && String.sub s 0 5 = "part:" -> (
      try
        Way_partition
          (String.sub s 5 (String.length s - 5)
          |> String.split_on_char ','
          |> List.map float_of_string
          |> Array.of_list)
      with Failure _ -> invalid_arg "Contention.of_string: bad partition")
  | _ ->
      invalid_arg "Contention.of_string: expected foa|sdc|prob[:n]|part:<ways>"

let pp ppf model = Format.pp_print_string ppf (model_name model)
