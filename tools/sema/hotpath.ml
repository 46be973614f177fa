(* Interprocedural hotness propagation and the hot-path perf rules
   (P1-P4).

   A [(* mppm: hot *)] annotation on a toplevel binding marks a hotness
   root.  Hotness propagates transitively over the cross-module
   value-reference graph: from a root with a while/for loop along its
   [loop_calls] (the annotated region is the loop), from a loop-free root
   or a transitively-hot function along its [warm_calls] (the whole body
   minus cold guards).  Every perf site recorded by {!Facts.extract} on a
   reachable function becomes a finding, labeled with the shortest call
   chain back to a root.  Suppression is left to the driver so one
   [(* lint: allow P1 <why> *)] comment behaves exactly like every other
   rule's. *)

module Diag = Mppm_lint.Diag

type entry = {
  h_key : string;  (* unit_key ^ ":" ^ fn_name *)
  h_rel : string;
  h_label : string;  (* "Sdc.add_into" *)
  h_line : int;
  h_root : bool;
  h_chain : string list;  (* labels, root first, this fn last *)
  h_sites : (Facts.perf_site * bool) list;  (* (site, allow-suppressed) *)
}

(* Breadth-first search from all roots at once.  The result maps every
   reached node to its BFS parent ([None] for a root), so it is both the
   reachable set and a shortest chain back to a root for each node.
   Roots and successors are visited in the given order, so ties break
   deterministically. *)
let bfs ~roots ~succs =
  let parent : (string, string option) Hashtbl.t =
    Hashtbl.create ~random:false 256
  in
  let q = Queue.create () in
  let reach p k =
    if not (Hashtbl.mem parent k) then begin
      Hashtbl.replace parent k p;
      Queue.add k q
    end
  in
  List.iter (reach None) roots;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    List.iter (reach (Some k)) (succs k)
  done;
  parent

(* The reached set of a {!bfs} result, sorted. *)
let reached parent =
  Hashtbl.fold (fun k _ acc -> k :: acc) parent [] |> List.sort compare

(* The hot set over plain edges. *)
let closure ~roots ~edges =
  let succs k =
    List.concat_map (fun (src, dsts) -> if src = k then dsts else []) edges
  in
  reached (bfs ~roots ~succs)

(* The hot region of a node: an annotated root with a loop is hot in its
   loops only; everything else (loop-free roots, transitively-hot fns)
   is hot over the whole cold-guard-stripped body. *)
let loop_region (fn : Facts.fn) = fn.Facts.fn_hot && fn.Facts.fn_has_loop

let analyze graph =
  let node k = Option.get (Callgraph.node graph k) in
  let succs k =
    let n = node k in
    let fn = n.Callgraph.fn in
    List.filter_map
      (fun path ->
        Option.map
          (fun (c : Callgraph.node) -> c.Callgraph.key)
          (Callgraph.find graph n.Callgraph.facts path))
      (if loop_region fn then fn.Facts.loop_calls else fn.Facts.warm_calls)
    |> List.sort_uniq compare
  in
  let roots =
    Array.to_list (Callgraph.nodes graph)
    |> List.filter_map (fun (n : Callgraph.node) ->
           if n.Callgraph.fn.Facts.fn_hot then Some n.Callgraph.key else None)
    |> List.sort compare
  in
  let parent = bfs ~roots ~succs in
  let rec chain k acc =
    let acc = Callgraph.label (node k) :: acc in
    match Hashtbl.find parent k with None -> acc | Some p -> chain p acc
  in
  let entries =
    reached parent
    |> List.map (fun k ->
           let n = node k in
           let f = n.Callgraph.facts and fn = n.Callgraph.fn in
           {
             h_key = n.Callgraph.key;
             h_rel = f.Facts.rel;
             h_label = Callgraph.label n;
             h_line = fn.Facts.fn_line;
             h_root = fn.Facts.fn_hot;
             h_chain = chain n.Callgraph.key [];
             h_sites =
               List.map
                 (fun (s : Facts.perf_site) ->
                   ( s,
                     Mppm_lint.Engine.allowed ~allows:f.Facts.allows
                       ~allow_files:f.Facts.allow_files s.Facts.ps_rule
                       s.Facts.ps_line ))
                 (if loop_region fn then fn.Facts.loop_sites
                  else fn.Facts.warm_sites);
           })
  in
  (* Rank: open (unsuppressed) site count descending, then shortest
     chain, then key — the flat-rewrite work-list order. *)
  let open_sites e =
    List.length (List.filter (fun (_, allowed) -> not allowed) e.h_sites)
  in
  List.sort
    (fun a b ->
      match compare (open_sites b) (open_sites a) with
      | 0 -> (
          match compare (List.length a.h_chain) (List.length b.h_chain) with
          | 0 -> compare a.h_key b.h_key
          | c -> c)
      | c -> c)
    entries

let hint = function
  | "P1" ->
      "hot regions must stay allocation-free — hoist or preallocate, or \
       allow with a rationale"
  | "P2" -> "use monomorphic Int.equal/Float.equal on hot paths"
  | "P3" ->
      "hashtable traffic is banned on the hot path — use an array keyed \
       by a dense index"
  | "P4" ->
      "accumulate through a float array cell or an unboxed accumulator \
       argument"
  | _ -> ""

let check entries =
  entries
  |> List.concat_map (fun e ->
         let via =
           match e.h_chain with
           | [ _ ] -> "hot root"
           | chain -> "hot via " ^ String.concat " -> " chain
         in
         List.map
           (fun ((s : Facts.perf_site), _) ->
             {
               Diag.file = e.h_rel;
               line = s.Facts.ps_line;
               rule = s.Facts.ps_rule;
               severity =
                 (if Mppm_lint.Rules.in_lib e.h_rel then Diag.Error
                  else Diag.Warning);
               message =
                 Printf.sprintf "%s on the hot path (%s); %s"
                   s.Facts.ps_what via (hint s.Facts.ps_rule);
             })
           e.h_sites)
