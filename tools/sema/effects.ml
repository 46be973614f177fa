(* Transitive per-function effect summaries and the S1/S5 containment
   rules.

   Each top-level function starts from its direct effects (recorded in
   Facts) and absorbs the effects of every resolvable callee to a
   fixpoint over an explicit join-semilattice of summaries.  Propagation
   of the I/O effect stops at the allowlisted units: calling into the
   profile cache or the trace-file store is sanctioned, so the caller
   does not inherit the I/O taint.  The concurrency effect (S5) is
   absorbed at lib/pool/ the same way, and the module-state mutation
   effect (backing S6/S7) at the purity allowlist: the pool internals,
   the obs registry (commutative counters) and the sanitizer's check
   registry are allowed to hold and write module-level state without
   tainting callers.  Lock-class sets (backing S8) propagate with no
   absorption at all — holding a lock is never sanctioned away. *)

module Diag = Mppm_lint.Diag

(* Units allowed to perform (and absorb) file/channel I/O: the profile
   store, the binary trace store, the profile-cache directory management in
   the experiment context, and the observability sink surface. *)
let allowlist =
  [
    "lib/profile/profile";
    "lib/trace/trace_file";
    "lib/experiments/context";
    "lib/obs/sink";
  ]

(* Units allowed to use (and absorb) the Domain/Mutex/Condition/Atomic
   concurrency surface: everything under lib/pool/. *)
let conc_dir = "lib/pool/"

let in_conc_allowlist unit_key = String.starts_with ~prefix:conc_dir unit_key

(* Units sanctioned to hold and mutate module-level state (S6/S7): the
   registry's counters are commutative additions under one lock, and the
   sanitizer's invariant-check registry is result-neutral by contract
   (MPPM_SANITIZE runs are bit-for-bit identical).  lib/pool/ is included
   so the pool's own machinery never taints its callers. *)
let purity_allowlist = [ "lib/obs/registry"; "lib/util/invariant" ]

let in_purity_allowlist unit_key =
  in_conc_allowlist unit_key || List.mem unit_key purity_allowlist

(* The declared lock ordering (S8): the pool mutex is acquired before the
   registry mutex, never the other way around. *)
let lock_order = [ "pool"; "registry" ]

let lock_class_of_unit unit_key =
  if in_conc_allowlist unit_key then Some "pool"
  else if unit_key = "lib/obs/registry" then Some "registry"
  else None

let lock_rank c = List.find_index (String.equal c) lock_order

(* ---- the summary lattice ------------------------------------------------ *)

type summary = {
  e_io : bool;
  e_conc : bool;
  e_rng : bool;
  e_mut_top : bool;  (* writes module-level mutable state *)
  e_mut_arg : bool;  (* writes caller-owned state it was handed *)
  e_raises : bool;
  e_locks : string list;  (* sorted distinct lock classes acquired *)
}

let bottom =
  {
    e_io = false;
    e_conc = false;
    e_rng = false;
    e_mut_top = false;
    e_mut_arg = false;
    e_raises = false;
    e_locks = [];
  }

let merge a b =
  {
    e_io = a.e_io || b.e_io;
    e_conc = a.e_conc || b.e_conc;
    e_rng = a.e_rng || b.e_rng;
    e_mut_top = a.e_mut_top || b.e_mut_top;
    e_mut_arg = a.e_mut_arg || b.e_mut_arg;
    e_raises = a.e_raises || b.e_raises;
    e_locks = List.sort_uniq compare (a.e_locks @ b.e_locks);
  }

let equal (a : summary) b = a = b
let leq a b = equal (merge a b) b

(* ---- per-node state and the fixpoint ------------------------------------ *)

type state = {
  mutable s : summary;
  mutable io_witness : string;
  mutable conc_witness : string;
  mutable mut_witness : string;
}

type table = { graph : Callgraph.t; states : state array }

(* Direct concurrency prims with the file's S5 allow comments already
   applied: a prim on an allowed line never enters the effect lattice, so
   a sanctioned use (e.g. the registry's lock) does not taint its
   callers the way a suppressed-at-report-time diag still would. *)
let conc_prims_of (f : Facts.t) (fn : Facts.fn) =
  List.filter
    (fun (_, line) ->
      not
        (Mppm_lint.Engine.allowed ~allows:f.Facts.allows
           ~allow_files:f.Facts.allow_files "S5" line))
    fn.Facts.prim_conc

(* The lock-order rule needs the raw prims: the registry's allow-file S5
   sanctions its lock's *existence*, not its ordering. *)
let locks_directly (fn : Facts.fn) =
  List.exists (fun (p, _) -> p = "Mutex.lock") fn.Facts.prim_conc

let first_mut scope (fn : Facts.fn) =
  List.find_opt (fun (m : Facts.mutation) -> m.Facts.mut_scope = scope)
    fn.Facts.mutations

(* A node's direct effects, before any callee is absorbed. *)
let direct (n : Callgraph.node) =
  let fn = n.Callgraph.fn in
  let conc_prims = conc_prims_of n.Callgraph.facts fn in
  {
    s =
      {
        e_io = fn.Facts.prim_io <> [];
        e_conc = conc_prims <> [];
        e_rng = fn.Facts.has_rng;
        e_mut_top = first_mut Facts.Mut_toplevel fn <> None;
        e_mut_arg = first_mut Facts.Mut_arg fn <> None;
        e_raises = fn.Facts.raises;
        e_locks =
          (match lock_class_of_unit n.Callgraph.unit_key with
          | Some c when locks_directly fn -> [ c ]
          | _ -> []);
      };
    io_witness = (match fn.Facts.prim_io with (p, _) :: _ -> p | [] -> "");
    conc_witness = (match conc_prims with (p, _) :: _ -> p | [] -> "");
    mut_witness =
      (match first_mut Facts.Mut_toplevel fn with
      | Some m ->
          Printf.sprintf "writes %s via %s" m.Facts.mut_target m.Facts.mut_prim
      | None -> "");
  }

(* Pre-fixpoint seeding: a call passing a module-level value as the first
   positional argument of a callee that mutates its first parameter is a
   write to toplevel state made on the caller's behalf — the shape of the
   registry's [Counter.add counters ...]. *)
let seed_top_arg_calls graph states =
  List.iter
    (fun ((n : Callgraph.node), (fn : Facts.fn)) ->
      let st = states.(n.Callgraph.id) in
      List.iter
        (fun (path, target, _line) ->
          match Callgraph.find graph n.Callgraph.facts path with
          | Some callee
            when callee.Callgraph.fn.Facts.mut_arg0
                 && (not (in_purity_allowlist callee.Callgraph.unit_key))
                 && not st.s.e_mut_top ->
              st.s <- { st.s with e_mut_top = true };
              st.mut_witness <-
                Printf.sprintf "passes module state %s to %s" target
                  (Callgraph.label callee)
          | _ -> ())
        fn.Facts.top_arg_calls)
    (Callgraph.bindings graph)

(* What a caller inherits from [callee]: its summary with the effects the
   callee's unit is sanctioned to absorb masked off.  The caller-owned
   mutation bit never propagates — it describes the callee's own
   parameters, not the caller's. *)
let contribution unit_key s =
  let s = if List.mem unit_key allowlist then { s with e_io = false } else s in
  let s = if in_conc_allowlist unit_key then { s with e_conc = false } else s in
  let s =
    if in_purity_allowlist unit_key then { s with e_mut_top = false } else s
  in
  { s with e_mut_arg = false }

(* Close the summaries over the call graph.  Every binding's callees are
   resolved once, in call order, so the first call that imports an
   effect names the witness; a shadowed binding's calls flow into the
   node of its key. *)
let propagate graph states =
  let edges =
    List.map
      (fun ((n : Callgraph.node), (fn : Facts.fn)) ->
        ( n,
          List.filter_map
            (fun path ->
              match Callgraph.find graph n.Callgraph.facts path with
              | Some c when c.Callgraph.id <> n.Callgraph.id -> Some c
              | _ -> None)
            fn.Facts.calls ))
      (Callgraph.bindings graph)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((n : Callgraph.node), callees) ->
        let st = states.(n.Callgraph.id) in
        List.iter
          (fun (callee : Callgraph.node) ->
            let merged =
              merge st.s
                (contribution callee.Callgraph.unit_key
                   states.(callee.Callgraph.id).s)
            in
            if not (equal merged st.s) then begin
              let witness = Printf.sprintf "call to %s" (Callgraph.label callee) in
              if merged.e_io && not st.s.e_io then st.io_witness <- witness;
              if merged.e_conc && not st.s.e_conc then
                st.conc_witness <- witness;
              if merged.e_mut_top && not st.s.e_mut_top then
                st.mut_witness <- witness;
              st.s <- merged;
              changed := true
            end)
          callees)
      edges
  done

let build graph =
  let states = Array.map direct (Callgraph.nodes graph) in
  seed_top_arg_calls graph states;
  propagate graph states;
  { graph; states }

let find t facts path =
  Option.map
    (fun (n : Callgraph.node) ->
      let st = t.states.(n.Callgraph.id) in
      (n, st.s, st.mut_witness))
    (Callgraph.find t.graph facts path)

(* Every node with its closed state. *)
let each t f =
  Array.iter
    (fun (n : Callgraph.node) -> f n t.states.(n.Callgraph.id))
    (Callgraph.nodes t.graph)

let check t =
  let diags = ref [] in
  let report (n : Callgraph.node) rule message =
    diags :=
      {
        Diag.file = n.Callgraph.facts.Facts.rel;
        line = n.Callgraph.fn.Facts.fn_line;
        rule;
        severity = Diag.Error;
        message;
      }
      :: !diags
  in
  each t (fun n st ->
      let name = n.Callgraph.fn.Facts.fn_name in
      let unit_key = n.Callgraph.unit_key in
      let in_lib = Mppm_lint.Rules.in_lib n.Callgraph.facts.Facts.rel in
      if st.s.e_io && in_lib && not (List.mem unit_key allowlist) then
        report n "S1"
          (Printf.sprintf
             "%s reaches file/channel I/O (%s); lib/ effects must stay inside \
              the allowlisted profile-cache/trace-file/obs-sink modules"
             name st.io_witness);
      if st.s.e_conc && in_lib && not (in_conc_allowlist unit_key) then
        report n "S5"
          (Printf.sprintf
             "%s reaches the Domain/Mutex/Condition/Atomic surface (%s); lib/ \
              concurrency must stay inside lib/pool/ (or carry an allow \
              comment)"
             name st.conc_witness));
  List.sort Diag.compare !diags

let summaries t =
  let rows = ref [] in
  each t (fun n st ->
      let effects =
        List.filter_map
          (fun (name, on) -> if on then Some name else None)
          [
            ("io", st.s.e_io); ("conc", st.s.e_conc); ("rng", st.s.e_rng);
            ("mut-top", st.s.e_mut_top); ("mut-arg", st.s.e_mut_arg);
            ("raises", st.s.e_raises);
          ]
        @ List.map (fun c -> "lock:" ^ c) st.s.e_locks
      in
      rows :=
        ( n.Callgraph.facts.Facts.rel,
          n.Callgraph.fn.Facts.fn_name,
          String.concat "," effects )
        :: !rows);
  List.sort compare !rows
