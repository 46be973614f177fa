(* Dimensional analysis over the unit skeletons (rules U1-U3).

   The pass mirrors the other cross-module analyses: per-file facts
   (here {!Facts.uexpr} bodies plus annotation strings) feed a
   whole-tree table, a fixed-round chaotic iteration propagates inferred
   units across call edges, and a final pass over [lib/] bodies emits
   findings.  The lattice is deliberately three-valued: [Any] (no
   constraint yet) never blocks, [Opaque] (can't reason) never fires,
   and only two conflicting [Known]s produce a diagnostic — so every
   finding is backed by two annotation- or convention-rooted units. *)

module Diag = Mppm_lint.Diag

(* ------------------------------------------------------------------ *)
(* The unit semilattice                                               *)
(* ------------------------------------------------------------------ *)

type t =
  | Any
  | Known of { dims : (string * int) list; cum : bool }
  | Opaque

(* Synonym folding keeps the dimension vocabulary small: hits, misses
   and accesses are all cache-access counts; singular and plural forms
   collapse. *)
let canon_dim d =
  match String.lowercase_ascii d with
  | "hit" | "hits" | "miss" | "misses" | "access" | "accesses" -> "accesses"
  | "cycle" | "cycles" -> "cycles"
  | "insn" | "insns" | "instruction" | "instructions" -> "insns"
  | "interval" | "intervals" -> "intervals"
  | "way" | "ways" -> "ways"
  | "byte" | "bytes" -> "bytes"
  | "program" | "programs" -> "programs"
  | "quantum" | "quanta" -> "quanta"
  | d -> d

let norm_dims dims =
  let tbl = Hashtbl.create ~random:false 8 in
  List.iter
    (fun (d, e) ->
      let d = canon_dim d in
      let prev = match Hashtbl.find_opt tbl d with Some p -> p | None -> 0 in
      Hashtbl.replace tbl d (prev + e))
    dims;
  Hashtbl.fold (fun d e acc -> if e = 0 then acc else (d, e) :: acc) tbl []
  |> List.sort compare

let known ?(cum = false) dims = Known { dims = norm_dims dims; cum }
let dimensionless = Known { dims = []; cum = false }

let equal a b =
  match (a, b) with
  | Any, Any | Opaque, Opaque -> true
  | Known a, Known b -> a.dims = b.dims && a.cum = b.cum
  | _ -> false

let join a b =
  match (a, b) with
  | Any, u | u, Any -> u
  | Opaque, _ | _, Opaque -> Opaque
  | Known _, Known _ -> if equal a b then a else Opaque

let mul a b =
  match (a, b) with
  | Opaque, _ | _, Opaque -> Opaque
  | Any, u | u, Any -> u
  | Known a, Known b ->
      Known { dims = norm_dims (a.dims @ b.dims); cum = a.cum || b.cum }

let inverse = function
  | Known k -> Known { k with dims = List.map (fun (d, e) -> (d, -e)) k.dims }
  | u -> u

(* A ratio of cumulative totals is a run-so-far average, not a prefix
   sum: nothing discharges it by subtraction, so the flavor drops. *)
let div a b =
  match mul a (inverse b) with
  | Known k -> Known { k with cum = false }
  | u -> u

(* ------------------------------------------------------------------ *)
(* Parsing and rendering                                              *)
(* ------------------------------------------------------------------ *)

let split_trim c s =
  String.split_on_char c s |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* One multiplicative factor: "cycles", "accesses^2", "1". *)
let parse_factor sign f =
  match split_trim '^' f with
  | [ d; e ] -> (
      match int_of_string_opt e with
      | Some e -> [ (d, sign * e) ]
      | None -> [ (d, sign) ])
  | _ -> if f = "1" then [] else [ (f, sign) ]

let parse_product sign p =
  String.map (fun c -> if c = '*' || c = '.' then ' ' else c) p
  |> split_trim ' '
  |> List.concat_map (parse_factor sign)

let rec parse s =
  let s = String.trim s in
  let low = String.lowercase_ascii s in
  if s = "" || s = "_" || low = "any" then Any
  else if low = "opaque" then Opaque
  else if low = "1" || low = "dimensionless" then dimensionless
  else if
    String.length low > 11
    && String.sub low 0 11 = "cumulative "
  then
    match parse (String.sub s 11 (String.length s - 11)) with
    | Known k -> Known { k with cum = true }
    | u -> u
  else if
    String.length low > 6
    && String.sub low 0 6 = "ratio<"
    && s.[String.length s - 1] = '>'
  then
    match split_trim ',' (String.sub s 6 (String.length s - 7)) with
    | [ a; b ] -> div (parse a) (parse b)
    | _ -> Opaque
  else
    match split_trim '/' s with
    | [] -> Any
    | num :: dens ->
        known
          (parse_product 1 num @ List.concat_map (parse_product (-1)) dens)

let to_string = function
  | Any -> "_"
  | Opaque -> "opaque"
  | Known { dims; cum } ->
      let part l =
        String.concat "*"
          (List.map
             (fun (d, e) -> if e = 1 then d else Printf.sprintf "%s^%d" d e)
             l)
      in
      let num = List.filter (fun (_, e) -> e > 0) dims in
      let den =
        List.filter (fun (_, e) -> e < 0) dims
        |> List.map (fun (d, e) -> (d, -e))
      in
      let s =
        (if num = [] then "1" else part num)
        ^ if den = [] then "" else "/" ^ part den
      in
      if cum then "cumulative " ^ s else s

type usig = { sig_params : (string option * t) list; sig_result : t }

let parse_sig s =
  (* Split on "->" arrows; each non-final component may carry a
     "label:" prefix binding it to a labeled parameter. *)
  let parts =
    let n = String.length s in
    let rec go start i acc =
      if i >= n then List.rev (String.sub s start (n - start) :: acc)
      else if i + 1 < n && s.[i] = '-' && s.[i + 1] = '>' then
        go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
      else go start (i + 1) acc
    in
    List.map String.trim (go 0 0 [])
  in
  match List.rev parts with
  | [] | [ "" ] -> { sig_params = []; sig_result = Any }
  | result :: rev_params ->
      let param p =
        match String.index_opt p ':' with
        | Some i when i > 0 ->
            ( Some (String.trim (String.sub p 0 i)),
              parse (String.sub p (i + 1) (String.length p - i - 1)) )
        | _ -> (None, parse p)
      in
      {
        sig_params = List.rev_map param rev_params;
        sig_result = parse result;
      }

(* ------------------------------------------------------------------ *)
(* Naming-convention fallback                                         *)
(* ------------------------------------------------------------------ *)

(* Only the vocabulary this model actually uses, and only tokens that
   are unambiguous: "penalty", "latency" and singular "interval" stay
   unmapped on purpose. *)
let fallback_token tok =
  match tok with
  | "cpi" -> Some (known [ ("cycles", 1); ("insns", -1) ])
  | "ipc" -> Some (known [ ("insns", 1); ("cycles", -1) ])
  | "mpki" -> Some (known [ ("accesses", 1); ("insns", -1) ])
  | "slowdown" | "speedup" | "stp" | "antt" | "fraction" | "ratio" | "rate"
  | "probability" | "prob" | "weight" ->
      Some dimensionless
  | "cycles" | "cycle" -> Some (known [ ("cycles", 1) ])
  | "insns" | "insn" | "instructions" -> Some (known [ ("insns", 1) ])
  | "misses" | "hits" | "accesses" -> Some (known [ ("accesses", 1) ])
  | "intervals" -> Some (known [ ("intervals", 1) ])
  | "ways" -> Some (known [ ("ways", 1) ])
  | "bytes" -> Some (known [ ("bytes", 1) ])
  | "programs" -> Some (known [ ("programs", 1) ])
  | _ -> None

(* The whole lowercased name, then its last '_'-separated segment, then
   its first; a "cum_"/"cumulative_" prefix sets the cumulative flavor. *)
let rec fallback_of_name name =
  let name = String.lowercase_ascii name in
  let strip p =
    let n = String.length p in
    if String.length name > n && String.sub name 0 n = p then
      Some (String.sub name n (String.length name - n))
    else None
  in
  match (strip "cum_", strip "cumulative_") with
  | Some rest, _ | _, Some rest -> (
      match fallback_of_name rest with
      | Some (Known k) -> Some (Known { k with cum = true })
      | u -> u)
  | None, None -> (
      match fallback_token name with
      | Some u -> Some u
      | None -> (
          match split_trim '_' name with
          | [] -> None
          | [ _ ] -> None
          | segs -> (
              let last = List.nth segs (List.length segs - 1) in
              match fallback_token last with
              | Some u -> Some u
              | None -> fallback_token (List.hd segs))))

(* ------------------------------------------------------------------ *)
(* Mismatch classification                                            *)
(* ------------------------------------------------------------------ *)

let count_dims = [ [ ("accesses", 1) ]; [ ("cycles", 1) ]; [ ("insns", 1) ] ]

(* Decide which rule a Known/Known conflict belongs to.  Returns
   [(rule, phrase)]; [None] means the pair is consistent. *)
let classify ?(flavor = false) a b =
  match (a, b) with
  | Known ka, Known kb ->
      if ka.dims = kb.dims then
        if flavor && ka.cum <> kb.cum then
          Some
            ( "U2",
              Printf.sprintf
                "cumulative/per-interval confusion: %s vs %s — only \
                 subtracting two cumulative values discharges the flavor"
                (to_string a) (to_string b) )
        else None
      else if
        (* negation preserves the by-name sort order, so the reciprocal
           test is a direct list comparison *)
        ka.dims <> [] && ka.dims = List.map (fun (d, e) -> (d, -e)) kb.dims
      then
        Some
          ( "U3",
            Printf.sprintf "inverted ratio: %s vs %s" (to_string a)
              (to_string b) )
      else if
        (ka.dims = [ ("intervals", 1) ] && List.mem kb.dims count_dims)
        || (kb.dims = [ ("intervals", 1) ] && List.mem ka.dims count_dims)
      then
        Some
          ( "U3",
            Printf.sprintf
              "interval index used as a count: %s vs %s" (to_string a)
              (to_string b) )
      else
        Some
          ( "U1",
            Printf.sprintf "mixed units: %s vs %s" (to_string a)
              (to_string b) )
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The cross-module table                                             *)
(* ------------------------------------------------------------------ *)

type info = {
  i_params : (string option * t) list;  (* annotation-declared params *)
  mutable i_result : t;
  i_annotated : bool;
}

type ctx = {
  cx_graph : Callgraph.t;
  cx_table : (string, info) Hashtbl.t;
  cx_fields : (string, t) Hashtbl.t;
  mutable cx_emit : bool;
  cx_diags : Diag.t list ref;
  mutable cx_facts : Facts.t;
}

let emit cx ~line rule message =
  if cx.cx_emit && Mppm_lint.Rules.in_lib cx.cx_facts.Facts.rel then
    cx.cx_diags :=
      { Diag.file = cx.cx_facts.Facts.rel; line; rule; severity = Diag.Error;
        message }
      :: !(cx.cx_diags)

(* Check an actual unit against a declared one at an assignment-like
   site (call argument, record field, setfield, declared result): the
   cumulative flavor must match exactly here. *)
let check_assign cx ~line ~what declared actual =
  match classify ~flavor:true declared actual with
  | Some (rule, phrase) ->
      emit cx ~line rule (Printf.sprintf "%s in %s" phrase what)
  | None -> ()

(* The unit a bare name carries by convention alone, [Any] if none. *)
let named name = Option.value ~default:Any (fallback_of_name name)

let field_unit cx f =
  match Hashtbl.find_opt cx.cx_fields f with
  | Some u -> u
  | None -> named f

(* Pair each (label, x) with the unit [params] declares for it: labels
   match declared labels, positional items consume the positional
   declarations in order. *)
let with_declared params items =
  let positional =
    ref
      (List.filter_map (fun (l, u) -> if l = None then Some u else None) params)
  in
  List.map
    (fun (lbl, x) ->
      match (lbl, !positional) with
      | Some _, _ -> (x, List.assoc_opt lbl params)
      | None, u :: rest ->
          positional := rest;
          (x, Some u)
      | None, [] -> (x, None))
    items

let lookup_info cx path =
  Option.bind
    (Callgraph.key_of cx.cx_graph cx.cx_facts path)
    (Hashtbl.find_opt cx.cx_table)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let rec eval cx scope (e : Facts.uexpr) : t =
  match e with
  | Facts.U_opaque -> Opaque
  | Facts.U_const -> Any
  | Facts.U_ident path -> (
      match path with
      | [ name ] when List.mem_assoc name scope -> List.assoc name scope
      | _ -> (
          match lookup_info cx path with
          | Some i -> if i.i_params = [] then i.i_result else Opaque
          | None -> named (match List.rev path with n :: _ -> n | [] -> "")))
  | Facts.U_field f -> field_unit cx f
  | Facts.U_apply { ua_path; ua_args; ua_line } -> (
      let args = List.map (fun (lbl, a) -> (lbl, eval cx scope a)) ua_args in
      match lookup_info cx ua_path with
      | Some i when i.i_params <> [] ->
          let what =
            Printf.sprintf "argument of %s" (String.concat "." ua_path)
          in
          List.iter
            (fun (actual, declared) ->
              Option.iter
                (fun d -> check_assign cx ~line:ua_line ~what d actual)
                declared)
            (with_declared i.i_params args);
          i.i_result
      | Some i -> if i.i_params = [] then Opaque else i.i_result
      | None -> Opaque)
  | Facts.U_arith { uo_op; uo_lhs; uo_rhs; uo_line } ->
      arith cx ~line:uo_line uo_op
        (eval cx scope uo_lhs)
        (eval cx scope uo_rhs)
  | Facts.U_branch es ->
      List.fold_left (fun acc e -> join acc (eval cx scope e)) Any es
  | Facts.U_let { ul_name; ul_rhs; ul_body; ul_line = _ } ->
      let v = eval cx scope ul_rhs in
      eval cx ((ul_name, v) :: scope) ul_body
  | Facts.U_fun { uf_params; uf_body } ->
      let scope =
        List.fold_left
          (fun sc (_, name) -> (name, named name) :: sc)
          scope uf_params
      in
      ignore (eval cx scope uf_body);
      Opaque
  | Facts.U_seq (a, b) ->
      ignore (eval cx scope a);
      eval cx scope b
  | Facts.U_stmt es ->
      List.iter (fun e -> ignore (eval cx scope e)) es;
      Any
  | Facts.U_block es ->
      List.iter (fun e -> ignore (eval cx scope e)) es;
      Opaque
  | Facts.U_record { ur_fields; ur_line } ->
      List.iter
        (fun (f, e) ->
          let v = eval cx scope e in
          if f <> "_base" then
            match Hashtbl.find_opt cx.cx_fields f with
            | Some declared ->
                check_assign cx ~line:ur_line
                  ~what:(Printf.sprintf "field %s" f) declared v
            | None -> ())
        ur_fields;
      Opaque
  | Facts.U_setfield { us_field; us_rhs; us_line } ->
      let v = eval cx scope us_rhs in
      (match Hashtbl.find_opt cx.cx_fields us_field with
      | Some declared ->
          check_assign cx ~line:us_line
            ~what:(Printf.sprintf "field %s" us_field)
            declared v
      | None -> ());
      Any

and arith cx ~line op l r =
  let conflict what =
    (match classify l r with
    | Some (rule, phrase) ->
        emit cx ~line rule (Printf.sprintf "%s in %s" phrase what)
    | None -> ());
    Opaque
  in
  (* Additive-family shape analysis: both Opaque-free operands either
     agree on dimensions or conflict. *)
  let shape =
    match (l, r) with
    | Opaque, _ | _, Opaque -> `Opaque
    | Any, Any -> `Anys
    | Any, Known k | Known k, Any -> `One (k.dims, k.cum)
    | Known ka, Known kb ->
        if ka.dims = kb.dims then `Both (ka.dims, ka.cum, kb.cum)
        else `Conflict
  in
  let cumulative_misuse dims what =
    emit cx ~line "U2"
      (Printf.sprintf what (to_string (Known { dims; cum = false })));
    Opaque
  in
  match (op, shape) with
  | Facts.U_mul, _ -> mul l r
  | Facts.U_div, _ -> div l r
  (* Comparisons are flavor-blind: checking a cumulative counter against
     a per-interval threshold is ordinary control flow. *)
  | Facts.U_cmp, `Conflict ->
      ignore (conflict "comparison");
      Any
  | Facts.U_cmp, _ -> Any
  | _, `Opaque -> Opaque
  | _, `Anys -> Any
  | _, `One (dims, cum) -> Known { dims; cum }
  | _, `Conflict ->
      conflict
        (match op with
        | Facts.U_add -> "addition"
        | Facts.U_sub -> "subtraction"
        | Facts.U_minmax -> "min/max"
        | _ -> "mod")
  | Facts.U_add, `Both (dims, true, true) ->
      cumulative_misuse dims
        "adding two cumulative %s values — cumulative counters compose by \
         subtraction, not addition"
  (* cumulative + per-interval extends the prefix sum *)
  | Facts.U_add, `Both (dims, ca, cb) -> Known { dims; cum = ca || cb }
  (* the discharge: cum - cum is back to per-interval *)
  | Facts.U_sub, `Both (dims, true, true) -> Known { dims; cum = false }
  | Facts.U_sub, `Both (dims, false, true) ->
      cumulative_misuse dims
        "subtracting a cumulative %s counter from a per-interval value — \
         subtract two cumulative readings instead"
  | Facts.U_minmax, `Both (dims, ca, cb) -> Known { dims; cum = ca && cb }
  | _, `Both (dims, ca, _) -> Known { dims; cum = ca }

(* ------------------------------------------------------------------ *)
(* Table construction and the fixpoint                                *)
(* ------------------------------------------------------------------ *)

(* Bind a function's parameters for body evaluation: annotation-declared
   units first (labels by name, positionals in order), the naming
   fallback for the rest. *)
let param_scope (fn : Facts.fn) (i : info) =
  List.map
    (fun (name, declared) ->
      match declared with
      | Some u when not (equal u Any) -> (name, u)
      | _ -> (name, named name))
    (with_declared i.i_params fn.Facts.fn_uparams)

let build_tables graph (facts_list : Facts.t list) =
  let table : (string, info) Hashtbl.t = Hashtbl.create ~random:false 512 in
  let fields : (string, t) Hashtbl.t = Hashtbl.create ~random:false 128 in
  (* Field annotations from every file; a conflicting re-declaration of
     the same field name across modules poisons it to Opaque rather than
     guessing. *)
  List.iter
    (fun (f : Facts.t) ->
      List.iter
        (fun (fname, annot) ->
          let u = parse annot in
          match Hashtbl.find_opt fields fname with
          | Some prev when not (equal prev u) ->
              Hashtbl.replace fields fname Opaque
          | _ -> Hashtbl.replace fields fname u)
        f.Facts.field_units)
    facts_list;
  (* Convention-derived field units fill the gaps but never override an
     annotation. *)
  List.iter
    (fun (f : Facts.t) ->
      List.iter
        (fun (fname, _) ->
          if not (Hashtbl.mem fields fname) then
            match fallback_of_name fname with
            | Some u -> Hashtbl.replace fields fname u
            | None -> ())
        f.Facts.field_units)
    facts_list;
  (* .mli val annotations, keyed like functions. *)
  let mli_annot : (string, string) Hashtbl.t =
    Hashtbl.create ~random:false 256
  in
  List.iter
    (fun (f : Facts.t) ->
      if f.Facts.is_mli then
        List.iter
          (fun (name, annot) ->
            Hashtbl.replace mli_annot
              (Facts.unit_key_of_rel f.Facts.rel ^ ":" ^ name)
              annot)
          f.Facts.val_units)
    facts_list;
  (* The first binding of a key carries its annotation. *)
  List.iter
    (fun ((n : Callgraph.node), (fn : Facts.fn)) ->
      let annot =
        match Hashtbl.find_opt mli_annot n.Callgraph.key with
        | Some a -> Some a
        | None -> fn.Facts.fn_unit_annot
      in
      let i =
        match annot with
        | Some a ->
            let s = parse_sig a in
            {
              i_params = s.sig_params;
              i_result = s.sig_result;
              i_annotated = true;
            }
        | None -> { i_params = []; i_result = Any; i_annotated = false }
      in
      if not (Hashtbl.mem table n.Callgraph.key) then
        Hashtbl.replace table n.Callgraph.key i)
    (Callgraph.bindings graph);
  (* Annotated .mli vals with no scanned body (aliases, re-exports)
     still publish their declared signature. *)
  Hashtbl.iter
    (fun key annot ->
      if not (Hashtbl.mem table key) then
        let s = parse_sig annot in
        Hashtbl.replace table key
          { i_params = s.sig_params; i_result = s.sig_result; i_annotated = true })
    mli_annot;
  (table, fields)

let rounds = 5

let run_inference graph (facts_list : Facts.t list) =
  let table, fields = build_tables graph facts_list in
  let cx =
    {
      cx_graph = graph;
      cx_table = table;
      cx_fields = fields;
      cx_emit = false;
      cx_diags = ref [];
      cx_facts = List.hd facts_list;
    }
  in
  (* Every binding, shadowed ones included, in facts order. *)
  let each_fn f =
    List.iter
      (fun ((n : Callgraph.node), fn) ->
        cx.cx_facts <- n.Callgraph.facts;
        f n.Callgraph.key fn (Hashtbl.find table n.Callgraph.key))
      (Callgraph.bindings graph)
  in
  for _ = 1 to rounds do
    each_fn (fun _ fn i ->
        if not i.i_annotated then
          i.i_result <- eval cx (param_scope fn i) fn.Facts.fn_ubody)
  done;
  (cx, each_fn)

(* ------------------------------------------------------------------ *)
(* The public pass                                                    *)
(* ------------------------------------------------------------------ *)

type fn_class = Annotated | Inferred | Opaque_unit

type coverage = {
  cov_key : string;
  cov_annotated : int;
  cov_inferred : int;
  cov_opaque : int;
  cov_opaque_names : string list;
}

type analysis = {
  u_diags : Diag.t list;
  u_coverage : coverage list;
  u_fn_class : (string * fn_class) list;
}

let analyze graph (facts_list : Facts.t list) =
  match facts_list with
  | [] -> { u_diags = []; u_coverage = []; u_fn_class = [] }
  | _ ->
      let cx, each_fn = run_inference graph facts_list in
      (* Findings pass: re-evaluate every body once with the converged
         table, emitting diagnostics, and check declared-vs-inferred
         consistency for annotated functions. *)
      cx.cx_emit <- true;
      let classes = ref [] in
      each_fn (fun key fn i ->
          let inferred = eval cx (param_scope fn i) fn.Facts.fn_ubody in
          if i.i_annotated then
            check_assign cx ~line:fn.Facts.fn_line
              ~what:
                (Printf.sprintf "declared unit of %s (inferred %s)"
                   fn.Facts.fn_name (to_string inferred))
              i.i_result inferred;
          let cls =
            if i.i_annotated then Annotated
            else
              match i.i_result with Opaque -> Opaque_unit | _ -> Inferred
          in
          classes := (key, cls) :: !classes);
      let class_of = Hashtbl.create ~random:false 512 in
      List.iter (fun (k, c) -> Hashtbl.replace class_of k c) !classes;
      (* Coverage over the public .mli values of lib/ modules. *)
      let coverage =
        List.filter_map
          (fun (f : Facts.t) ->
            if
              f.Facts.is_mli
              && Mppm_lint.Rules.in_lib f.Facts.rel
              && not f.Facts.parse_failed
            then begin
              let key = Facts.unit_key_of_rel f.Facts.rel in
              let ann = ref 0 and inf = ref 0 and opq = ref 0 in
              let opq_names = ref [] in
              List.iter
                (fun (name, _) ->
                  if List.mem_assoc name f.Facts.val_units then incr ann
                  else
                    match Hashtbl.find_opt class_of (key ^ ":" ^ name) with
                    | Some Annotated -> incr ann
                    | Some Inferred -> incr inf
                    | Some Opaque_unit | None ->
                        incr opq;
                        opq_names := name :: !opq_names)
                f.Facts.mli_vals;
              Some
                {
                  cov_key = key;
                  cov_annotated = !ann;
                  cov_inferred = !inf;
                  cov_opaque = !opq;
                  cov_opaque_names = List.rev !opq_names;
                }
            end
            else None)
          facts_list
        |> List.sort compare
      in
      {
        u_diags = List.rev !(cx.cx_diags);
        u_coverage = coverage;
        u_fn_class = List.sort compare !classes;
      }

