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
    let rec go acc buf i =
      if i >= String.length s then List.rev (Buffer.contents buf :: acc)
      else if i + 1 < String.length s && s.[i] = '-' && s.[i + 1] = '>' then begin
        let acc = Buffer.contents buf :: acc in
        Buffer.clear buf;
        go acc buf (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go acc buf (i + 1)
      end
    in
    go [] (Buffer.create 16) 0 |> List.map String.trim
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
  cx_env : Resolve.env;
  cx_table : (string, info) Hashtbl.t;
  cx_fields : (string, t) Hashtbl.t;
  mutable cx_emit : bool;
  cx_diags : Diag.t list ref;
  mutable cx_facts : Facts.t;
  mutable cx_self : string;
}

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

let emit cx ~line rule message =
  if cx.cx_emit && in_lib cx.cx_facts.Facts.rel then
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

let lookup_info cx path =
  match path with
  | [ name ] -> (
      match Hashtbl.find_opt cx.cx_table (cx.cx_self ^ ":" ^ name) with
      | Some i -> Some i
      | None -> (
          match Resolve.resolve cx.cx_env cx.cx_facts path with
          | Some (u, m) -> Hashtbl.find_opt cx.cx_table (u ^ ":" ^ m)
          | None -> None))
  | _ -> (
      match Resolve.resolve cx.cx_env cx.cx_facts path with
      | Some (u, m) -> Hashtbl.find_opt cx.cx_table (u ^ ":" ^ m)
      | None -> None)

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
          (* Labeled arguments match declared labels; positional ones
             consume the positional declarations in order. *)
          let positional =
            List.filter (fun (l, _) -> l = None) i.i_params
            |> List.map snd |> ref
          in
          List.iter
            (fun (lbl, actual) ->
              let declared =
                match lbl with
                | Some l -> (
                    match
                      List.find_opt (fun (l', _) -> l' = Some l) i.i_params
                    with
                    | Some (_, u) -> Some u
                    | None -> None)
                | None -> (
                    match !positional with
                    | u :: rest ->
                        positional := rest;
                        Some u
                    | [] -> None)
              in
              match declared with
              | Some d -> check_assign cx ~line:ua_line ~what d actual
              | None -> ())
            args;
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
    | Any, Known k -> `One (k.dims, k.cum, `Right)
    | Known k, Any -> `One (k.dims, k.cum, `Left)
    | Known ka, Known kb ->
        if ka.dims = kb.dims then `Both (ka.dims, ka.cum, kb.cum)
        else `Conflict
  in
  match op with
  | Facts.U_add -> (
      match shape with
      | `Opaque -> Opaque
      | `Anys -> Any
      | `One (dims, cum, _) -> Known { dims; cum }
      | `Both (dims, ca, cb) ->
          if ca && cb then begin
            emit cx ~line "U2"
              (Printf.sprintf
                 "adding two cumulative %s values — cumulative counters \
                  compose by subtraction, not addition"
                 (to_string (Known { dims; cum = false })));
            Opaque
          end
          else
            (* cumulative + per-interval extends the prefix sum *)
            Known { dims; cum = ca || cb }
      | `Conflict -> conflict "addition")
  | Facts.U_sub -> (
      match shape with
      | `Opaque -> Opaque
      | `Anys -> Any
      | `One (dims, cum, _) -> Known { dims; cum }
      | `Both (dims, ca, cb) ->
          if ca && cb then
            (* the discharge: cum - cum is back to per-interval *)
            Known { dims; cum = false }
          else if cb && not ca then begin
            emit cx ~line "U2"
              (Printf.sprintf
                 "subtracting a cumulative %s counter from a per-interval \
                  value — subtract two cumulative readings instead"
                 (to_string (Known { dims; cum = false })));
            Opaque
          end
          else Known { dims; cum = ca }
      | `Conflict -> conflict "subtraction")
  | Facts.U_minmax -> (
      match shape with
      | `Opaque -> Opaque
      | `Anys -> Any
      | `One (dims, cum, _) -> Known { dims; cum }
      | `Both (dims, ca, cb) -> Known { dims; cum = ca && cb }
      | `Conflict -> conflict "min/max")
  | Facts.U_rem -> (
      match shape with
      | `Opaque -> Opaque
      | `Anys -> Any
      | `One (dims, cum, _) -> Known { dims; cum }
      | `Both (dims, ca, _) -> Known { dims; cum = ca }
      | `Conflict -> conflict "mod")
  | Facts.U_cmp -> (
      (* Comparisons are flavor-blind: checking a cumulative counter
         against a per-interval threshold is ordinary control flow. *)
      match shape with
      | `Conflict ->
          ignore (conflict "comparison");
          Any
      | _ -> Any)
  | Facts.U_mul -> mul l r
  | Facts.U_div -> div l r

(* ------------------------------------------------------------------ *)
(* Table construction and the fixpoint                                *)
(* ------------------------------------------------------------------ *)

let fn_key (f : Facts.t) (fn : Facts.fn) =
  Facts.unit_key_of_rel f.Facts.rel ^ ":" ^ fn.Facts.fn_name

(* Bind a function's parameters for body evaluation: annotation-declared
   units first (labels by name, positionals in order), the naming
   fallback for the rest. *)
let param_scope (fn : Facts.fn) (i : info) =
  let positional =
    List.filter (fun (l, _) -> l = None) i.i_params |> List.map snd |> ref
  in
  List.map
    (fun (lbl, name) ->
      let declared =
        match lbl with
        | Some l -> (
            match
              List.find_opt (fun (l', _) -> l' = Some l) i.i_params
            with
            | Some (_, u) -> Some u
            | None -> None)
        | None -> (
            match !positional with
            | u :: rest ->
                positional := rest;
                Some u
            | [] -> None)
      in
      let u =
        match declared with
        | Some u when not (equal u Any) -> u
        | _ -> named name
      in
      (name, u))
    fn.Facts.fn_uparams

let build_tables (facts_list : Facts.t list) =
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
  List.iter
    (fun (f : Facts.t) ->
      if (not f.Facts.is_mli) && not f.Facts.parse_failed then
        List.iter
          (fun (fn : Facts.fn) ->
            let key = fn_key f fn in
            let annot =
              match Hashtbl.find_opt mli_annot key with
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
              | None ->
                  { i_params = []; i_result = Any; i_annotated = false }
            in
            if not (Hashtbl.mem table key) then Hashtbl.replace table key i)
          f.Facts.fns)
    facts_list;
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

let run_inference env (facts_list : Facts.t list) =
  let table, fields = build_tables facts_list in
  let cx =
    {
      cx_env = env;
      cx_table = table;
      cx_fields = fields;
      cx_emit = false;
      cx_diags = ref [];
      cx_facts = List.hd facts_list;
      cx_self = "";
    }
  in
  let each_fn f =
    List.iter
      (fun (fa : Facts.t) ->
        if (not fa.Facts.is_mli) && not fa.Facts.parse_failed then begin
          cx.cx_facts <- fa;
          cx.cx_self <- Facts.unit_key_of_rel fa.Facts.rel;
          List.iter
            (fun (fn : Facts.fn) ->
              match Hashtbl.find_opt table (fn_key fa fn) with
              | Some i -> f fa fn i
              | None -> ())
            fa.Facts.fns
        end)
      facts_list
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

let class_name = function
  | Annotated -> "annotated"
  | Inferred -> "inferred"
  | Opaque_unit -> "opaque"

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

let analyze env (facts_list : Facts.t list) =
  match facts_list with
  | [] -> { u_diags = []; u_coverage = []; u_fn_class = [] }
  | _ ->
      let cx, each_fn = run_inference env facts_list in
      (* Findings pass: re-evaluate every body once with the converged
         table, emitting diagnostics, and check declared-vs-inferred
         consistency for annotated functions. *)
      cx.cx_emit <- true;
      let classes = ref [] in
      each_fn (fun fa fn i ->
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
          classes := (fn_key fa fn, cls) :: !classes);
      let class_of = Hashtbl.create ~random:false 512 in
      List.iter (fun (k, c) -> Hashtbl.replace class_of k c) !classes;
      (* Coverage over the public .mli values of lib/ modules. *)
      let coverage =
        List.filter_map
          (fun (f : Facts.t) ->
            if
              f.Facts.is_mli
              && in_lib f.Facts.rel
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

let check env facts_list = (analyze env facts_list).u_diags
