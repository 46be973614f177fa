(* Per-file facts extracted from the compiler-libs parse tree.

   Facts are plain data (no AST nodes), extracted once per file and
   re-fed to the cross-module passes without re-parsing.  A first pass
   over the module structure collects opens, aliases and module-level
   names; then each top-level binding is walked exactly once
   ([scan_body]), and every per-function and per-lambda fact comes out
   of that one walk.  Extraction is syntactic — no typing — so every
   judgment here is a heuristic; the rules built on top are tuned to be
   zero-noise on this tree (asserted by the test suite). *)

type mut_scope =
  | Mut_local  (* target is let-bound to a fresh mutable allocation *)
  | Mut_arg  (* target is bound somewhere in the function (param, let,
                match case) but not to a visible fresh allocation *)
  | Mut_toplevel  (* target is free in the function: module-level state
                     of this unit, or a qualified path into another *)

type mutation = {
  mut_target : string;
  mut_prim : string;  (* ":=", "<-", "Hashtbl.replace", ... *)
  mut_scope : mut_scope;
  mut_line : int;
}

type closure = {
  ct_writes : (string * string * string * int) list;
      (* (target, prim, "captured"|"toplevel", line): writes whose target
         is not bound inside the closure *)
  ct_calls : string list list;
      (* every value path referenced inside the closure, alias-expanded *)
  ct_escaping : (string list * string * int) list;
      (* (callee, ident, line): calls whose first positional argument is
         an identifier captured from outside the closure *)
}

type task =
  | Task_path of string list * string option
      (* a named task, possibly partially applied; the option is the
         first positional identifier applied at the call site *)
  | Task_closure of closure

type pool_call = { pc_entry : string; pc_line : int; pc_tasks : task list }

type perf_site = {
  ps_rule : string;  (* "P1".."P4" *)
  ps_what : string;  (* human description of the offending shape *)
  ps_line : int;
}

(* ---- unit-analysis shapes (U1-U3) -------------------------------------- *)

type uop = U_add | U_sub | U_mul | U_div | U_minmax | U_cmp | U_rem

(* A serializable unit-relevant skeleton of an expression: enough structure
   for the Units pass to infer and check physical units cross-module
   without re-parsing.  Conversion is lossy by design — shapes the unit
   algebra cannot reason about collapse to U_opaque (poisons, never
   findings) or containers whose children are still checked. *)
type uexpr =
  | U_opaque  (* unknown value: never produces a finding *)
  | U_const  (* literal or nullary constructor: unifies with anything *)
  | U_ident of string list  (* alias-expanded value path *)
  | U_field of string  (* record projection, by trailing field name *)
  | U_apply of {
      ua_path : string list;  (* callee path, [] when the head is computed *)
      ua_args : (string option * uexpr) list;  (* (label, argument) *)
      ua_line : int;
    }
  | U_arith of { uo_op : uop; uo_lhs : uexpr; uo_rhs : uexpr; uo_line : int }
  | U_branch of uexpr list  (* if/match arms: result is the join *)
  | U_let of { ul_name : string; ul_rhs : uexpr; ul_body : uexpr; ul_line : int }
  | U_fun of { uf_params : (string option * string) list; uf_body : uexpr }
  | U_seq of uexpr * uexpr  (* first checked, second is the value *)
  | U_stmt of uexpr list  (* unit-typed container: checked, result free *)
  | U_block of uexpr list  (* opaque container: checked, result unknown *)
  | U_record of { ur_fields : (string * uexpr) list; ur_line : int }
  | U_setfield of { us_field : string; us_rhs : uexpr; us_line : int }

type fn = {
  fn_name : string;
  fn_line : int;
  calls : string list list;
      (* every value path referenced inside the body, alias-expanded *)
  rng_fields : string list;
      (* record fields passed as the state argument of an Rng draw *)
  prim_io : (string * int) list;  (* (primitive, line) of direct file I/O *)
  prim_conc : (string * int) list;
      (* (primitive, line) of direct Domain/Mutex/Condition/Atomic use *)
  has_rng : bool;
  mutations : mutation list;  (* direct writes, scope-classified *)
  mut_arg0 : bool;  (* mutates its own first positional parameter *)
  pool_calls : pool_call list;  (* Pool.map/map_reduce/Single_flight sites *)
  top_arg_calls : (string list * string * int) list;
      (* (callee, ident, line): calls passing a module-level value as the
         first positional argument *)
  raises : bool;
  fn_hot : bool;  (* carries a (* mppm: hot *) root annotation *)
  fn_has_loop : bool;  (* the warm region contains a while/for loop *)
  warm_sites : perf_site list;
      (* P1-P4 shapes anywhere in the body outside cold guards
         (Invariant/Trace-conditioned branches, Trace.emit thunks,
         mppm:cold-marked expressions) *)
  loop_sites : perf_site list;
      (* the subset of warm_sites inside while/for loops, including the
         bodies of local lambdas referenced from a loop *)
  warm_calls : string list list;
      (* value paths referenced outside cold guards: the hotness
         propagation edges of a non-root (or loop-free root) hot fn *)
  loop_calls : string list list;
      (* value paths referenced inside loops: the propagation edges of an
         annotated root whose hot region is its loops *)
  fn_uparams : (string option * string) list;
      (* every parameter in binding order: (label, name) *)
  fn_ubody : uexpr;  (* unit skeleton of the body (params stripped) *)
  fn_unit_annot : string option;
      (* (* mppm: unit ... *) annotation on or just above the binding *)
}

type rng_create = { rc_line : int; rc_constant_seed : bool }
type float_accum = { fa_line : int; fa_context : string }

type t = {
  rel : string;
  unit_name : string;  (* capitalized stem, e.g. "Generator" *)
  dir : string;  (* e.g. "lib/trace" *)
  is_mli : bool;
  parse_failed : bool;
  opens : string list list;
  aliases : (string * string list) list;  (* module X = A.B *)
  fns : fn list;
  refs : string list list;  (* every value path referenced in the file *)
  mli_vals : (string * int) list;  (* .mli val items: (name, line) *)
  val_units : (string * string) list;
      (* (.mli val name, unit annotation) pairs, attached by line *)
  field_units : (string * string) list;
      (* (record field name, unit annotation) pairs from type decls *)
  rng_creates : rng_create list;
  float_accums : float_accum list;
  toplevel_muts : (string * string * int) list;
      (* (name, kind, line): module-level mutable allocations *)
  allows : (string * int) list;
  allow_files : string list;
  syntax : Mppm_lint.Diag.t list;  (* raw D1 D2 F1 M1 E1 O1 findings *)
}

let unit_key_of_rel rel = Filename.remove_extension rel

(* ---- path helpers ------------------------------------------------------ *)

let flatten lid = try Longident.flatten lid with _ -> []

let expand aliases path =
  match path with
  | a :: rest when List.mem_assoc a aliases -> List.assoc a aliases @ rest
  | _ -> path

let channel_prims =
  [
    "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "input_line"; "input_char"; "input_byte";
    "input_binary_int"; "input_value"; "really_input"; "really_input_string";
    "output_string"; "output_char"; "output_byte"; "output_binary_int";
    "output_value"; "output_bytes"; "output_substring"; "seek_in"; "seek_out";
    "pos_in"; "pos_out"; "in_channel_length"; "out_channel_length";
    "set_binary_mode_in"; "set_binary_mode_out";
  ]

let sys_fs_prims =
  [
    "remove"; "rename"; "readdir"; "mkdir"; "rmdir"; "command"; "chdir";
    "getcwd"; "file_exists"; "is_directory";
  ]

let io_prim_of_path = function
  | [ p ] when List.mem p channel_prims -> Some p
  | [ "Stdlib"; p ] when List.mem p channel_prims -> Some p
  | [ "Sys"; p ] when List.mem p sys_fs_prims -> Some ("Sys." ^ p)
  | "Unix" :: p :: _ -> Some ("Unix." ^ p)
  | _ -> None

let conc_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic" ]

(* A use of the OCaml 5 concurrency surface (S5).  Aliases are expanded
   before we get here, and the stdlib qualifies these as [Stdlib.Mutex]
   etc., so both spellings resolve. *)
let conc_prim_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | m :: member :: _ when List.mem m conc_modules -> Some (m ^ "." ^ member)
  | _ -> None

(* A path that ends [....Rng.member] is a use of the deterministic RNG:
   the only module named Rng anywhere in the tree is Mppm_util.Rng, and
   local aliases ([module Rng = Mppm_util.Rng]) keep the name. *)
let rng_member_of_path path =
  match List.rev path with
  | member :: "Rng" :: _ -> Some member
  | _ -> None

let raise_prims = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let float_ops = [ "+."; "-."; "*."; "/." ]

(* ---- mutation primitives ----------------------------------------------- *)

let bigarray_modules = [ "Array0"; "Array1"; "Array2"; "Array3"; "Genarray" ]

(* Stdlib functions whose application allocates a fresh mutable value; a
   name let-bound to one of these is local state, not shared state. *)
let alloc_prim_of_path path =
  let named m kind members =
    if List.mem m members then Some kind else None
  in
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ -> (
      match List.rev path with
      | m :: "Hashtbl" :: _ -> named m ("Hashtbl." ^ m) [ "create"; "copy" ]
      | m :: "Array" :: _ ->
          named m ("Array." ^ m)
            [
              "make"; "create"; "init"; "copy"; "sub"; "of_list"; "append";
              "concat"; "make_matrix"; "map"; "mapi"; "of_seq";
            ]
      | m :: "Bytes" :: _ ->
          named m ("Bytes." ^ m)
            [ "create"; "make"; "init"; "copy"; "sub"; "of_string" ]
      | m :: "Buffer" :: _ -> named m ("Buffer." ^ m) [ "create" ]
      | m :: "Queue" :: _ -> named m ("Queue." ^ m) [ "create"; "copy" ]
      | m :: "Stack" :: _ -> named m ("Stack." ^ m) [ "create"; "copy" ]
      | m :: "Atomic" :: _ -> named m ("Atomic." ^ m) [ "make" ]
      | m :: "Mutex" :: _ -> named m ("Mutex." ^ m) [ "create" ]
      | m :: "Condition" :: _ -> named m ("Condition." ^ m) [ "create" ]
      | m :: b :: _ when List.mem b bigarray_modules ->
          named m (b ^ "." ^ m) [ "create"; "init"; "of_array" ]
      | _ -> None)

(* Stdlib write primitives: [Some (name, i)] means the [i]-th positional
   argument is the mutated value. *)
let write_prim_of_path path =
  let named m kind members idx =
    if List.mem m members then Some (kind, idx) else None
  in
  match path with
  | [ ":=" ] | [ "Stdlib"; ":=" ] -> Some (":=", 0)
  | [ ("incr" | "decr") as p ] | [ "Stdlib"; (("incr" | "decr") as p) ] ->
      Some (p, 0)
  | _ -> (
      match List.rev path with
      | "blit" :: "Array" :: _ -> Some ("Array.blit", 2)
      | m :: "Array" :: _ when List.mem m [ "sort"; "fast_sort"; "stable_sort" ]
        ->
          (* The comparison function comes first; the array is mutated. *)
          Some ("Array." ^ m, 1)
      | m :: "Array" :: _ ->
          named m ("Array." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | ("blit" | "blit_string") :: "Bytes" :: _ -> Some ("Bytes.blit", 2)
      | m :: "Bytes" :: _ ->
          named m ("Bytes." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | "filter_map_inplace" :: "Hashtbl" :: _ ->
          Some ("Hashtbl.filter_map_inplace", 1)
      | m :: "Hashtbl" :: _ ->
          named m ("Hashtbl." ^ m)
            [ "add"; "replace"; "remove"; "reset"; "clear" ]
            0
      | m :: "Buffer" :: _ when String.length m >= 4 && String.sub m 0 4 = "add_"
        ->
          Some ("Buffer." ^ m, 0)
      | m :: "Buffer" :: _ ->
          named m ("Buffer." ^ m) [ "clear"; "reset"; "truncate" ] 0
      | m :: "Queue" :: _ when m = "add" || m = "push" || m = "transfer" ->
          Some ("Queue." ^ m, 1)
      | m :: "Queue" :: _ ->
          named m ("Queue." ^ m) [ "take"; "pop"; "clear" ] 0
      | "push" :: "Stack" :: _ -> Some ("Stack.push", 1)
      | m :: "Stack" :: _ -> named m ("Stack." ^ m) [ "pop"; "clear" ] 0
      | m :: "Atomic" :: _ ->
          named m ("Atomic." ^ m)
            [
              "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr";
              "decr";
            ]
            0
      | "blit" :: b :: _ when List.mem b bigarray_modules ->
          Some (b ^ ".blit", 1)
      | m :: b :: _ when List.mem b bigarray_modules ->
          named m (b ^ "." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | _ -> None)

(* Entries of the parallel surface whose function argument runs on pool
   worker domains (or is shared by them): the S6 purity boundary. *)
let pool_entry_of_path path =
  match List.rev path with
  | m :: "Pool" :: _ when m = "map" || m = "map_reduce" -> Some ("Pool." ^ m)
  | m :: "Single_flight" :: _ when m = "get" || m = "run_or_wait" ->
      Some ("Single_flight." ^ m)
  | _ -> None

(* Module-level bindings to these shapes are the S7 inventory.  Mutable
   records and toplevel arrays are deliberately absent: they are caught at
   their write sites instead, so constant tables stay unflagged. *)
let toplevel_mut_kind_of_path path =
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ -> (
      match List.rev path with
      | "create" :: m :: _
        when List.mem m
               [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Mutex"; "Condition" ]
        ->
          Some (m ^ ".create")
      | ("create" | "make") :: "Bytes" :: _ -> Some "Bytes.create"
      | "make" :: "Atomic" :: _ -> Some "Atomic.make"
      | _ -> None)

(* ---- expression scanning ---------------------------------------------- *)

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
let line_of_expr e = line_of_loc e.Parsetree.pexp_loc

let expr_contains pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then found := true;
          if not !found then Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let is_float_op e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident op; _ } ->
      List.mem op float_ops
  | Parsetree.Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ "Float"; ("add" | "sub" | "mul" | "div") ] -> true
      | _ -> false)
  | _ -> false

let mentions_ident e =
  expr_contains
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident _ -> true
      | _ -> false)
    e

let is_fun e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
  | _ -> false

let head_path aliases e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> expand aliases (flatten txt)
  | _ -> []

let applies_hashtbl_to_seq aliases e =
  expr_contains
    (fun e ->
      match List.rev (head_path aliases e) with
      | m :: "Hashtbl" :: _ ->
          String.length m >= 6 && String.sub m 0 6 = "to_seq"
      | _ -> false)
    e

(* The identifier ultimately mutated by a write: the head of a (possibly
   nested) field chain.  Unknown shapes (computed targets) yield None and
   the write is conservatively not recorded. *)
let rec target_ident e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [] -> None
      | [ v ] -> Some (v, false)
      | path -> Some (String.concat "." path, true))
  | Parsetree.Pexp_field (e, _) -> target_ident e
  | Parsetree.Pexp_constraint (e, _) -> target_ident e
  | _ -> None

let positional args =
  List.filter_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
    args

let nth_positional args i = List.nth_opt (positional args) i

let first_positional_ident args =
  match nth_positional args 0 with
  | Some { Parsetree.pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident v; _ }; _ }
    ->
      Some v
  | _ -> None

(* The task argument of a parallel entry: Pool.map's second positional
   argument, Pool.map_reduce's ~map, a Single_flight memo's third. *)
let task_arg_of_entry entry args =
  match entry with
  | "Pool.map_reduce" -> List.assoc_opt (Asttypes.Labelled "map") args
  | "Pool.map" -> nth_positional args 1
  | _ -> nth_positional args 2

(* ---- hot-path perf primitives (P1-P4) ---------------------------------- *)

(* Stdlib calls that allocate on every invocation, beyond the mutable
   allocators already in [alloc_prim_of_path]: list/array producers,
   string builders and the formatting modules.  [Hashtbl] is deliberately
   absent — any hashtable traffic on a hot path is P3, not P1. *)
let perf_alloc_of_path path =
  match alloc_prim_of_path path with
  | Some p when String.length p >= 8 && String.sub p 0 8 = "Hashtbl." -> None
  | Some p -> Some p
  | None -> (
      match path with
      | [ "@" ] | [ "Stdlib"; "@" ] -> Some "list append (@)"
      | [ "^" ] | [ "Stdlib"; "^" ] -> Some "string concat (^)"
      | _ -> (
          match List.rev path with
          | m :: "Array" :: _ when List.mem m [ "append"; "concat"; "to_list"; "to_seq"; "split"; "combine" ]
            ->
              Some ("Array." ^ m)
          | m :: "List" :: _
            when List.mem m
                   [
                     "map"; "mapi"; "map2"; "rev_map"; "init"; "append";
                     "concat"; "concat_map"; "filter"; "filter_map"; "rev";
                     "rev_append"; "sort"; "stable_sort"; "fast_sort";
                     "sort_uniq"; "merge"; "split"; "combine"; "of_seq";
                     "to_seq"; "cons";
                   ] ->
              Some ("List." ^ m)
          | m :: "String" :: _
            when List.mem m [ "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "split_on_char" ]
            ->
              Some ("String." ^ m)
          | _ :: "Printf" :: _ -> Some "Printf formatting"
          | _ :: "Format" :: _ -> Some "Format formatting"
          | _ -> None))

(* Polymorphic structural comparison: the runtime walks the representation
   through a C call, boxing floats on the way.  [<]/[<=] are excluded —
   the tree only uses them on immediates the compiler specializes. *)
let poly_compare_of_path path =
  match path with
  | [ ("=" | "<>" | "compare") as p ] | [ "Stdlib"; (("=" | "<>" | "compare") as p) ]
    ->
      Some (if p = "compare" then "compare" else "( " ^ p ^ " )")
  | _ -> (
      match List.rev path with
      | ("hash" | "hash_param" | "seeded_hash") :: "Hashtbl" :: _ ->
          Some "Hashtbl.hash"
      | _ -> None)

let hashtbl_member_of_path path =
  match List.rev path with
  | m :: "Hashtbl" :: _ -> Some ("Hashtbl." ^ m)
  | _ -> None

(* Conditions that gate off-hot-path work: the sanitizer and the trace
   sink are disabled on the bench path, so branches they guard are cold. *)
let is_cold_guard_path path =
  match List.rev path with
  | "enabled" :: ("Invariant" | "Trace" | "Prof") :: _ -> true
  | _ -> false

(* Applications whose argument work only runs when observability is on:
   Trace.emit takes a thunk forced behind the sink check, and the
   Invariant entry points only evaluate under MPPM_SANITIZE. *)
let is_cold_apply_path path =
  match List.rev path with
  | "emit" :: "Trace" :: _ -> true
  | _ :: "Invariant" :: _ -> true
  | _ -> false

(* Single lowercase idents that resolve to the stdlib, not to a captured
   binding: referencing one from a lambda does not force an environment. *)
let pervasive_idents =
  [
    "not"; "ignore"; "min"; "max"; "abs"; "fst"; "snd"; "succ"; "pred";
    "float_of_int"; "int_of_float"; "string_of_int"; "truncate"; "sqrt";
    "log"; "exp"; "ceil"; "floor"; "epsilon_float"; "infinity"; "nan";
    "max_int"; "min_int"; "raise"; "failwith"; "invalid_arg"; "compare";
    "incr"; "decr"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
  ]

let rec strip_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, rest) -> strip_params rest
  | Parsetree.Pexp_newtype (_, rest) -> strip_params rest
  | Parsetree.Pexp_constraint (e, _) -> strip_params e
  | _ -> e

(* ---- unit-skeleton conversion ------------------------------------------ *)

(* Arithmetic heads the unit algebra understands, by alias-expanded path. *)
let uop_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] -> (
      match p with
      | "+" | "+." -> Some U_add
      | "-" | "-." -> Some U_sub
      | "*" | "*." -> Some U_mul
      | "/" | "/." -> Some U_div
      | "mod" -> Some U_rem
      | "min" | "max" -> Some U_minmax
      | "=" | "<>" | "==" | "!=" | "<" | ">" | "<=" | ">=" | "compare" ->
          Some U_cmp
      | _ -> None)
  | [ ("Float" | "Int") as m; p ] -> (
      match p with
      | "add" -> Some U_add
      | "sub" -> Some U_sub
      | "mul" -> Some U_mul
      | "div" -> Some U_div
      | "rem" when m = "Float" -> Some U_rem
      | "min" | "max" -> Some U_minmax
      | "equal" | "compare" -> Some U_cmp
      | _ -> None)
  | _ -> None

(* Unary wrappers that preserve the unit of their (first positional)
   argument: numeric casts, negation, rounding, ref cells and array
   reads.  [sqrt]/[log]/[exp] are deliberately absent — they change or
   destroy dimensions, so they collapse to opaque. *)
let unit_transparent_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] ->
      List.mem p
        [
          "~-"; "~-."; "~+"; "~+."; "abs"; "abs_float"; "float_of_int";
          "int_of_float"; "truncate"; "floor"; "ceil"; "succ"; "pred";
          "ref"; "!";
        ]
  | [ "Float"; p ] ->
      List.mem p
        [ "abs"; "neg"; "of_int"; "to_int"; "round"; "trunc"; "succ"; "pred" ]
  | [ "Int"; p ] -> List.mem p [ "abs"; "neg"; "to_float"; "of_float" ]
  | _ -> (
      match List.rev path with
      | ("get" | "unsafe_get") :: "Array" :: _ -> true
      | _ -> false)

(* Applications that produce no unit-bearing value (writes, loops-as-
   functions, raises): children are still checked, the result is free. *)
let unit_stmt_of_path path =
  write_prim_of_path path <> None
  ||
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] -> List.mem p ([ "ignore"; "assert" ] @ raise_prims)
  | _ -> false

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

(* Every parameter of a curried binding, in order: (label, name). *)
let rec all_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (lbl, _, pat, rest) ->
      let name =
        match pat.Parsetree.ppat_desc with
        | Parsetree.Ppat_var { txt; _ } -> txt
        | Parsetree.Ppat_constraint
            ({ Parsetree.ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _) ->
            txt
        | _ -> "_"
      in
      (label_name lbl, name) :: all_params rest
  | Parsetree.Pexp_newtype (_, rest) -> all_params rest
  | Parsetree.Pexp_constraint (e, _) -> all_params e
  | _ -> []

let field_name_of_lid lid =
  match List.rev (flatten lid) with f :: _ -> Some f | [] -> None

(* Convert an expression to its unit skeleton.  Total and lossy: shapes
   outside the handled set become U_opaque, so the Units pass stays
   silent about them rather than guessing. *)
let rec uexpr_of aliases e =
  let conv = uexpr_of aliases in
  let line = line_of_expr e in
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant _ -> U_const
  | Parsetree.Pexp_ident { txt; _ } -> (
      match expand aliases (flatten txt) with
      | [] -> U_opaque
      | path -> U_ident path)
  | Parsetree.Pexp_field (_, lid) -> (
      match field_name_of_lid lid.Location.txt with
      | Some f -> U_field f
      | None -> U_opaque)
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_newtype (_, e) -> conv e
  | Parsetree.Pexp_open (_, e) -> conv e
  | Parsetree.Pexp_apply (head, args) -> (
      let path = head_path aliases head in
      let positional = positional args in
      if is_cold_apply_path path then U_stmt []
      else
        match (uop_of_path path, positional) with
        | Some op, [ lhs; rhs ] ->
            U_arith
              { uo_op = op; uo_lhs = conv lhs; uo_rhs = conv rhs; uo_line = line }
        | _ ->
            if unit_transparent_of_path path then
              match positional with a :: _ -> conv a | [] -> U_opaque
            else if unit_stmt_of_path path then
              U_stmt (List.map (fun (_, a) -> conv a) args)
            else
              U_apply
                {
                  ua_path = path;
                  ua_args = List.map (fun (l, a) -> (label_name l, conv a)) args;
                  ua_line = line;
                })
  | Parsetree.Pexp_ifthenelse (c, t, Some e) ->
      U_seq (conv c, U_branch [ conv t; conv e ])
  | Parsetree.Pexp_ifthenelse (c, t, None) ->
      U_seq (conv c, U_stmt [ conv t ])
  | Parsetree.Pexp_match (scrut, cases) | Parsetree.Pexp_try (scrut, cases) ->
      U_seq
        ( conv scrut,
          U_branch (List.map (fun c -> conv c.Parsetree.pc_rhs) cases) )
  | Parsetree.Pexp_let (_, vbs, body) ->
      List.fold_right
        (fun vb acc ->
          match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } ->
              U_let
                {
                  ul_name = txt;
                  ul_rhs = conv vb.Parsetree.pvb_expr;
                  ul_body = acc;
                  ul_line = line_of_loc vb.Parsetree.pvb_loc;
                }
          | _ -> U_seq (U_stmt [ conv vb.Parsetree.pvb_expr ], acc))
        vbs (conv body)
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
      let params = all_params e in
      let body =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_function cases ->
            U_branch (List.map (fun c -> conv c.Parsetree.pc_rhs) cases)
        | _ -> conv (strip_params e)
      in
      let params = if params = [] then [ (None, "_") ] else params in
      U_fun { uf_params = params; uf_body = body }
  | Parsetree.Pexp_sequence (a, b) -> U_seq (conv a, conv b)
  | Parsetree.Pexp_while (c, b) -> U_stmt [ conv c; conv b ]
  | Parsetree.Pexp_for (_, lo, hi, _, b) -> U_stmt [ conv lo; conv hi; conv b ]
  | Parsetree.Pexp_assert e | Parsetree.Pexp_lazy e -> U_stmt [ conv e ]
  | Parsetree.Pexp_tuple es -> U_block (List.map conv es)
  | Parsetree.Pexp_array es -> U_block (List.map conv es)
  | Parsetree.Pexp_construct (_, Some e) -> U_block [ conv e ]
  | Parsetree.Pexp_construct (_, None) | Parsetree.Pexp_variant (_, None) ->
      U_const
  | Parsetree.Pexp_variant (_, Some e) -> U_block [ conv e ]
  | Parsetree.Pexp_record (fields, base) ->
      let converted =
        List.filter_map
          (fun (lid, e) ->
            match field_name_of_lid lid.Location.txt with
            | Some f -> Some (f, conv e)
            | None -> None)
          fields
      in
      let base_checked =
        match base with Some b -> [ ("_base", conv b) ] | None -> []
      in
      U_record { ur_fields = converted @ base_checked; ur_line = line }
  | Parsetree.Pexp_setfield (_, lid, rhs) -> (
      match field_name_of_lid lid.Location.txt with
      | Some f -> U_setfield { us_field = f; us_rhs = conv rhs; us_line = line }
      | None -> U_stmt [ conv rhs ])
  | _ -> U_opaque


(* ---- per-file extraction ----------------------------------------------- *)

type state = {
  mutable st_opens : string list list;
  mutable st_aliases : (string * string list) list;
  mutable st_toplevel : string list;
  mutable st_topmuts : (string * string * int) list;
  mutable st_fns : fn list;
  mutable st_refs : string list list;
  mutable st_creates : rng_create list;
  mutable st_accums : float_accum list;
  mutable st_hots : int list;
  mutable st_colds : int list;
  mutable st_units : (string * int * bool) list;
  mutable st_fields : (string * string) list;
}

(* An [open] of a plain module path is recorded file-wide. *)
let note_open st od =
  match od.Parsetree.popen_expr.Parsetree.pmod_desc with
  | Parsetree.Pmod_ident { txt; _ } -> st.st_opens <- flatten txt :: st.st_opens
  | _ -> ()

let rec pattern_names p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> [ txt ]
  | Parsetree.Ppat_constraint (p, _) -> pattern_names p
  | Parsetree.Ppat_tuple ps -> List.concat_map pattern_names ps
  | Parsetree.Ppat_alias (p, { txt; _ }) -> txt :: pattern_names p
  | _ -> []

(* The unit annotation attached to an item starting at [line]: the
   comment may sit on the same line, the line above, or two above (so it
   stacks with a [(* mppm: hot *)] marker). *)
let unit_annot_near units line =
  match
    List.find_map (fun (u, l, _) -> if l = line then Some u else None) units
  with
  | Some u -> Some u
  | None ->
      (* Only a standalone annotation reaches down to the next item, so
         a trailing annotation on one record field never bleeds onto the
         field declared on the following line. *)
      List.find_map
        (fun (u, l, trailing) ->
          if (not trailing) && (l = line - 1 || l = line - 2) then Some u
          else None)
        units

(* ---- the per-binding fact walk ----------------------------------------- *)

(* An append-only log.  Every fact a lambda's answers need is pushed onto
   one, so a lambda's share is the suffix logged while it was walked. *)
type 'a tape = { mutable items : 'a list; mutable len : int }

let tape () = { items = []; len = 0 }

let push t x =
  t.items <- x :: t.items;
  t.len <- t.len + 1

(* What one [fun] chain or [function] contains, nested lambdas included,
   each list in walk order. *)
type frame = {
  fr_bound : string list;  (* names its patterns bind (flat) *)
  fr_paths : string list list;  (* every value path it references *)
  fr_writes : (string * bool * string * int) list;
      (* (target, qualified, prim, line) of every direct write *)
  fr_firsts : (string list * string * int) list;
      (* (callee, ident, line): calls whose first positional argument is
         an identifier *)
  fr_sinks : string list;
      (* identifiers passed as the task of a parallel entry *)
  fr_sites : perf_site list;  (* perf sites outside cold guards *)
  fr_calls : string list list;  (* value paths referenced outside them *)
}

(* Summarize a closure handed to the parallel surface: writes to values
   it does not bind itself, every path it references, and captured
   identifiers it passes as a callee's first (potentially mutated)
   positional argument. *)
let closure_of st fr =
  let free v = not (List.mem v fr.fr_bound) in
  {
    ct_writes =
      List.filter_map
        (fun (v, qualified, prim, line) ->
          if qualified || free v then
            let scope =
              if qualified || List.mem v st.st_toplevel then "toplevel"
              else "captured"
            in
            Some (v, prim, scope, line)
          else None)
        fr.fr_writes;
    ct_calls = List.sort_uniq compare fr.fr_paths;
    ct_escaping = List.filter (fun (_, v, _) -> free v) fr.fr_firsts;
  }

(* Whether a lambda captures anything: a reference to a single-ident name
   bound neither inside the lambda nor at the module toplevel forces a
   closure environment at runtime.  Capture-free lambdas are statically
   allocated by the compiler and cost nothing per call, so P1 skips
   them. *)
let captures st fr =
  List.exists
    (function
      | [ v ] ->
          String.length v > 0
          && (match v.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
          && (not (List.mem v fr.fr_bound))
          && (not (List.mem v st.st_toplevel))
          && not (List.mem v pervasive_idents)
      | _ -> false)
    fr.fr_paths

(* A let-bound lambda that forwards one of its own positional parameters
   as the task of a parallel entry is a sink: calls to it are pool calls,
   with the task at the forwarded parameter's index. *)
let sink_index lambda fr =
  let params =
    List.filter_map
      (fun (l, name) -> if l = None then Some name else None)
      (all_params lambda)
  in
  List.find_map (fun v -> List.find_index (String.equal v) params) fr.fr_sinks

let scoped r v f =
  let saved = !r in
  r := v;
  f ();
  r := saved

(* Scan one top-level binding body in a single pre-order walk,
   accumulating the fn summary.  A [cold] region (a branch conditioned on
   Invariant/Trace/Prof.enabled or an ident bound to one, a Trace.emit or
   Invariant application, an expression under an [(* mppm: cold *)]
   marker) turns the perf facts off and leaves every other fact on; perf
   facts are off throughout a non-function binding, which runs once at
   module init.  Sites and referenced paths inside while/for loops also
   land in the loop region, and so do those of every local lambda
   referenced from a loop — [let stop () = ... in while not (stop ())
   do] contributes [stop]'s body to the loop. *)
let scan_body st ~fn_name ~fn_line body =
  let aliases = st.st_aliases in
  let bound = tape () and paths = tape () and writes = tape () in
  let firsts = tape () and sinks = tape () in
  let sites = tape () and perf_calls = tape () in
  let perf = ref (is_fun body) and in_loop = ref false in
  let has_loop = ref false and loop_sites = ref [] and loop_calls = ref [] in
  let rng_fields = ref [] and prim_io = ref [] and prim_conc = ref [] in
  let has_rng = ref false and raises = ref false in
  let pool_calls = ref [] in
  let fn_alloc = ref [] in
  (* [let v = expr.field] aliases, so a draw through a local binding
     still resolves to the record field. *)
  let field_aliases = ref [] in
  (* Let-bound local lambdas, latest first, so a task referenced by name
     is analyzed as the closure it is; the perf walk keeps the first warm
     binding of each name for the loop fold. *)
  let named = ref [] and loop_lambdas = ref [] in
  (* Idents let-bound to a cold-guard read:
     [let observing = Trace.enabled obs]. *)
  let cold_idents = ref [] and guard_reads = ref 0 in
  let frames = ref [] in
  let frame_of lambda = List.assq lambda !frames in
  let open_frame () =
    let since t =
      let start = t.len in
      fun () ->
        let rec take n l acc =
          match l with
          | x :: rest when n > 0 -> take (n - 1) rest (x :: acc)
          | _ -> acc
        in
        take (t.len - start) t.items []
    in
    let b = since bound and p = since paths and w = since writes in
    let f = since firsts and s = since sinks in
    let si = since sites and c = since perf_calls in
    fun () ->
      {
        fr_bound = b (); fr_paths = p (); fr_writes = w (); fr_firsts = f ();
        fr_sinks = s (); fr_sites = si (); fr_calls = c ();
      }
  in
  let site rule what line =
    if !perf then begin
      let s = { ps_rule = rule; ps_what = what; ps_line = line } in
      push sites s;
      if !in_loop then loop_sites := s :: !loop_sites
    end
  in
  let record_call path =
    if !perf && path <> [] then begin
      push perf_calls path;
      if !in_loop then loop_calls := path :: !loop_calls
    end
  in
  let note_ident line path =
    if path <> [] then begin
      push paths path;
      st.st_refs <- path :: st.st_refs;
      Option.iter
        (fun p -> prim_io := (p, line) :: !prim_io)
        (io_prim_of_path path);
      Option.iter
        (fun p -> prim_conc := (p, line) :: !prim_conc)
        (conc_prim_of_path path);
      (match List.rev path with
      | last :: _ when List.mem last raise_prims && List.length path <= 2 ->
          raises := true
      | _ -> ());
      if rng_member_of_path path <> None then has_rng := true;
      if is_cold_guard_path path then incr guard_reads
    end
  in
  let record_write line target prim =
    Option.iter (fun (v, qualified) -> push writes (v, qualified, prim, line))
      (target_ident target)
  in
  let marked_cold e =
    let line = line_of_expr e in
    List.mem line st.st_colds || List.mem (line - 1) st.st_colds
  in
  let is_cold_cond c =
    expr_contains
      (fun e ->
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt; _ } -> (
            match expand aliases (flatten txt) with
            | [ v ] -> List.mem v !cold_idents
            | path -> is_cold_guard_path path)
        | _ -> false)
      c
  in
  let apply_sites line path args =
    match hashtbl_member_of_path path with
    | Some m -> site "P3" m line
    | None -> (
        match perf_alloc_of_path path with
        | Some p -> site "P1" ("allocating call " ^ p) line
        | None -> (
            match poly_compare_of_path path with
            | Some p -> site "P2" ("polymorphic " ^ p) line
            | None ->
                if path = [ ":=" ] || path = [ "Stdlib"; ":=" ] then
                  match nth_positional args 1 with
                  | Some rhs when expr_contains is_float_op rhs ->
                      site "P4" "boxed-float ref accumulation" line
                  | _ -> ()))
  in
  let closure_task lambda () = Task_closure (closure_of st (frame_of lambda)) in
  let rec tasks_of_expr e =
    if is_fun e then [ closure_task e ]
    else
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_constraint (e, _) -> tasks_of_expr e
      | Parsetree.Pexp_ident { txt; _ } -> (
          match expand aliases (flatten txt) with
          | [] -> []
          | [ name ] when List.mem_assoc name !named ->
              [ closure_task (List.assoc name !named) ]
          | path -> [ Fun.const (Task_path (path, None)) ])
      | Parsetree.Pexp_apply (head, hargs) -> (
          match head_path aliases head with
          | [] -> []
          | path ->
              [ Fun.const (Task_path (path, first_positional_ident hargs)) ])
      | _ -> []
  in
  let rng_field_of_arg e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_field (_, { txt; _ }) -> field_name_of_lid txt
    | Parsetree.Pexp_ident { txt = Longident.Lident v; _ } ->
        List.assoc_opt v !field_aliases
    | _ -> None
  in
  let rec allocates rhs =
    match rhs.Parsetree.pexp_desc with
    | Parsetree.Pexp_array _ | Parsetree.Pexp_record _ -> true
    | Parsetree.Pexp_constraint (e, _) -> allocates e
    | Parsetree.Pexp_apply (head, _) ->
        alloc_prim_of_path (head_path aliases head) <> None
    | _ -> false
  in
  (* The facts of one application that do not depend on coldness. *)
  let apply_facts line path args =
    Option.iter
      (fun (prim, idx) ->
        Option.iter
          (fun t -> record_write line t prim)
          (nth_positional args idx))
      (write_prim_of_path path);
    (match first_positional_ident args with
    | Some v when path <> [] -> push firsts (path, v, line)
    | _ -> ());
    (* Parallel entries, and calls to a local lambda that forwards a
       parameter to one (S6).  Whether a lambda is such a sink is known
       once its frame closes, so those calls resolve after the walk. *)
    let pool_call resolve = pool_calls := (line, resolve) :: !pool_calls in
    (match (pool_entry_of_path path, path) with
    | Some entry, _ ->
        let task = task_arg_of_entry entry args in
        (match task with
        | Some
            {
              Parsetree.pexp_desc =
                Parsetree.Pexp_ident { txt = Longident.Lident v; _ };
              _;
            } ->
            push sinks v
        | _ -> ());
        let tasks = match task with Some e -> tasks_of_expr e | None -> [] in
        pool_call (Fun.const (Some (entry, tasks)))
    | None, [ name ] when List.mem_assoc name !named ->
        let lambdas = List.filter (fun (v, _) -> v = name) !named in
        let tasks = List.map tasks_of_expr (positional args) in
        pool_call (fun () ->
            List.find_map
              (fun (_, lambda) -> sink_index lambda (frame_of lambda))
              lambdas
            |> Option.map (fun i ->
                   ( "Pool.map via " ^ name,
                     Option.value ~default:[] (List.nth_opt tasks i) )))
    | None, _ -> ());
    (* Rng call classification *)
    (match rng_member_of_path path with
    | Some "create" ->
        let constant =
          match List.assoc_opt (Asttypes.Labelled "seed") args with
          | Some seed_expr -> not (mentions_ident seed_expr)
          | None -> false
        in
        st.st_creates <-
          { rc_line = line; rc_constant_seed = constant } :: st.st_creates
    | Some _ ->
        (* A draw: the generator state is the first positional argument
           of every Mppm_util.Rng function. *)
        Option.iter
          (fun f -> rng_fields := f :: !rng_fields)
          (Option.bind (nth_positional args 0) rng_field_of_arg)
    | None -> ());
    (* S3: float accumulation over unordered Hashtbl iteration *)
    let accum fa_context =
      if
        List.exists
          (fun (_, a) ->
            (is_fun a && expr_contains is_float_op a) || is_float_op a)
          args
      then st.st_accums <- { fa_line = line; fa_context } :: st.st_accums
    in
    match List.rev path with
    | m :: "Hashtbl" :: _ when m = "fold" || m = "iter" ->
        accum ("Hashtbl." ^ m)
    | m :: _
      when (m = "fold_left" || m = "fold_right" || m = "fold")
           && List.exists (fun (_, a) -> applies_hashtbl_to_seq aliases a) args
      ->
        accum "fold over Hashtbl.to_seq"
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let rec expr it e =
    if !perf && marked_cold e then scoped perf false (fun () -> node it e)
    else node it e
  and node it e =
    let line = line_of_expr e in
    let attrs () = it.Ast_iterator.attributes it e.Parsetree.pexp_attributes in
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> (
        let path = expand aliases (flatten txt) in
        note_ident line path;
        record_call path;
        match poly_compare_of_path path with
        | Some p -> site "P2" ("polymorphic " ^ p ^ " passed as a value") line
        | None -> ())
    | Parsetree.Pexp_field (_, { txt; _ }) ->
        (* Qualified record-field access ([cfg.Hierarchy.llc]) counts as a
           reference so S4 does not flag a val sharing a field's name. *)
        st.st_refs <- expand aliases (flatten txt) :: st.st_refs;
        default.expr it e
    | Parsetree.Pexp_open (od, _) ->
        note_open st od;
        default.expr it e
    | Parsetree.Pexp_setfield (target, _, _) ->
        record_write line target "<-";
        default.expr it e
    | Parsetree.Pexp_apply (head, args) ->
        let path = head_path aliases head in
        apply_facts line path args;
        let walk () =
          record_call path;
          apply_sites line path args;
          attrs ();
          (match head.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident _ ->
              it.Ast_iterator.attributes it head.Parsetree.pexp_attributes;
              note_ident (line_of_expr head) path
          | _ -> it.Ast_iterator.expr it head);
          List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
        in
        if is_cold_apply_path path then scoped perf false walk else walk ()
    | Parsetree.Pexp_let (_, vbs, let_body) ->
        attrs ();
        List.iter
          (fun vb ->
            let rhs = vb.Parsetree.pvb_expr in
            (match
               (vb.Parsetree.pvb_pat.Parsetree.ppat_desc, rhs.Parsetree.pexp_desc)
             with
            | Parsetree.Ppat_var { txt = v; _ }, Parsetree.Pexp_field (_, { txt; _ })
              -> (
                match field_name_of_lid txt with
                | Some f -> field_aliases := (v, f) :: !field_aliases
                | None -> ())
            | Parsetree.Ppat_var { txt = v; _ }, _ when is_fun rhs ->
                named := (v, rhs) :: !named;
                if !perf && not (List.mem_assoc v !loop_lambdas) then
                  loop_lambdas := (v, rhs) :: !loop_lambdas
            | _ -> ());
            if allocates rhs then
              fn_alloc := pattern_names vb.Parsetree.pvb_pat @ !fn_alloc)
          vbs;
        List.iter
          (fun vb ->
            let reads = !guard_reads in
            it.Ast_iterator.value_binding it vb;
            match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
            | Parsetree.Ppat_var { txt = v; _ } when !guard_reads > reads ->
                cold_idents := v :: !cold_idents
            | _ -> ())
          vbs;
        it.Ast_iterator.expr it let_body
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
        let close = open_frame () in
        chain it e;
        let fr = close () in
        frames := (e, fr) :: !frames;
        if !perf && captures st fr then
          site "P1" "closure allocation (captures its environment)" line
    | Parsetree.Pexp_while (cond, loop_body) ->
        if !perf then has_loop := true;
        attrs ();
        scoped in_loop true (fun () ->
            it.Ast_iterator.expr it cond;
            it.Ast_iterator.expr it loop_body)
    | Parsetree.Pexp_for (pat, lo, hi, _, loop_body) ->
        if !perf then has_loop := true;
        attrs ();
        it.Ast_iterator.pat it pat;
        it.Ast_iterator.expr it lo;
        it.Ast_iterator.expr it hi;
        scoped in_loop true (fun () -> it.Ast_iterator.expr it loop_body)
    | Parsetree.Pexp_ifthenelse (cond, then_, else_opt)
      when !perf && is_cold_cond cond ->
        attrs ();
        scoped perf false (fun () ->
            it.Ast_iterator.expr it cond;
            it.Ast_iterator.expr it then_);
        Option.iter (it.Ast_iterator.expr it) else_opt
    | Parsetree.Pexp_match
        (({ pexp_desc = Parsetree.Pexp_tuple comps; _ } as scrut), cases) ->
        (* [match (a, b) with ...] deconstructs the pair in place — the
           compiler never builds the tuple — so the scrutinee tuple is no
           allocation site. *)
        attrs ();
        it.Ast_iterator.attributes it scrut.Parsetree.pexp_attributes;
        List.iter (it.Ast_iterator.expr it) comps;
        List.iter (it.Ast_iterator.case it) cases
    | Parsetree.Pexp_tuple _ ->
        site "P1" "tuple allocation" line;
        default.expr it e
    | Parsetree.Pexp_record _ ->
        site "P1" "record allocation" line;
        default.expr it e
    | Parsetree.Pexp_array els ->
        if els <> [] then site "P1" "array literal" line;
        default.expr it e
    | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) ->
        site "P1" "list cons" line;
        default.expr it e
    | _ -> default.expr it e
  (* A syntactically curried chain — ending in a [function] or not —
     compiles to one multi-param closure, so captures are judged on the
     whole chain and its inner nodes open no frame of their own: an outer
     param is not a capture of the inner lambda.  Perf skips the
     parameters themselves and their default values. *)
  and chain it e =
    let attrs () = it.Ast_iterator.attributes it e.Parsetree.pexp_attributes in
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun (_, default_value, pat, rest) ->
        attrs ();
        scoped perf false (fun () ->
            Option.iter (it.Ast_iterator.expr it) default_value;
            it.Ast_iterator.pat it pat);
        chain it rest
    | Parsetree.Pexp_newtype (_, rest) | Parsetree.Pexp_constraint (rest, _) ->
        attrs ();
        chain it rest
    | Parsetree.Pexp_function cases ->
        let walk () =
          attrs ();
          List.iter (it.Ast_iterator.case it) cases
        in
        if !perf && marked_cold e then scoped perf false walk else walk ()
    | _ -> it.Ast_iterator.expr it e
  in
  let pat it p =
    (match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } | Parsetree.Ppat_alias (_, { txt; _ }) ->
        push bound txt
    | _ -> ());
    default.pat it p
  in
  let it = { default with expr; pat } in
  if is_fun body then chain it body else it.expr it body;
  (* Fold loop-referenced local lambdas into the loop region. *)
  let rec fold_loop_lambdas visited =
    let loop_idents =
      List.filter_map (function [ v ] -> Some v | _ -> None) !loop_calls
    in
    let pending =
      List.filter
        (fun (v, _) -> List.mem v loop_idents && not (List.mem v visited))
        !loop_lambdas
    in
    if pending <> [] then begin
      List.iter
        (fun (_, lambda) ->
          let fr = frame_of lambda in
          loop_sites := fr.fr_sites @ !loop_sites;
          loop_calls := fr.fr_calls @ !loop_calls)
        pending;
      fold_loop_lambdas (List.map fst pending @ visited)
    end
  in
  fold_loop_lambdas [];
  let fn_bound = bound.items in
  let mutations =
    List.rev_map
      (fun (v, qualified, prim, line) ->
        let scope =
          if qualified then Mut_toplevel
          else if List.mem v !fn_alloc then Mut_local
          else if List.mem v fn_bound then Mut_arg
          else Mut_toplevel
        in
        { mut_target = v; mut_prim = prim; mut_scope = scope; mut_line = line })
      writes.items
  in
  let params = all_params body in
  {
    fn_name;
    fn_line;
    calls = List.sort_uniq compare paths.items;
    rng_fields = List.sort_uniq compare !rng_fields;
    prim_io = List.rev !prim_io;
    prim_conc = List.rev !prim_conc;
    has_rng = !has_rng;
    mutations;
    mut_arg0 =
      (match List.find_opt (fun (l, _) -> l = None) params with
      | Some (_, p) ->
          List.exists
            (fun m -> m.mut_scope = Mut_arg && m.mut_target = p)
            mutations
      | None -> false);
    pool_calls =
      List.filter_map
        (fun (pc_line, resolve) ->
          Option.map
            (fun (pc_entry, tasks) ->
              { pc_entry; pc_line; pc_tasks = List.map (fun t -> t ()) tasks })
            (resolve ()))
        (List.rev !pool_calls);
    top_arg_calls =
      List.rev
        (List.filter (fun (_, v, _) -> List.mem v st.st_toplevel) firsts.items);
    raises = !raises;
    fn_hot = List.mem fn_line st.st_hots || List.mem (fn_line - 1) st.st_hots;
    fn_has_loop = !has_loop;
    warm_sites = List.sort_uniq compare sites.items;
    loop_sites = List.sort_uniq compare !loop_sites;
    warm_calls = List.sort_uniq compare perf_calls.items;
    loop_calls = List.sort_uniq compare !loop_calls;
    fn_uparams = params;
    fn_ubody = uexpr_of aliases (strip_params body);
    fn_unit_annot = unit_annot_near st.st_units fn_line;
  }

(* Record fields declared by one type declaration: (name, line) pairs,
   so unit annotations can attach by line. *)
let record_fields_of_decls decls =
  List.concat_map
    (fun d ->
      match d.Parsetree.ptype_kind with
      | Parsetree.Ptype_record labels ->
          List.map
            (fun ld ->
              ( ld.Parsetree.pld_name.Location.txt,
                line_of_loc ld.Parsetree.pld_loc ))
            labels
      | _ -> [])
    decls

(* A module expression's structure, through any signature constraint. *)
let rec module_body me =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_constraint (me, _) -> module_body me
  | d -> d

(* First pass: module-level opens, aliases, value names and mutable
   allocations, recursing into inline submodule structures. *)
let rec collect_scaffolding st items =
  List.iter
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_type (_, decls) ->
          List.iter
            (fun (fname, fline) ->
              match unit_annot_near st.st_units fline with
              | Some u -> st.st_fields <- (fname, u) :: st.st_fields
              | None -> ())
            (record_fields_of_decls decls)
      | Parsetree.Pstr_open od -> note_open st od
      | Parsetree.Pstr_module mb -> (
          match (mb.Parsetree.pmb_name.Location.txt, module_body mb.Parsetree.pmb_expr) with
          | Some name, Parsetree.Pmod_ident { txt; _ } ->
              st.st_aliases <- (name, flatten txt) :: st.st_aliases
          | _, Parsetree.Pmod_structure items -> collect_scaffolding st items
          | _ -> ())
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              st.st_toplevel <-
                pattern_names vb.Parsetree.pvb_pat @ st.st_toplevel;
              let rec alloc_kind rhs =
                match rhs.Parsetree.pexp_desc with
                | Parsetree.Pexp_constraint (e, _) -> alloc_kind e
                | Parsetree.Pexp_apply (head, _) ->
                    toplevel_mut_kind_of_path (head_path st.st_aliases head)
                | _ -> None
              in
              match
                (pattern_names vb.Parsetree.pvb_pat, alloc_kind vb.Parsetree.pvb_expr)
              with
              | name :: _, Some kind ->
                  st.st_topmuts <-
                    (name, kind, line_of_loc vb.Parsetree.pvb_loc)
                    :: st.st_topmuts
              | _ -> ())
            vbs
      | _ -> ())
    items

(* Second pass: one fn summary per top-level binding. *)
let rec collect_fns st items =
  let scan names fn_line body =
    let fn_name =
      match names with
      | name :: _ -> name
      | [] -> Printf.sprintf "(init:%d)" fn_line
    in
    st.st_fns <- scan_body st ~fn_name ~fn_line body :: st.st_fns
  in
  List.iter
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              scan
                (pattern_names vb.Parsetree.pvb_pat)
                (line_of_loc vb.Parsetree.pvb_loc)
                vb.Parsetree.pvb_expr)
            vbs
      | Parsetree.Pstr_eval (e, _) -> scan [] (line_of_expr e) e
      | Parsetree.Pstr_module mb -> (
          match module_body mb.Parsetree.pmb_expr with
          | Parsetree.Pmod_structure items -> collect_fns st items
          | _ -> ())
      | _ -> ())
    items

let mli_vals_of_signature signature =
  List.filter_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          Some
            ( vd.Parsetree.pval_name.Location.txt,
              line_of_loc vd.Parsetree.pval_loc )
      | _ -> None)
    signature

let mli_fields_of_signature signature =
  List.concat_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_type (_, decls) -> record_fields_of_decls decls
      | _ -> [])
    signature

(* ---- comments: suppressions and annotations ----------------------------- *)

(* What a comment says to the linter, if anything:
   - "lint: allow D1 F1 <why>" suppresses the listed rules (ids may be
     comma-separated) on the comment's line and the line below;
     "lint: allow-file O1 <why>" suppresses them in the whole file;
   - "mppm: hot" marks the toplevel binding on the same line (or the
     line below) as a hotness root for the P rules, "mppm: cold" the
     expression starting there as off the hot path;
   - "mppm: unit <expr>" attaches a physical unit to the .mli item,
     record field or toplevel binding on the same line (or just below);
     the unit expression runs to the first "--" separator (or dash), so
     rationale text can follow. *)
type mark =
  | Allow of string list
  | Allow_file of string list
  | Hot
  | Cold
  | Unit of string

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_mark body =
  let body = String.trim body in
  match words body with
  | "mppm:" :: "hot" :: _ -> Some Hot
  | "mppm:" :: "cold" :: _ -> Some Cold
  | "mppm:" :: "unit" :: rest ->
      let separator w =
        String.starts_with ~prefix:"--" w
        || String.starts_with ~prefix:"\xe2\x80" w
      in
      let rec until_sep = function
        | w :: rest when not (separator w) -> w :: until_sep rest
        | _ -> []
      in
      Some (Unit (String.concat " " (until_sep rest)))
  | _ when String.starts_with ~prefix:"lint:" body -> (
      (* Rule ids are an uppercase letter followed by digits; everything
         after the leading run of ids is free-form "why" text. *)
      let rec ids = function
        | w :: rest
          when String.length w >= 2
               && w.[0] >= 'A' && w.[0] <= 'Z'
               && String.for_all (fun c -> c >= '0' && c <= '9')
                    (String.sub w 1 (String.length w - 1)) ->
            w :: ids rest
        | _ -> []
      in
      let rest = String.sub body 5 (String.length body - 5) in
      match words (String.map (fun c -> if c = ',' then ' ' else c) rest) with
      | "allow" :: rules -> Some (Allow (ids rules))
      | "allow-file" :: rules -> Some (Allow_file (ids rules))
      | _ -> None)
  | _ -> None

let extract ~rel content =
  let ctx = Mppm_lint.(Rules.context_of_rel (Engine.normalize_rel rel)) in
  let rel = ctx.rel and is_mli = ctx.is_mli in
  let base =
    {
      rel;
      unit_name = ctx.module_name;
      dir = Filename.dirname rel;
      is_mli;
      parse_failed = true;
      opens = [];
      aliases = [];
      fns = [];
      refs = [];
      mli_vals = [];
      val_units = [];
      field_units = [];
      rng_creates = [];
      float_accums = [];
      toplevel_muts = [];
      allows = [];
      allow_files = [];
      syntax = [];
    }
  in
  (* A parsed file's findings and suppressions, and the lines of its
     hot and cold markers and unit annotations. *)
  let parsed comments syntax =
    let marks =
      List.filter_map
        (fun (c : Astparse.comment) ->
          if c.doc then None
          else Option.map (fun m -> (m, c)) (parse_mark c.text))
        comments
    in
    let lines mark =
      List.filter_map
        (fun (m, (c : Astparse.comment)) ->
          if m = mark then Some c.start_line else None)
        marks
    in
    ( {
        base with
        parse_failed = false;
        allows =
          List.concat_map
            (function
              | Allow rules, (c : Astparse.comment) ->
                  List.map (fun r -> (r, c.start_line)) rules
              | _ -> [])
            marks;
        allow_files =
          List.concat_map (function Allow_file rs, _ -> rs | _ -> []) marks;
        syntax;
      },
      lines Hot,
      lines Cold,
      List.filter_map
        (function
          | Unit u, (c : Astparse.comment) ->
              Some (u, c.start_line, c.after_code)
          | _ -> None)
        marks )
  in
  if is_mli then
    match Astparse.interface ~filename:rel content with
    | Some (signature, comments) ->
        let base, _, _, units =
          parsed comments (Syntax.signature ctx signature comments)
        in
        let mli_vals = mli_vals_of_signature signature in
        let attach items =
          List.filter_map
            (fun (name, line) ->
              Option.map (fun u -> (name, u)) (unit_annot_near units line))
            items
        in
        {
          base with
          mli_vals;
          val_units = attach mli_vals;
          field_units = attach (mli_fields_of_signature signature);
        }
    | None -> base
  else
    match Astparse.implementation ~filename:rel content with
    | Some (structure, comments) ->
        let base, hots, colds, units =
          parsed comments (Syntax.structure ctx ~source:content structure)
        in
        let st =
          {
            st_opens = [];
            st_aliases = [];
            st_toplevel = [];
            st_topmuts = [];
            st_fns = [];
            st_refs = [];
            st_creates = [];
            st_accums = [];
            st_hots = hots;
            st_colds = colds;
            st_units = units;
            st_fields = [];
          }
        in
        collect_scaffolding st structure;
        collect_fns st structure;
        {
          base with
          opens = List.rev st.st_opens;
          aliases = st.st_aliases;
          fns = List.rev st.st_fns;
          refs = List.sort_uniq compare st.st_refs;
          field_units = List.rev st.st_fields;
          rng_creates = List.rev st.st_creates;
          float_accums = List.rev st.st_accums;
          toplevel_muts = List.rev st.st_topmuts;
        }
    | None -> base
