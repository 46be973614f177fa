(* The syntactic rules D1 D2 F1 M1 E1 O1 over the compiler-libs parse
   tree.

   Each rule is a pattern match on one node shape: an identifier path
   (D1 D2 O1), an application (F1 E1, and the [~random:false] exemption
   of D1), or a top-level signature item (M1).  Findings are raw; the
   Sema driver applies suppression comments, as for every other rule. *)

open Asttypes
open Longident
open Parsetree
module Diag = Mppm_lint.Diag
module Rules = Mppm_lint.Rules

let diag (ctx : Rules.ctx) (loc : Location.t) rule severity message =
  { Diag.file = ctx.rel; line = loc.loc_start.pos_lnum; rule; severity;
    message }

let lib_error (ctx : Rules.ctx) =
  if ctx.in_lib then Diag.Error else Diag.Warning

let rec components = function
  | Lident s -> [ s ]
  | Ldot (p, s) -> components p @ [ s ]
  | Lapply (p, _) -> components p

(* ---- D1 / D2 / O1: identifier paths ------------------------------------ *)

let wall_clock_members =
  [ "gettimeofday"; "time"; "gmtime"; "localtime"; "times" ]
let hash_members = [ "hash"; "seeded_hash"; "hash_param"; "randomize" ]

(* Bare stdlib channel printers.  [Format.pp_print_string ppf ...] is fine
   (the caller chose the formatter); writing straight to stdout/stderr from
   the model path is not. *)
let console_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes";
  ]

let console (ctx : Rules.ctx) loc what =
  if ctx.is_mli || ctx.scope = Rules.Exec then []
  else
    [
      diag ctx loc "O1" (lib_error ctx)
        (Printf.sprintf
           "console output (%s) in %s: return data, render via a \
            caller-supplied formatter, or emit through an Mppm_obs sink"
           what
           (if ctx.in_lib then "lib/" else "test/examples code"));
    ]

(* The rules keyed on a path's head module and the component after it
   ([""] for a bare module path). *)
let path_rules (ctx : Rules.ctx) loc head member =
  let d1 message = [ diag ctx loc "D1" Diag.Error message ] in
  match (head, member) with
  | "Random", _ ->
      if ctx.in_lib then
        d1 "stdlib Random is banned in lib/ (all randomness must flow \
            through Mppm_util.Rng)"
      else
        [
          diag ctx loc "D2" Diag.Error
            "stdlib Random used outside Mppm_util.Rng; derive a seeded \
             Mppm_util.Rng.t instead";
        ]
  | "Sys", "time" when ctx.in_lib ->
      d1 "wall-clock read (Sys.time) in the model path breaks bit-for-bit \
          determinism"
  | "Unix", m when ctx.in_lib && List.mem m wall_clock_members ->
      d1
        (Printf.sprintf
           "wall-clock read (Unix.%s) in the model path breaks bit-for-bit \
            determinism"
           m)
  | "Hashtbl", m when ctx.in_lib && List.mem m hash_members ->
      d1
        (Printf.sprintf
           "Hashtbl.%s depends on the polymorphic hash; use \
            Mppm_util.Fingerprint or an explicit key function"
           m)
  | "Hashtbl", "create" when ctx.in_lib ->
      d1 "Hashtbl.create without ~random:false: iteration order must not \
          depend on OCAMLRUNPARAM=R"
  | ("Printf" | "Format"), ("printf" | "eprintf")
  | "Format", ("std_formatter" | "err_formatter") ->
      console ctx loc (head ^ "." ^ member)
  | _ -> []

(* A value or type path names a module only when qualified; a module
   path always does. *)
let path ctx ~modl { Location.txt; loc } =
  match components txt with
  | head :: member :: _ -> path_rules ctx loc head member
  | [ head ] when modl -> path_rules ctx loc head ""
  | _ -> []

(* ---- F1 / E1: applications ---------------------------------------------- *)

(* A float literal, or an infix application whose left operand starts
   with one ([0.5 +. y]). *)
let rec float_lit e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident op; _ }; _ },
        [ (Nolabel, lhs); (Nolabel, _) ] ) ->
      String.contains "=<>@^|&+-*/$%" op.[0] && float_lit lhs
  | _ -> false

(* The operands a comparison function passed as an argument is applied
   to: a float literal, or a tuple/list/array literal holding one. *)
let rec holds_float_lit e =
  float_lit e
  ||
  match e.pexp_desc with
  | Pexp_tuple es | Pexp_array es -> List.exists holds_float_lit es
  | Pexp_construct ({ txt = Lident "::"; _ }, Some e) ->
      holds_float_lit e
  | _ -> false

let ident e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident id; loc } -> Some (id, loc)
  | _ -> None

(* [x = 0.5], [compare x 0.5], and [List.sort compare [0.5; 1.0]]. *)
let f1 ctx f args =
  let f1 loc op =
    [
      diag ctx loc "F1" (lib_error ctx)
        (Printf.sprintf
           "float equality via polymorphic %s: use \
            Mppm_util.Stats.approx_equal (or Float.equal when exact \
            comparison is intended)"
           op);
    ]
  in
  let rec passed = function
    | a :: rest ->
        (match ident a with
        | Some ("compare", loc) when List.exists holds_float_lit rest ->
            f1 loc "compare"
        | _ -> [])
        @ passed rest
    | [] -> []
  in
  (match ident f with
  | Some ((("=" | "==" | "<>" | "!=" | "compare") as op), loc)
    when List.exists float_lit args ->
      f1 loc op
  | _ -> [])
  @ passed args

(* [failwith "msg"], or [failwith] passed just before its literal
   message ([Printf.ksprintf failwith "..."]).  The message is quoted as
   written in the source, escapes included. *)
let e1 (ctx : Rules.ctx) ~source exprs =
  let dot = ctx.module_name ^ "." and colon = ctx.module_name ^ ":" in
  let rec go = function
    | callee :: (msg :: _ as rest) ->
        (match (ident callee, msg.pexp_desc) with
        | ( Some ((("failwith" | "invalid_arg") as fn), loc),
            Pexp_constant (Pconst_string (_, (l : Location.t), _)) ) ->
            let s =
              String.sub source l.loc_start.pos_cnum
                (l.loc_end.pos_cnum - l.loc_start.pos_cnum)
            in
            if String.starts_with ~prefix:dot s
               || String.starts_with ~prefix:colon s
            then []
            else
              [
                diag ctx loc "E1" Diag.Error
                  (Printf.sprintf
                     "%s message %S must carry the module prefix (\"%s\" \
                      or \"%s\")"
                     fn s dot colon);
              ]
        | _ -> [])
        @ go rest
    | _ -> []
  in
  go exprs

let random_false = function
  | ( Labelled "random",
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ) ->
      true
  | _ -> false

(* ---- the walk ------------------------------------------------------------ *)

(* Rules D1 D2 O1 look at the paths that can name a banned module or
   printer in code that compiles: values, type constructors and module
   paths. *)
let walk (ctx : Rules.ctx) ~source visit =
  let found = ref [] in
  let add ds = found := List.rev_append ds !found in
  let path ?(modl = false) lid = add (path ctx ~modl lid) in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when components txt = [ "Hashtbl"; "create" ]
           && List.exists random_false args ->
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | desc ->
        (match desc with
        | Pexp_ident { txt = Lident id; loc } ->
            if List.mem id console_idents then add (console ctx loc id)
        | Pexp_ident lid -> path lid
        | Pexp_apply (f, args) when not ctx.is_mli ->
            let args = List.map snd args in
            add (f1 ctx f args);
            if ctx.in_lib then add (e1 ctx ~source (f :: args))
        | _ -> ());
        super.expr it e
  in
  let hook check super_hook it x =
    check x;
    super_hook it x
  in
  visit
    {
      super with
      expr;
      typ =
        hook
          (fun t ->
            match t.ptyp_desc with Ptyp_constr (lid, _) -> path lid | _ -> ())
          super.typ;
      module_expr =
        hook
          (fun m ->
            match m.pmod_desc with Pmod_ident l -> path ~modl:true l | _ -> ())
          super.module_expr;
      module_type =
        hook
          (fun m ->
            match m.pmty_desc with Pmty_alias l -> path ~modl:true l | _ -> ())
          super.module_type;
      open_description =
        hook (fun o -> path ~modl:true o.popen_expr) super.open_description;
    };
  !found

let structure ctx ~source str =
  List.sort Diag.compare
    (walk ctx ~source (fun it -> it.Ast_iterator.structure it str))

(* ---- M1: interface documentation ---------------------------------------- *)

(* Top-level documentable items: [(line, kind, name)].  The name is the
   word after the keyword: ["_"] when a parameter list or an operator
   comes first, ["nonrec"] for [type nonrec]. *)
let items sg =
  let word s =
    match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> s | _ -> "_"
  in
  let type_name = function
    | d :: _ when d.ptype_params = [] -> d.ptype_name.txt
    | _ -> "_"
  in
  List.filter_map
    (fun item ->
      let at kind name = Some (item.psig_loc.loc_start.pos_lnum, kind, name) in
      match item.psig_desc with
      | Psig_value vd ->
          at
            (if vd.pval_prim = [] then "val" else "external")
            (word vd.pval_name.txt)
      | Psig_type (rf, ds) ->
          at "type" (if rf = Nonrecursive then "nonrec" else type_name ds)
      | Psig_typesubst ds -> at "type" (type_name ds)
      | Psig_typext te ->
          at "type"
            (if te.ptyext_params <> [] then "_"
             else List.hd (components te.ptyext_path.txt))
      | Psig_exception ex -> at "exception" ex.ptyexn_constructor.pext_name.txt
      | _ -> None)
    sg

(* An item is documented by a doc comment ending on its line or the line
   above, or by one starting anywhere in its span (up to the next
   item). *)
let mli_docs (ctx : Rules.ctx) sg (comments : Astparse.comment list) =
  let docs = List.filter (fun (c : Astparse.comment) -> c.doc) comments in
  let last_line =
    List.fold_left
      (fun m (c : Astparse.comment) -> max m c.end_line)
      (List.fold_left (fun m i -> max m i.psig_loc.loc_end.pos_lnum) 0 sg)
      docs
  in
  let rec check = function
    | [] -> []
    | (line, kind, name) :: rest ->
        let span_end =
          match rest with (next, _, _) :: _ -> next - 1 | [] -> last_line
        in
        let documented (d : Astparse.comment) =
          line - d.end_line = 0
          || line - d.end_line = 1
          || (d.start_line >= line && d.start_line <= span_end)
        in
        let severity =
          (* Interfaces under test/ and examples/ are held to the same
             documentation bar, but only advisorily. *)
          if ctx.scope = Rules.Lib && (kind = "val" || kind = "external")
          then Diag.Error
          else Diag.Warning
        in
        (if List.exists documented docs then []
         else
           [
             { Diag.file = ctx.rel; line; rule = "M1"; severity;
               message = Printf.sprintf "%s %s has no doc comment" kind name };
           ])
        @ check rest
  in
  check (items sg)

let signature (ctx : Rules.ctx) sg comments =
  List.sort Diag.compare
    ((if ctx.scope = Rules.Exec then [] else mli_docs ctx sg comments)
    @ walk ctx ~source:"" (fun it -> it.Ast_iterator.signature it sg))
