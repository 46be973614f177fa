type scope = Lib | Exec | Testish

type ctx = {
  rel : string;
  scope : scope;
  in_lib : bool;
  is_mli : bool;
  module_name : string;
}

let all_rule_ids =
  [ "D1"; "D2"; "F1"; "M1"; "E1"; "O1";
    "S1"; "S2"; "S3"; "S4"; "S5"; "S6"; "S7"; "S8";
    "P1"; "P2"; "P3"; "P4"; "U1"; "U2"; "U3" ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let scope_of_rel rel =
  if starts_with "lib/" rel then Lib
  else if starts_with "test/" rel || starts_with "examples/" rel then Testish
  else Exec

let context_of_rel rel =
  let base = Filename.basename rel in
  let stem = Filename.remove_extension base in
  let scope = scope_of_rel rel in
  {
    rel;
    scope;
    in_lib = scope = Lib;
    is_mli = Filename.extension base = ".mli";
    module_name = String.capitalize_ascii stem;
  }

let diag ctx ~line ~rule ~severity message =
  { Diag.file = ctx.rel; line; rule; severity; message }

open Lexer

let tok_at tokens i =
  if i >= 0 && i < Array.length tokens then Some tokens.(i).tok else None

(* [qualified tokens i] is [Some (modname, member)] when token [i] starts a
   qualified path like [Random.int] that is not itself prefixed by a longer
   path ([Mppm_util.Rng.int] must not match [Rng.]). *)
let qualified tokens i =
  match tok_at tokens i with
  | Some (Uident u) when tok_at tokens (i + 1) = Some (Op ".") -> (
      match tok_at tokens (i - 1) with
      | Some (Op ".") -> None
      | _ -> (
          match tok_at tokens (i + 2) with
          | Some (Ident m) -> Some (u, m)
          | _ -> Some (u, "")))
  | _ -> None

(* ---- D1 / D2: nondeterminism sources --------------------------------- *)

let wall_clock_members = [ "gettimeofday"; "time"; "gmtime"; "localtime"; "times" ]
let hash_members = [ "hash"; "seeded_hash"; "hash_param"; "randomize" ]

(* Does the argument list of a [Hashtbl.create] starting after token [i]
   (the [create] member) pass [~random:false]?  Looks a short window ahead. *)
let has_random_false tokens i =
  let found = ref false in
  for j = i to i + 8 do
    if
      tok_at tokens j = Some (Op "~")
      && tok_at tokens (j + 1) = Some (Ident "random")
      && tok_at tokens (j + 2) = Some (Op ":")
      && tok_at tokens (j + 3) = Some (Ident "false")
    then found := true
  done;
  !found

let check_nondeterminism ctx lx acc =
  let tokens = lx.tokens in
  let out = ref acc in
  Array.iteri
    (fun i { tok = _; line } ->
      match qualified tokens i with
      | Some ("Random", _) ->
          if ctx.in_lib then
            out :=
              diag ctx ~line ~rule:"D1" ~severity:Diag.Error
                "stdlib Random is banned in lib/ (all randomness must flow \
                 through Mppm_util.Rng)"
              :: !out
          else if ctx.rel <> "lib/util/rng.ml" then
            out :=
              diag ctx ~line ~rule:"D2" ~severity:Diag.Error
                "stdlib Random used outside Mppm_util.Rng; derive a seeded \
                 Mppm_util.Rng.t instead"
              :: !out
      | Some ("Sys", "time") when ctx.in_lib ->
          out :=
            diag ctx ~line ~rule:"D1" ~severity:Diag.Error
              "wall-clock read (Sys.time) in the model path breaks \
               bit-for-bit determinism"
            :: !out
      | Some ("Unix", m) when ctx.in_lib && List.mem m wall_clock_members ->
          out :=
            diag ctx ~line ~rule:"D1" ~severity:Diag.Error
              (Printf.sprintf
                 "wall-clock read (Unix.%s) in the model path breaks \
                  bit-for-bit determinism"
                 m)
            :: !out
      | Some ("Hashtbl", m) when ctx.in_lib && List.mem m hash_members ->
          out :=
            diag ctx ~line ~rule:"D1" ~severity:Diag.Error
              (Printf.sprintf
                 "Hashtbl.%s depends on the polymorphic hash; use \
                  Mppm_util.Fingerprint or an explicit key function"
                 m)
            :: !out
      | Some ("Hashtbl", "create")
        when ctx.in_lib && not (has_random_false tokens (i + 2)) ->
          out :=
            diag ctx ~line ~rule:"D1" ~severity:Diag.Error
              "Hashtbl.create without ~random:false: iteration order must \
               not depend on OCAMLRUNPARAM=R"
            :: !out
      | _ -> ())
    tokens;
  !out

(* ---- F1: float equality ----------------------------------------------- *)

let is_float_number = function
  | Some (Number { is_float = true; _ }) -> true
  | _ -> false

(* Index of the token preceding the operand whose last token is [j]
   (walks back over projections [a.b], indexing [a.(i)], parenthesised
   groups and [!] dereference).  [-1] when the operand opens the file or the
   walk fails (unbalanced parens). *)
let rec before_operand tokens j =
  if j < 0 then -1
  else
    let atom_start =
      match tok_at tokens j with
      | Some (Op ")") ->
          let depth = ref 0 and k = ref j and found = ref (-1) in
          while !found < 0 && !k >= 0 do
            (match tokens.(!k).tok with
            | Op ")" -> incr depth
            | Op "(" ->
                decr depth;
                if !depth = 0 then found := !k
            | _ -> ());
            decr k
          done;
          !found
      | Some (Ident _ | Uident _ | Number _ | Chr | Str _) -> j
      | _ -> -1
    in
    if atom_start < 0 then -1
    else
      match tok_at tokens (atom_start - 1) with
      | Some (Op ".") -> before_operand tokens (atom_start - 2)
      | Some (Op "!") -> atom_start - 2
      | _ -> atom_start - 1

(* Is the token at [p] something that starts a boolean/comparison context
   (rather than a let-binding, record field or labelled default)? *)
let comparison_start tokens p =
  match tok_at tokens p with
  | Some (Ident ("if" | "when" | "while" | "then" | "else" | "begin" | "not" | "do"))
    ->
      true
  | Some (Op ("&&" | "||" | "->")) -> true
  | Some (Op "(") -> tok_at tokens (p - 1) = Some (Ident "assert")
  | _ -> false

let float_eq_message op =
  Printf.sprintf
    "float equality via polymorphic %s: use Mppm_util.Stats.approx_equal \
     (or Float.equal when exact comparison is intended)"
    op

let check_float_equality ctx lx acc =
  let tokens = lx.tokens in
  let severity = if ctx.in_lib then Diag.Error else Diag.Warning in
  let out = ref acc in
  Array.iteri
    (fun i { tok; line } ->
      match tok with
      | Op (("=" | "==" | "<>" | "!=") as op) ->
          let right_float =
            is_float_number (tok_at tokens (i + 1))
            || (match tok_at tokens (i + 1) with
               | Some (Op ("-" | "-.")) -> is_float_number (tok_at tokens (i + 2))
               | _ -> false)
          in
          let left_float = is_float_number (tok_at tokens (i - 1)) in
          let flagged =
            (right_float
            && comparison_start tokens (before_operand tokens (i - 1)))
            || (left_float
               && comparison_start tokens (before_operand tokens (i - 1)))
          in
          if flagged then
            out :=
              diag ctx ~line ~rule:"F1" ~severity (float_eq_message op) :: !out
      | Ident "compare" when tok_at tokens (i - 1) <> Some (Op ".") ->
          let arg_float =
            is_float_number (tok_at tokens (i + 1))
            || is_float_number (tok_at tokens (i + 2))
            || is_float_number (tok_at tokens (i + 3))
          in
          if arg_float then
            out :=
              diag ctx ~line ~rule:"F1" ~severity (float_eq_message "compare")
              :: !out
      | _ -> ())
    tokens;
  !out

(* ---- M1: interface documentation -------------------------------------- *)

type item = { item_line : int; item_kind : string; item_name : string }

(* Top-level signature items of an .mli, with nesting tracked so items of
   inline module signatures are ignored. *)
let signature_items tokens =
  let depth = ref 0 in
  let items = ref [] in
  Array.iteri
    (fun i { tok; line } ->
      match tok with
      | Ident ("sig" | "struct" | "object" | "begin") -> incr depth
      | Ident "end" -> if !depth > 0 then decr depth
      | Ident (("val" | "external" | "type" | "exception") as kind)
        when !depth = 0 ->
          (* "type" can also appear in "module type" — skip that form. *)
          let after_module = tok_at tokens (i - 1) = Some (Ident "module") in
          (* In "type nonrec t" / "type 'a t", find the name loosely. *)
          let name =
            match tok_at tokens (i + 1) with
            | Some (Ident n) -> n
            | Some (Uident n) -> n
            | _ -> "_"
          in
          if not after_module then
            items := { item_line = line; item_kind = kind; item_name = name } :: !items
      | _ -> ())
    tokens;
  List.rev !items

let check_mli_docs ctx lx acc =
  if not (ctx.is_mli && (ctx.scope = Lib || ctx.scope = Testish)) then acc
  else
    let items = signature_items lx.tokens in
    let last_line =
      List.fold_left
        (fun m d -> max m d.doc_end)
        (Array.fold_left (fun m t -> max m t.line) 0 lx.tokens)
        lx.docs
    in
    let rec spans = function
      | [] -> []
      | [ it ] -> [ (it, last_line) ]
      | it :: (next :: _ as rest) ->
          (it, next.item_line - 1) :: spans rest
    in
    List.fold_left
      (fun acc (it, span_end) ->
        let documented =
          List.exists
            (fun d ->
              let gap = it.item_line - d.doc_end in
              (gap = 0 || gap = 1)
              || (d.doc_start >= it.item_line && d.doc_start <= span_end))
            lx.docs
        in
        if documented then acc
        else
          let severity =
            (* Interfaces under test/ and examples/ are held to the same
               documentation bar, but only advisorily. *)
            if ctx.scope = Testish then Diag.Warning
            else
              match it.item_kind with
              | "val" | "external" -> Diag.Error
              | _ -> Diag.Warning
          in
          diag ctx ~line:it.item_line ~rule:"M1" ~severity
            (Printf.sprintf "%s %s has no doc comment" it.item_kind
               it.item_name)
          :: acc)
      acc (spans items)

(* ---- E1: error message prefixes ---------------------------------------- *)

let check_error_prefixes ctx lx acc =
  if not ctx.in_lib then acc
  else
    let tokens = lx.tokens in
    let prefix_dot = ctx.module_name ^ "." in
    let prefix_colon = ctx.module_name ^ ":" in
    let starts_with p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    let out = ref acc in
    Array.iteri
      (fun i { tok; line } ->
        match tok with
        | Ident (("failwith" | "invalid_arg") as fn)
          when tok_at tokens (i - 1) <> Some (Op ".") -> (
            match tok_at tokens (i + 1) with
            | Some (Str s)
              when not (starts_with prefix_dot s || starts_with prefix_colon s)
              ->
                out :=
                  diag ctx ~line ~rule:"E1" ~severity:Diag.Error
                    (Printf.sprintf
                       "%s message %S must carry the module prefix (\"%s\" \
                        or \"%s\")"
                       fn s prefix_dot prefix_colon)
                  :: !out
            | _ -> ())
        | _ -> ())
      tokens;
    !out

(* ---- O1: console output in lib/ ---------------------------------------- *)

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

let console_message ctx what =
  Printf.sprintf
    "console output (%s) in %s: return data, render via a caller-supplied \
     formatter, or emit through an Mppm_obs sink"
    what
    (match ctx.scope with Lib -> "lib/" | _ -> "test/examples code")

let check_console_output ctx lx acc =
  if not (ctx.scope = Lib || ctx.scope = Testish) then acc
  else
    let severity = if ctx.scope = Lib then Diag.Error else Diag.Warning in
    let tokens = lx.tokens in
    let out = ref acc in
    Array.iteri
      (fun i { tok; line } ->
        match tok with
        | Ident id
          when List.mem id console_idents
               && tok_at tokens (i - 1) <> Some (Op ".") ->
            out :=
              diag ctx ~line ~rule:"O1" ~severity (console_message ctx id)
              :: !out
        | _ -> (
            match qualified tokens i with
            | Some ((("Printf" | "Format") as u), (("printf" | "eprintf") as m))
              ->
                out :=
                  diag ctx ~line ~rule:"O1" ~severity
                    (console_message ctx (u ^ "." ^ m))
                  :: !out
            | Some ("Format", (("std_formatter" | "err_formatter") as m)) ->
                out :=
                  diag ctx ~line ~rule:"O1" ~severity
                    (console_message ctx ("Format." ^ m))
                  :: !out
            | _ -> ()))
      tokens;
    !out

(* ---- dune files -------------------------------------------------------- *)

let check_dune ~rel content =
  let in_lib = String.length rel >= 4 && String.sub rel 0 4 = "lib/" in
  if not in_lib then []
  else
    let lines = String.split_on_char '\n' content in
    let is_word_char c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_'
    in
    let has_word line w =
      let n = String.length line and k = String.length w in
      let rec go i =
        if i + k > n then false
        else if
          String.sub line i k = w
          && (i = 0 || not (is_word_char line.[i - 1]))
          && (i + k = n || not (is_word_char line.[i + k]))
        then true
        else go (i + 1)
      in
      go 0
    in
    List.concat
      (List.mapi
         (fun idx line ->
           if has_word line "unix" then
             [
               {
                 Diag.file = rel;
                 line = idx + 1;
                 rule = "D1";
                 severity = Diag.Error;
                 message =
                   "lib/ libraries must not link unix (wall-clock and \
                    process state are banned from the model path)";
               };
             ]
           else [])
         lines)

let missing_mli ~rel_ml =
  let ctx = context_of_rel rel_ml in
  diag ctx ~line:1 ~rule:"M1" ~severity:Diag.Error
    (Printf.sprintf "public module %s has no .mli interface" ctx.module_name)

(* ---- entry point -------------------------------------------------------- *)

let check_tokens ctx lx =
  let acc = [] in
  let acc = check_nondeterminism ctx lx acc in
  let acc = if ctx.is_mli then acc else check_float_equality ctx lx acc in
  let acc = check_mli_docs ctx lx acc in
  let acc = if ctx.is_mli then acc else check_error_prefixes ctx lx acc in
  let acc = if ctx.is_mli then acc else check_console_output ctx lx acc in
  List.sort Diag.compare acc
