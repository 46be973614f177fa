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

let in_lib rel = String.starts_with ~prefix:"lib/" rel

let scope_of_rel rel =
  let under dir = String.starts_with ~prefix:dir rel in
  if in_lib rel then Lib
  else if under "test/" || under "examples/" then Testish
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

(* ---- dune files -------------------------------------------------------- *)

(* One D1 finding per line of a lib/ dune file naming the [unix] library
   as a whole word. *)
let check_dune ~rel content =
  let word_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let rec has_unix line i =
    i + 4 <= String.length line
    && (String.sub line i 4 = "unix"
        && (i = 0 || not (word_char line.[i - 1]))
        && (i + 4 = String.length line || not (word_char line.[i + 4]))
       || has_unix line (i + 1))
  in
  if scope_of_rel rel <> Lib then []
  else
    List.concat
      (List.mapi
         (fun idx line ->
           if not (has_unix line 0) then []
           else
             [ { Diag.file = rel; line = idx + 1; rule = "D1";
                 severity = Diag.Error;
                 message =
                   "lib/ libraries must not link unix (wall-clock and \
                    process state are banned from the model path)" } ])
         (String.split_on_char '\n' content))

let missing_mli files =
  List.filter_map
    (fun rel ->
      let ctx = context_of_rel rel in
      if ctx.in_lib && (not ctx.is_mli) && not (List.mem (rel ^ "i") files) then
        Some
          { Diag.file = rel; line = 1; rule = "M1"; severity = Diag.Error;
            message =
              Printf.sprintf "public module %s has no .mli interface"
                ctx.module_name }
      else None)
    files
