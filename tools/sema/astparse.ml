(* Total wrappers around the compiler-libs parser.

   One malformed file must never crash the linter: any exception from the
   lexer/parser (syntax errors, malformed literals, even assertion
   failures on adversarial bytes) is caught and surfaced as [None], which
   the driver counts as a parse fallback.  This totality is
   qcheck-verified in test/suite_sema.ml.

   Comments come from the compiler's own lexer ([Lexer.comments], reset
   by every parse), so the linter has a single front end. *)

type comment = {
  text : string;
  start_line : int;
  end_line : int;
  doc : bool;
  after_code : bool;
}

let fresh_lexbuf ~filename content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf filename;
  lexbuf.Lexing.lex_curr_p <-
    { lexbuf.Lexing.lex_curr_p with Lexing.pos_lnum = 1; pos_bol = 0 };
  lexbuf

(* Annotate the lexer's (text, location) pairs.  [doc] follows the
   source bytes: "(**" opens a doc comment unless it is "(**)".
   [after_code] scans back from the opening delimiter to the start of
   its line, hopping over the earlier comments it meets. *)
let comments_of content raw =
  let locs = Array.of_list (List.map snd raw) in
  let byte i = if i < String.length content then content.[i] else ' ' in
  List.mapi
    (fun k (text, (loc : Location.t)) ->
      let start = loc.loc_start.pos_cnum in
      let rec code_before i prev =
        if i < loc.loc_start.pos_bol then false
        else if prev >= 0 && locs.(prev).Location.loc_end.pos_cnum = i + 1 then
          code_before (locs.(prev).loc_start.pos_cnum - 1) (prev - 1)
        else if String.contains " \t\r" content.[i] then
          code_before (i - 1) prev
        else true
      in
      {
        text;
        start_line = loc.loc_start.pos_lnum;
        end_line = loc.loc_end.pos_lnum;
        doc = byte (start + 2) = '*' && byte (start + 3) <> ')';
        after_code = code_before (start - 1) (k - 1);
      })
    raw

let parse parser ~filename content =
  match parser (fresh_lexbuf ~filename content) with
  | tree -> Some (tree, comments_of content (Lexer.comments ()))
  | exception _ -> None

let implementation ~filename content =
  parse Parse.implementation ~filename content

let interface ~filename content = parse Parse.interface ~filename content
