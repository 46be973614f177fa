(** Structured lint diagnostics and their textual / JSON rendering. *)

type severity = Error | Warning

type t = {
  file : string;  (** path relative to the lint root, '/'-separated *)
  line : int;  (** 1-based line of the finding *)
  rule : string;  (** rule identifier, e.g. ["D1"] *)
  severity : severity;
  message : string;  (** human-readable explanation *)
}

val to_text : t -> string
(** One [file:line: [rule] severity: message] line, the [--format text]
    rendering. *)

val list_to_json : t list -> string
(** A JSON array with one object per line, each with [file], [line],
    [rule], [severity] and [message] fields (strings escaped per RFC
    8259), suitable for CI annotation consumers. *)

val compare : t -> t -> int
(** Order by file, then line, then rule — the stable report order. *)
