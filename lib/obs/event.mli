(** Typed trace events and their wire formats.

    An event is a named record stamped with a {e virtual} timestamp —
    cycles or instructions, never wall-clock inside [lib/] — plus an
    optional duration (a span) and a flat list of typed fields.

    Two wire formats are supported: JSONL (one self-contained JSON object
    per line; the canonical, parseable format) and the Chrome
    [trace_event] object format (for chrome://tracing / Perfetto).  Both
    renderings are deterministic: float formatting is locale-free and
    shortest-round-trip, so identical runs produce byte-identical
    traces. *)

(** A field value.  Numbers distinguish [Int] from [Float] so counters
    round-trip exactly. *)
type value =
  | Int of int
  | Float of float
  | String of string
  | List of value list

type t = {
  name : string;  (** dotted event name, e.g. ["model.quantum"] *)
  time : float;  (** virtual timestamp (cycles or instructions) *)
  dur : float option;  (** span length in the same unit; [None] = instant *)
  fields : (string * value) list;  (** payload, in emission order *)
}

val make : name:string -> time:float -> ?dur:float -> (string * value) list -> t
(** [make ~name ~time ?dur fields] validates and builds an event.  Raises
    [Invalid_argument] on an empty name, non-finite time, negative or
    non-finite duration, or a field named [name]/[t]/[dur] (the reserved
    JSONL keys). *)

val to_jsonl : t -> string
(** One-line JSON object: [{"name":..., "t":..., ("dur":...,)? fields...}].
    No trailing newline.  Raises [Invalid_argument] if a float field is
    NaN or infinite (they have no JSON representation). *)

val of_jsonl : string -> (t, string) result
(** Parse one {!to_jsonl} line back.  Total — malformed input yields
    [Error] with a diagnostic, never an exception. *)

val to_chrome : ?pid:int -> ?tid:int -> t -> string
(** The event as a Chrome [trace_event] JSON object ("X" complete event
    when [dur] is present, "i" instant otherwise; fields become [args]).
    [pid]/[tid] pick the process/thread timeline rows (both default 0;
    the bench phase trace routes pool tasks onto per-domain [tid] lanes).
    Callers wrap the objects in a JSON array to form a loadable trace —
    see {!Render.chrome}. *)

val escape_string : string -> string
(** Escape a string for embedding in a JSON string literal (RFC 8259):
    quote, backslash, [\n], [\r] and [\t] get their short escapes, other
    control characters become [\u00XX], every other byte passes through.
    The one JSON string escaper of the repo: trace events and the lint
    JSON and SARIF renderers all use it. *)

val float_field : t -> string -> float option
(** Numeric field as a float ([Int] coerces); [None] when absent or not a
    number. *)

val int_field : t -> string -> int option
(** Integer field; [None] when absent or not an [Int]. *)

val float_list_field : t -> string -> float list option
(** A [List] field of numbers, as floats; [None] on any non-number
    element. *)

val string_list_field : t -> string -> string list option
(** A [List] field of strings; [None] on any non-string element. *)
