type severity = Error | Warning

type t = {
  file : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_text d =
  Printf.sprintf "%s:%d: [%s] %s: %s" d.file d.line d.rule
    (severity_to_string d.severity)
    d.message

let esc = Mppm_obs.Event.escape_string

let to_json d =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"}"
    (esc d.file) d.line (esc d.rule)
    (severity_to_string d.severity)
    (esc d.message)

let list_to_json ds =
  match ds with
  | [] -> "[]"
  | ds -> "[\n  " ^ String.concat ",\n  " (List.map to_json ds) ^ "\n]"

let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match Int.compare a.line b.line with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
  | c -> c
