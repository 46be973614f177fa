type t = Sink.t option

let null = None
let of_sink sink = Some sink
let enabled t = Option.is_some t

let emit t thunk =
  match t with None -> () | Some sink -> Sink.emit sink (thunk ())

let close t = match t with None -> () | Some sink -> Sink.close sink
