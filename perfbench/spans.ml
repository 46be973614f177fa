(* The traced run's span recorder.

   Spans are taken in the benchmark's own code, around calls into the
   program's public functions; the program itself is not instrumented.
   Each span records its name, start and end (host seconds), the span
   that caused it, the minor words the main domain allocated inside it
   (checked with [Measure.settle]),
   and a count of work units (instructions, accesses, epochs, ...) so
   that per-unit ratios are measured where the work happens.  Spans are
   kept in memory and written out once, when the run ends.  With a
   disabled recorder [span] is exactly [f ()]. *)

type span = {
  id : int;
  parent : int;  (* 0 = a root span *)
  name : string;
  start : float;
  stop : float;
  words : float;
  units : float;
}

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (* newest first *)
}

let create ~enabled = { enabled; next_id = 1; stack = []; spans = [] }

let enabled t = t.enabled

(* [span t name ~units f] runs [f ()] inside a span; [units] derives the
   span's work count from the result. *)
let span t name ?(units = fun _ -> 1.0) f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let all0 = Measure.all_words () in
    let w0 = Measure.words () in
    let start = Measure.now () in
    let r =
      Fun.protect ~finally:(fun () -> t.stack <- List.tl t.stack) f
    in
    let stop = Measure.now () in
    let w1 = Measure.words () in
    Measure.settle ~all0 ~own:(w1 -. w0);
    t.spans <-
      { id; parent; name; start; stop; words = w1 -. w0; units = units r }
      :: t.spans;
    r
  end

let all t = List.rev t.spans

let named t name = List.filter (fun s -> String.equal s.name name) (all t)

let duration s = s.stop -. s.start

(* Summed duration, words and units over every span of one name. *)
let totals t name =
  List.fold_left
    (fun (dt, w, u) s -> (dt +. duration s, w +. s.words, u +. s.units))
    (0.0, 0.0, 0.0) (named t name)

let durations t name = Array.of_list (List.map duration (named t name))

(* Writes one JSON line per span.  Self time is the span's duration
   minus the part its direct children cover. *)
let write t path =
  let children = Hashtbl.create ~random:false 1024 in
  List.iter
    (fun s ->
      let acc = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (acc +. duration s))
    t.spans;
  let self_time s =
    duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"dur_s\":%.9f,\"self_s\":%.9f,\"words\":%.0f,\"units\":%.0f}\n"
            s.id s.parent s.name s.start (duration s) (self_time s) s.words
            s.units)
        (all t))
