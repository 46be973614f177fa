(* Inputs, paths, recorded digests and the mppmd client shared by the
   workloads. *)

module Rng = Mppm_util.Rng
module Suite = Mppm_trace.Suite
module Mix = Mppm_workload.Mix
module Sampler = Mppm_workload.Sampler
module Context = Mppm_experiments.Context
module Scale = Mppm_experiments.Scale
module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
module Model = Mppm_core.Model
module Registry = Mppm_obs.Registry

(* Every workload runs on Table 2 LLC config #1 with the CLI's defaults
   (2M-instruction traces, context seed 42), so in-process answers are
   the bytes `mppm` and `mppmd` print for the same query. *)
let llc_config = 1
let scale = Scale.default
let context_seed = 42

(* The seed the recorded population digests were taken at. *)
let default_seed = 1

(* ---- scratch space inside the checkout -------------------------------- *)

let root_dir = ".bench_build/perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_dir () =
  Filename.concat root_dir (Printf.sprintf "run-%d" (Unix.getpid ()))

(* A fresh directory under this process's run directory, which is
   removed at exit. *)
let fresh_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    let dir =
      Filename.concat (run_dir ()) (Printf.sprintf "%s-%d" label !counter)
    in
    remove_tree dir;
    mkdir_p dir;
    dir

(* ---- seeded inputs ----------------------------------------------------- *)

let mix_of_indices idx = Mix.of_indices ~n:Suite.count idx

let random_mix rng ~cores = (Sampler.random_mixes rng ~cores ~count:1).(0)

let names mix = Array.to_list (Mix.names mix)

(* ---- recorded digests -------------------------------------------------- *)

let expected_file = "perfbench/expected.txt"

let recorded =
  lazy
    (match open_in expected_file with
    | exception Sys_error _ -> []
    | ic ->
        let rec loop acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
              match String.split_on_char ' ' (String.trim line) with
              | [ key; hex ] when not (String.starts_with ~prefix:"#" key) ->
                  loop ((key, hex) :: acc)
              | _ -> loop acc)
        in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> loop []))

(* Checks a digest against the one recorded for [key], counting it in
   [report].  The digest got is always printed, as "digest KEY HEX", so
   that [expected_file] can be refreshed from a normal run's output when
   an output change is intended.  [required] digests (the per-run
   canaries) fail when unrecorded.  Population digests are recorded for
   the default seed only; an unrecorded one cannot fail, so it is
   printed but not counted. *)
let check_digest report ~required key hex =
  Printf.printf "digest %s %s\n" key hex;
  match List.assoc_opt key (Lazy.force recorded) with
  | Some h ->
      let ok = String.equal h hex in
      if not ok then Printf.printf "digest mismatch %s: recorded %s\n" key h;
      Report.check report ok
  | None when required ->
      Printf.printf "digest missing %s\n" key;
      Report.check report false
  | None -> ()

(* ---- the mppmd daemon -------------------------------------------------- *)

type daemon = { pid : int; sock : string; out : in_channel }

let live_daemons : daemon list ref = ref []

let reap d =
  (try close_in d.out with Sys_error _ -> ());
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons

(* Starts `mppmd --jobs 2` on [cache] and blocks until it prints its
   listening line: the daemon's set-up time as a user sees it. *)
let start_daemon ~mppmd ~cache =
  let sock =
    Printf.sprintf ".bench_build/pb-%d-%d.sock" (Unix.getpid ())
      (List.length !live_daemons)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [| mppmd; "--jobs"; "2"; "--cache"; cache; "--listen"; "unix:" ^ sock;
       "--warm-configs"; string_of_int llc_config;
       "--seed"; string_of_int context_seed;
       "--length"; string_of_int scale.Scale.trace_instructions |]
  in
  let pid = Unix.create_process mppmd argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let d = { pid; sock; out = Unix.in_channel_of_descr r } in
  live_daemons := d :: !live_daemons;
  let rec wait () =
    match input_line d.out with
    | line ->
        if not (String.starts_with ~prefix:"mppmd: listening" line) then
          wait ()
    | exception End_of_file ->
        reap d;
        ignore (Unix.waitpid [] pid);
        failwith "perfbench: mppmd exited before listening"
  in
  wait ();
  d

let daemon_peak_rss_mb d = Measure.peak_rss_mb ~pid:(string_of_int d.pid) ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  fd

(* Reads one response frame's payload from a blocking socket. *)
let read_frame fd =
  let read_exact n =
    let b = Bytes.create n in
    let off = ref 0 in
    while !off < n do
      let k = Unix.read fd b !off (n - !off) in
      if k = 0 then failwith "perfbench: mppmd closed the connection";
      off := !off + k
    done;
    Bytes.unsafe_to_string b
  in
  match Wire.frame_length (read_exact 4) with
  | Error (_, msg) -> failwith ("perfbench: " ^ msg)
  | Ok len -> read_exact len

(* One request on a fresh connection, answered synchronously. *)
let call d req =
  let fd = connect d in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (Wire.frame (Wire.encode_request req));
      read_frame fd)

let stop_daemon d =
  (match call d Wire.Shutdown with
  | _ -> ()
  | exception (Failure _ | Unix.Unix_error _) -> (
      try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  reap d

let kill_all_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      reap d)
    !live_daemons

(* ---- closed-loop replay ------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  mutable inbox : string;
  mutable query : int;  (* in-flight request index, -1 = idle *)
  mutable sent_at : float;
}

(* [replay d ~connections requests] sends the encoded requests over
   [connections] closed-loop connections: each sends its next request
   the moment its previous response is complete, taking the next one in
   stream order.  Returns every response payload and its latency (send
   to full response, seconds), plus the elapsed time. *)
let replay d ~connections requests =
  let total = Array.length requests in
  let payloads = Array.make total "" in
  let latencies = Array.make total 0.0 in
  let next = ref 0 in
  let clients =
    Array.init (min connections (max total 1)) (fun _ ->
        { fd = connect d; inbox = ""; query = -1; sent_at = 0.0 })
  in
  let send c =
    if !next < total then begin
      let i = !next in
      incr next;
      c.query <- i;
      c.sent_at <- Measure.now ();
      write_all c.fd requests.(i)
    end
    else c.query <- -1
  in
  let rec feed c =
    let data = c.inbox in
    if String.length data >= 4 then
      match Wire.frame_length (String.sub data 0 4) with
      | Error (_, msg) -> failwith ("perfbench: " ^ msg)
      | Ok len ->
          if String.length data >= 4 + len then begin
            let i = c.query in
            latencies.(i) <- Measure.now () -. c.sent_at;
            payloads.(i) <- String.sub data 4 len;
            c.inbox <- String.sub data (4 + len) (String.length data - 4 - len);
            send c;
            feed c
          end
  in
  let buf = Bytes.create 65536 in
  let t0 = Measure.now () in
  Array.iter send clients;
  while Array.exists (fun c -> c.query >= 0) clients do
    let watched =
      Array.fold_left
        (fun acc c -> if c.query >= 0 then c.fd :: acc else acc)
        [] clients
    in
    match Unix.select watched [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        Array.iter
          (fun c ->
            if c.query >= 0 && List.mem c.fd readable then begin
              let n = Unix.read c.fd buf 0 (Bytes.length buf) in
              if n = 0 then failwith "perfbench: mppmd closed a connection";
              c.inbox <- c.inbox ^ Bytes.sub_string buf 0 n;
              feed c
            end)
          clients
  done;
  let elapsed = Measure.now () -. t0 in
  Array.iter (fun c -> Unix.close c.fd) clients;
  (payloads, latencies, elapsed)
