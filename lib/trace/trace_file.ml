type meta = { benchmark : string; accesses : int; instructions : int }

let magic = "mppm-trace v1"

(* Each record: gap (4 bytes), flags (1 byte: bit0 = store), address
   (8 bytes).  Addresses are full byte addresses; gaps are the compute
   instructions since the previous reference. *)
let record_bytes = 13

let write_record oc ~gap ~kind ~addr =
  if gap < 0 || gap > 0x3FFFFFFF then failwith "Trace_file: gap out of range";
  output_binary_int oc gap;
  output_char oc (match kind with Op.Load -> '\000' | Op.Store -> '\001');
  (* 64-bit address, big-endian, via two 32-bit writes. *)
  output_binary_int oc (addr lsr 32);
  output_binary_int oc (addr land 0xFFFFFFFF)

let record ~path ~generator ~accesses () =
  if accesses <= 0 then invalid_arg "Trace_file.record: accesses <= 0";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let name = (Generator.benchmark generator).Benchmark.name in
      Printf.fprintf oc "%s\n%s\n%d\n" magic name accesses;
      let written = ref 0 in
      let gap = ref 0 in
      let start = Generator.retired generator in
      while !written < accesses do
        Generator.next_in_place generator ~cap:max_int;
        let instructions = Generator.op_instructions generator in
        if Generator.op_is_memory generator then begin
          write_record oc
            ~gap:(!gap + instructions - 1)
            ~kind:(Generator.op_kind generator)
            ~addr:(Generator.op_addr generator);
          gap := 0;
          incr written
        end
        else gap := !gap + instructions
      done;
      {
        benchmark = name;
        accesses;
        instructions = Generator.retired generator - start;
      })

let read_header ic path =
  let line () =
    try input_line ic
    with End_of_file -> failwith (path ^ ": truncated trace header")
  in
  if line () <> magic then failwith (path ^ ": not an mppm trace file");
  let benchmark = line () in
  let accesses =
    match int_of_string_opt (line ()) with
    | Some n when n > 0 -> n
    | Some _ | None -> failwith (path ^ ": malformed access count")
  in
  (benchmark, accesses)

let read_meta path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let benchmark, accesses = read_header ic path in
      (* Instructions are recoverable only by streaming; report the record
         payload instead. *)
      let header_end = pos_in ic in
      let payload = in_channel_length ic - header_end in
      if payload <> accesses * record_bytes then
        failwith (path ^ ": truncated or corrupt trace payload");
      { benchmark; accesses; instructions = 0 })

let fold path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let _, accesses = read_header ic path in
      let acc = ref init in
      (try
         for _ = 1 to accesses do
           let gap = input_binary_int ic in
           let kind =
             match input_char ic with
             | '\000' -> Op.Load
             | '\001' -> Op.Store
             | _ -> failwith (path ^ ": corrupt record flags")
           in
           let hi = input_binary_int ic in
           let lo = input_binary_int ic in
           let addr = (hi lsl 32) lor (lo land 0xFFFFFFFF) in
           acc := f !acc ~gap { Op.addr; kind }
         done
       with End_of_file -> failwith (path ^ ": truncated trace payload"));
      !acc)

let replay_sdc path ~geometry =
  let cache = Mppm_cache.Cache.create geometry in
  let profiler =
    Mppm_cache.Sdc_profiler.create
      ~assoc:geometry.Mppm_cache.Geometry.associativity
  in
  fold path ~init:() ~f:(fun () ~gap:_ access ->
      Mppm_cache.Sdc_profiler.record_depth profiler
        (Mppm_cache.Cache.lookup cache access.Op.addr));
  Mppm_cache.Sdc_profiler.lifetime_total profiler

let replay_miss_rate path ~geometry =
  let cache = Mppm_cache.Cache.create geometry in
  fold path ~init:() ~f:(fun () ~gap:_ access ->
      ignore (Mppm_cache.Cache.lookup cache access.Op.addr));
  Mppm_cache.Cache.miss_rate cache
