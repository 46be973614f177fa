(* The service's pure request/response core.

   Carved out of the one-shot CLI so that bin/mppm and bin/mppmd share
   one implementation of mix parsing, output rendering and the
   predict/compare/rank/stats handlers.  Responses are rendered with
   Format.asprintf over the same printers the CLI hands its formatter,
   which is what makes daemon output byte-identical to CLI output. *)

module Suite = Mppm_trace.Suite
module Model = Mppm_core.Model
module Mix = Mppm_workload.Mix
module Sampler = Mppm_workload.Sampler
module Context = Mppm_experiments.Context
module Registry = Mppm_obs.Registry

(* ---- mix parsing ----------------------------------------------------- *)

let known_name n = Array.exists (String.equal n) Suite.names

let mix_of_names names =
  match names with
  | [] ->
      Result.Error
        ( Wire.Bad_request,
          "Mppm_serve.Dispatch: empty mix (give at least one benchmark \
           name)" )
  | _ -> (
      match List.find_opt (fun n -> not (known_name n)) names with
      | Some bad ->
          Result.Error
            ( Wire.Unknown_benchmark,
              Printf.sprintf
                "Mppm_serve.Dispatch: unknown benchmark %S (run 'mppm \
                 suite' for the 29 names)"
                bad )
      | None -> Result.Ok (Mix.of_names (Array.of_list names)))

(* Plain names form one mix; comma syntax makes each argument a mix of
   its own ("a,b,c,d e,f,g,h" is two quad-core mixes). *)
let parse_mixes names =
  if names = [] then
    Result.Error
      ( Wire.Bad_request,
        "Mppm_serve.Dispatch: empty request (give benchmark names)" )
  else if List.exists (fun s -> String.contains s ',') names then
    List.fold_left
      (fun acc arg ->
        match acc with
        | Result.Error _ as e -> e
        | Result.Ok mixes -> (
            let parts =
              List.filter
                (fun x -> x <> "")
                (String.split_on_char ',' arg)
            in
            match mix_of_names parts with
            | Result.Ok mix -> Result.Ok (mix :: mixes)
            | Result.Error _ as e -> e))
      (Result.Ok []) names
    |> Result.map List.rev
  else Result.map (fun m -> [ m ]) (mix_of_names names)

(* ---- renderers ------------------------------------------------------- *)

let pp_predicted ppf (result : Model.result) =
  Format.fprintf ppf "MPPM prediction (%d iterations):@."
    result.Model.iterations;
  Array.iter
    (fun p ->
      Format.fprintf ppf "  %-12s slowdown %5.3f  CPI %6.3f -> %6.3f@."
        p.Model.name p.Model.slowdown p.Model.cpi_single p.Model.cpi_multi)
    result.Model.programs;
  Format.fprintf ppf "  STP %.3f   ANTT %.3f@." result.Model.stp
    result.Model.antt

let pp_measured ppf (m : Context.measured) =
  Format.fprintf ppf "detailed simulation:@.";
  Array.iteri
    (fun i p ->
      Format.fprintf ppf "  %-12s slowdown %5.3f  CPI %6.3f -> %6.3f@."
        p.Mppm_multicore.Multi_core.name m.Context.m_slowdowns.(i)
        m.Context.m_cpi_single.(i) m.Context.m_cpi_multi.(i))
    m.Context.m_detail.Mppm_multicore.Multi_core.programs;
  Format.fprintf ppf "  STP %.3f   ANTT %.3f@." m.Context.m_stp
    m.Context.m_antt

let pp_comparison ppf ((predicted : Model.result), (measured : Context.measured))
    =
  pp_predicted ppf predicted;
  pp_measured ppf measured;
  let err p m = 100.0 *. abs_float (p -. m) /. m in
  Format.fprintf ppf "errors: STP %.1f%%  ANTT %.1f%%@."
    (err predicted.Model.stp measured.Context.m_stp)
    (err predicted.Model.antt measured.Context.m_antt)

let pp_batch pp ~mixes ppf results =
  let many = Array.length results > 1 in
  Array.iteri
    (fun i result ->
      if many then
        Format.fprintf ppf "%s== mix %s ==@."
          (if i > 0 then "\n" else "")
          (Mix.to_string (List.nth mixes i));
      pp ppf result)
    results

(* ---- ranking --------------------------------------------------------- *)

let rank ctx ~cores ~count =
  let rng = Context.rng ctx "cli-rank" in
  let mixes = Sampler.random_mixes rng ~cores ~count in
  let means =
    Array.map
      (fun cfg ->
        let stps =
          Array.map
            (fun mix ->
              (Context.predict ctx ~llc_config:cfg mix).Model.stp)
            mixes
        in
        (cfg, Mppm_util.Stats.mean stps))
      (Array.init Mppm_cache.Configs.llc_config_count (fun i -> i + 1))
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) means;
  means

let pp_ranking ~cores ~count ppf ranking =
  Format.fprintf ppf
    "ranking LLC configs by mean MPPM-predicted STP over %d %d-core mixes@."
    count cores;
  Array.iteri
    (fun rank (cfg, stp) ->
      Format.fprintf ppf "  %d. config #%d  mean STP %.3f@." (rank + 1) cfg
        stp)
    ranking

(* ---- handlers -------------------------------------------------------- *)

let render f = Format.asprintf "%t" f

let max_rank_cores = 64
let max_rank_count = 1_000_000

(* A handler bug (or a malformed-but-decodable query tripping a deep
   Invalid_argument) must come back as a structured Internal error, not
   tear the connection down. *)
let guarded f =
  match f () with
  | resp -> resp
  | exception (Failure msg | Invalid_argument msg) ->
      Wire.Error
        { code = Wire.Internal; message = "Mppm_serve.Dispatch: " ^ msg }

let check_llc_config llc_config k =
  let n = Mppm_cache.Configs.llc_config_count in
  if llc_config < 1 || llc_config > n then
    Wire.Error
      {
        code = Wire.Bad_request;
        message =
          Printf.sprintf
            "Mppm_serve.Dispatch: LLC config %d out of range 1..%d (Table 2)"
            llc_config n;
      }
  else k ()

let handle ctx req =
  Registry.incr "serve.requests";
  let counted kind resp =
    (match resp with
    | Wire.Error _ -> Registry.incr "serve.errors"
    | Wire.Output _ | Wire.Counters _ -> Registry.incr ("serve." ^ kind));
    resp
  in
  match req with
  | Wire.Predict { names; llc_config } ->
      counted "predict" @@ check_llc_config llc_config
      @@ fun () ->
      (match parse_mixes names with
      | Result.Error (code, message) -> Wire.Error { code; message }
      | Result.Ok mixes ->
          guarded @@ fun () ->
          let results =
            Array.map
              (fun mix -> Context.predict ctx ~llc_config mix)
              (Array.of_list mixes)
          in
          Wire.Output
            (render (fun ppf -> pp_batch pp_predicted ~mixes ppf results)))
  | Wire.Compare { names; llc_config } ->
      counted "compare" @@ check_llc_config llc_config
      @@ fun () ->
      (match parse_mixes names with
      | Result.Error (code, message) -> Wire.Error { code; message }
      | Result.Ok mixes ->
          guarded @@ fun () ->
          let results =
            Array.map
              (fun mix ->
                let predicted = Context.predict ctx ~llc_config mix in
                let measured = Context.detailed ctx ~llc_config mix in
                (predicted, measured))
              (Array.of_list mixes)
          in
          Wire.Output
            (render (fun ppf -> pp_batch pp_comparison ~mixes ppf results)))
  | Wire.Rank { cores; count } ->
      counted "rank"
      @@
      if cores < 1 || cores > max_rank_cores then
        Wire.Error
          {
            code = Wire.Bad_request;
            message =
              Printf.sprintf
                "Mppm_serve.Dispatch: rank cores %d out of range 1..%d"
                cores max_rank_cores;
          }
      else if count < 1 || count > max_rank_count then
        Wire.Error
          {
            code = Wire.Bad_request;
            message =
              Printf.sprintf
                "Mppm_serve.Dispatch: rank mix count %d out of range 1..%d"
                count max_rank_count;
          }
      else
        guarded @@ fun () ->
        let ranking = rank ctx ~cores ~count in
        Wire.Output
          (render (fun ppf -> pp_ranking ~cores ~count ppf ranking))
  | Wire.Stats ->
      counted "stats"
        (Wire.Counters
           (Registry.snapshot_prefix "serve"
           @ Registry.snapshot_prefix "pool"
           @ Registry.snapshot_prefix "profile_cache"))
  | Wire.Shutdown -> counted "shutdown" (Wire.Output "mppmd: shutting down\n")
