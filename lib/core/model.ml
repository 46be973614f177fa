module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Invariant = Mppm_util.Invariant
module Trace = Mppm_obs.Trace
module Event = Mppm_obs.Event

type update_rule = Paper_literal | Consistent

type bandwidth = { transfer_cycles : float; exposed_fraction : float }

type params = {
  iteration_instructions : int;
  smoothing : float;
  stop_trace_multiplier : float;
  contention : Contention.model;
  update_rule : update_rule;
  bandwidth : bandwidth option;
}

let default_params ~trace_instructions =
  if trace_instructions <= 0 then
    invalid_arg "Model.default_params: trace_instructions <= 0";
  {
    iteration_instructions = max 1 (trace_instructions / 5);
    smoothing = 0.5;
    stop_trace_multiplier = 5.0;
    contention = Contention.default;
    update_rule = Consistent;
    bandwidth = None;
  }

type program_input = { label : string; profile : Profile.t }

type program_output = {
  name : string;
  slowdown : float;
  cpi_single : float;
  cpi_multi : float;
  instructions_modelled : float;
}

type result = {
  programs : program_output array;
  stp : float;
  antt : float;
  iterations : int;
}

type iteration_record = {
  epoch_cycles : float;
  progress : float array;
  extra_misses : float array;
  slowdown_estimate : float array;
}

let validate params inputs =
  if params.iteration_instructions <= 0 then
    invalid_arg "Model.predict: iteration_instructions <= 0";
  if not (params.smoothing >= 0.0 && params.smoothing < 1.0) then
    invalid_arg "Model.predict: smoothing must be in [0, 1)";
  if params.stop_trace_multiplier <= 0.0 then
    invalid_arg "Model.predict: stop_trace_multiplier <= 0";
  (match params.bandwidth with
  | Some b when b.transfer_cycles <= 0.0 || b.exposed_fraction < 0.0 ->
      invalid_arg "Model.predict: malformed bandwidth parameters"
  | Some _ | None -> ());
  if Array.length inputs = 0 then invalid_arg "Model.predict: no programs";
  let assoc = inputs.(0).profile.Profile.llc_assoc in
  Array.iter
    (fun i ->
      if i.profile.Profile.llc_assoc <> assoc then
        invalid_arg "Model.predict: profiles at different LLC associativities")
    inputs;
  assoc

(* Whether every program [0 .. i] has reached its stop point. *)
(* mppm: unit _ *)
let rec all_stopped (ip : float array) (stop_at : float array) i =
  i < 0 || (ip.(i) >= stop_at.(i) && all_stopped ip stop_at (i - 1))

(* The first program with the largest projected time over its next L
   instructions, CPI_SC,p(window) * R_p * L, scanning [i .. n-1]; the
   largest so far is in [budget.(0)] (the epoch budget C once the scan
   ends).  The same value as a [Float.max] fold from 0, and it also
   names the program that set it. *)
(* mppm: unit _ *)
let rec slowest_program cpi_l r l budget i best =
  if i >= Array.length r then best
  else if cpi_l.(i) *. r.(i) *. l.(i) > budget.(0) then begin
    budget.(0) <- cpi_l.(i) *. r.(i) *. l.(i);
    slowest_program cpi_l r l budget (i + 1) i
  end
  else slowest_program cpi_l r l budget (i + 1) best

(* Bandwidth extension, step 4b: the M/D/1 wait at channel utilization
   [rho] (capped at 0.98). *)
let queue_wait b rho =
  let rho = Float.min rho 0.98 in
  b.transfer_cycles *. rho /. (2.0 *. (1.0 -. rho))

(* Each program's extra queueing cycles in [queue]: the wait at the mix's
   channel utilization, minus the program's own-alone wait, for its
   share of the exposed delay. *)
let fill_queueing b windows (contention : Contention.prediction) epoch_cycles
    queue =
  let shared = contention.Contention.shared_misses in
  (* [queue.(0)] holds the running total until the loop below overwrites
     it, so the sum is boxed nowhere. *)
  queue.(0) <- 0.0;
  for i = 0 to Array.length shared - 1 do
    queue.(0) <- queue.(0) +. shared.(i)
  done;
  let rho_mix = queue.(0) *. b.transfer_cycles /. epoch_cycles.(0) in
  for i = 0 to Array.length shared - 1 do
    let w = windows.(i).Profile.sums in
    let alone_cycles =
      Float.max 1.0
        (w.Profile.s_cycles /. w.Profile.s_instructions
        *. w.Profile.s_instructions)
    in
    let rho_alone = w.Profile.s_llc_misses *. b.transfer_cycles /. alone_cycles in
    let delta =
      Float.max 0.0 (queue_wait b rho_mix -. queue_wait b rho_alone)
    in
    queue.(i) <- b.exposed_fraction *. delta *. shared.(i)
  done

(* mppm: unit result *)
(* mppm: hot — the per-quantum convergence loop *)
let run ?(obs = Trace.null) params inputs ~record =
  let assoc = validate params inputs in
  let n = Array.length inputs in
  let profiles = Array.map (fun input -> input.profile) inputs in
  (* Model state, one cell per program in parallel float arrays that live
     for the whole run: every epoch reads and writes them in place. *)
  let r = Array.make n 1.0 (* slowdown R_p *)
  and ip = Array.make n 0.0 (* instruction pointer I_p *)
  and cpi_l = Array.make n 0.0 (* CPI over the next L instructions *)
  and progress = Array.make n 0.0 (* N_p *)
  and penalty = Array.make n 0.0 (* cycles per LLC miss in the window *)
  and queue = Array.make n 0.0 (* bandwidth queueing cycles *) in
  let stop_at =
    Array.map
      (fun p ->
        params.stop_trace_multiplier
        *. float_of_int (Profile.total_instructions p))
      profiles
  in
  (* L for every program: the count cells of the step-1 windows. *)
  let l = Array.make n (float_of_int params.iteration_instructions) in
  let windows = Array.map (fun _ -> Profile.scratch ~assoc) inputs in
  let sdcs = Array.map (fun w -> w.Profile.window_sdc) windows in
  let contention = Contention.prediction n in
  (* The epoch budget C, in a cell: a float-array cell is unboxed. *)
  let budget = [| 0.0 |] in
  let history = ref [] in
  let iterations = ref 0 in
  (* Virtual clock for trace timestamps: cumulative epoch cycles.  Only
     read by the observability layer; never feeds back into the model.  A
     one-cell float array rather than a ref: the cells of a float array
     are unboxed, so the per-epoch advance stores no fresh box. *)
  let clock = [| 0.0 |] in
  let observing = Trace.enabled obs in
  (* Per-epoch scratch only the trace needs; left empty when no sink is
     attached so the untraced hot loop allocates nothing extra. *)
  let obs_miss_cycles = if observing then Array.make n 0.0 else [||] in
  let obs_r_before = if observing then Array.make n 0.0 else [||] in
  Trace.emit obs (fun () ->
      Event.make ~name:"model.start" ~time:0.0
        [
          ("programs",
           Event.List
             (Array.to_list
                (Array.map (fun input -> Event.String input.label) inputs)));
          ("iteration_instructions", Event.Int params.iteration_instructions);
          ("smoothing", Event.Float params.smoothing);
          ("stop_trace_multiplier", Event.Float params.stop_trace_multiplier);
          ("contention", Event.String (Contention.model_name params.contention));
        ]);
  while not (all_stopped ip stop_at (n - 1)) do
    incr iterations;
    (* Step 1: find the epoch budget C set by the slowest program; only
       the window CPI is needed, so only cycles and instructions are
       summed. *)
    for i = 0 to n - 1 do
      Profile.window_cycles_into profiles.(i) windows.(i) ~starts:ip ~counts:l i;
      let w = windows.(i).Profile.sums in
      cpi_l.(i) <- w.Profile.s_cycles /. w.Profile.s_instructions
    done;
    budget.(0) <- 0.0;
    let slowest = slowest_program cpi_l r l budget 0 0 in
    (* Step 2: per-program progress within C cycles. *)
    for i = 0 to n - 1 do
      progress.(i) <- budget.(0) /. (cpi_l.(i) *. r.(i))
    done;
    (* Step 3: window statistics over each program's actual progress, and
       the window's average LLC miss penalty: cycles lost to LLC misses
       per miss, or the whole-trace average when the window has no
       misses (the division in Fig. 2 needs a denominator). *)
    for i = 0 to n - 1 do
      Profile.window_into profiles.(i) windows.(i) ~starts:ip ~counts:progress i;
      let w = windows.(i).Profile.sums in
      penalty.(i) <-
        (if w.Profile.s_llc_misses > 0.0 then
           w.Profile.s_memory_stall_cycles /. w.Profile.s_llc_misses
         else profiles.(i).Profile.whole_miss_penalty)
    done;
    (* Step 4: contention model on the epoch SDCs. *)
    Contention.predict_into params.contention sdcs contention;
    (* Step 4b (extension): bandwidth queueing. *)
    (match params.bandwidth with
    | None -> ()
    | Some b -> fill_queueing b windows contention budget queue);
    (* Step 5: price the conflict misses and update the slowdowns. *)
    if observing then Array.blit r 0 obs_r_before 0 n;
    for i = 0 to n - 1 do
      let miss_cycles =
        (contention.Contention.extra_misses.(i) *. penalty.(i)) +. queue.(i)
      in
      if observing then obs_miss_cycles.(i) <- miss_cycles;
      let current =
        match params.update_rule with
        | Paper_literal -> 1.0 +. (miss_cycles /. budget.(0))
        | Consistent -> 1.0 +. (miss_cycles *. r.(i) /. budget.(0))
      in
      let previous = r.(i) in
      r.(i) <-
        (params.smoothing *. r.(i)) +. ((1.0 -. params.smoothing) *. current);
      if Invariant.enabled () then begin
        let label = inputs.(i).label and r_i = r.(i) in
        Invariant.checkf "model.slowdown_ge_1" (r_i >= 1.0) (fun () ->
            Printf.sprintf "%s: R_p = %g < 1" label r_i);
        Invariant.check "model.slowdown_finite" (Float.is_finite r_i);
        (* The EMA is a convex combination of the previous estimate and
           the current target, so it must stay between them. *)
        let lo = Float.min previous current
        and hi = Float.max previous current in
        let eps = 1e-12 *. Float.max 1.0 hi in
        Invariant.checkf "model.ema_bounded"
          (r_i >= lo -. eps && r_i <= hi +. eps)
          (fun () ->
            Printf.sprintf "%s: R_p = %g outside [%g, %g]" label r_i lo hi)
      end;
      ip.(i) <- ip.(i) +. progress.(i)
    done;
    let epoch_cycles = budget.(0) in
    if Invariant.enabled () then
      Invariant.check "model.epoch_positive"
        (Float.is_finite epoch_cycles && epoch_cycles > 0.0);
    if observing then begin
      let floats a = Event.List (Array.to_list (Array.map (fun x -> Event.Float x) a)) in
      let iter = !iterations in
      let time = clock.(0) in
      Trace.emit obs (fun () ->
          Event.make ~name:"model.quantum" ~time ~dur:epoch_cycles
            [
              ("iter", Event.Int iter);
              ("slowest", Event.Int slowest);
              ("budget_cycles", Event.Float epoch_cycles);
              ("progress", floats progress);
              ("sdc_mass",
               floats (Array.map Mppm_cache.Sdc.accesses sdcs));
              ("extra_misses",
               floats contention.Contention.extra_misses);
              ("miss_penalty", floats penalty);
              ("penalty_cycles", floats obs_miss_cycles);
              ("r_before", floats obs_r_before);
              ("r_after", floats r);
            ]);
      let max_delta = ref 0.0 and r_sum = ref 0.0 in
      Array.iteri
        (fun i r_i ->
          let d = Float.abs (r_i -. obs_r_before.(i)) in
          if d > !max_delta then max_delta := d;
          r_sum := !r_sum +. r_i)
        r;
      let max_delta = !max_delta and mean_r = !r_sum /. float_of_int n in
      Trace.emit obs (fun () ->
          Event.make ~name:"model.convergence" ~time:(time +. epoch_cycles)
            [
              ("iter", Event.Int iter);
              ("max_delta_r", Event.Float max_delta);
              ("mean_r", Event.Float mean_r);
            ])
    end;
    clock.(0) <- clock.(0) +. epoch_cycles;
    (* mppm: cold — history recording is opt-in: predict runs with ~record:false *)
    if record then
      history :=
        {
          epoch_cycles;
          progress = Array.copy progress;
          extra_misses = Array.copy contention.Contention.extra_misses;
          slowdown_estimate = Array.copy r;
        }
        :: !history
  done;
  let programs =
    Array.mapi
      (fun i input ->
        let cpi_single = Profile.cpi input.profile in
        {
          name = input.label;
          slowdown = r.(i);
          cpi_single;
          cpi_multi = cpi_single *. r.(i);
          instructions_modelled = ip.(i);
        })
      inputs
  in
  let slowdowns = Array.map (fun p -> p.slowdown) programs in
  let result =
    {
      programs;
      stp = Metrics.stp_of_slowdowns slowdowns;
      antt = Metrics.antt_of_slowdowns slowdowns;
      iterations = !iterations;
    }
  in
  Trace.emit obs (fun () ->
      Event.make ~name:"model.result" ~time:clock.(0)
        [
          ("iterations", Event.Int result.iterations);
          ("stp", Event.Float result.stp);
          ("antt", Event.Float result.antt);
          ("slowdowns",
           Event.List
             (Array.to_list (Array.map (fun s -> Event.Float s) slowdowns)));
        ]);
  (result, List.rev !history)

let predict ?obs params inputs = fst (run ?obs params inputs ~record:false)

let predict_profiles ?obs params profiles =
  predict ?obs params
    (Array.map
       (fun profile -> { label = profile.Profile.benchmark; profile })
       profiles)

let predict_with_history ?obs params inputs = run ?obs params inputs ~record:true
