type t = {
  transfer_cycles : float;
  mutable free_at : float;
  mutable transfers : int;
  mutable total_queueing : float;
  mutable busy_cycles : float;
}

let create ~transfer_cycles =
  if not (Float.is_finite transfer_cycles && transfer_cycles > 0.0) then
    invalid_arg "Memory_channel.create: transfer_cycles must be finite and > 0";
  {
    transfer_cycles;
    free_at = 0.0;
    transfers = 0;
    total_queueing = 0.0;
    busy_cycles = 0.0;
  }

let request t ~now =
  let start = Float.max now t.free_at in
  let delay = start -. now in
  t.free_at <- start +. t.transfer_cycles;
  t.transfers <- t.transfers + 1;
  t.total_queueing <- t.total_queueing +. delay;
  t.busy_cycles <- t.busy_cycles +. t.transfer_cycles;
  delay

let transfers t = t.transfers
let total_queueing t = t.total_queueing

let utilization t ~now =
  if now <= 0.0 then 0.0 else Float.min 1.0 (t.busy_cycles /. now)

let reset t =
  t.free_at <- 0.0;
  t.transfers <- 0;
  t.total_queueing <- 0.0;
  t.busy_cycles <- 0.0
