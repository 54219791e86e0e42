type t = {
  engine : Sim.Engine.t;
  target_delay : Sim.Time.t;
  deliver : bytes -> unit;
  mutable delivered : int;
  mutable late : int;
}

let create engine ~target_delay ~deliver =
  if target_delay < 0 then invalid_arg "Playout.create";
  { engine; target_delay; deliver; delivered = 0; late = 0 }

let playout_instant t ~timestamp_ms = (timestamp_ms * 1_000_000) + t.target_delay

let headroom t ~timestamp_ms =
  playout_instant t ~timestamp_ms - Sim.Engine.now t.engine

let offer t ~timestamp_ms ~data =
  let at = playout_instant t ~timestamp_ms in
  if at < Sim.Engine.now t.engine then begin
    t.late <- t.late + 1;
    `Late
  end
  else begin
    Sim.Engine.schedule_at t.engine ~time:at (fun () ->
        t.delivered <- t.delivered + 1;
        t.deliver data);
    `Scheduled
  end

let delivered t = t.delivered
let late t = t.late
