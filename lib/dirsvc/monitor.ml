module G = Topo.Graph
module W = Netsim.World

type t = {
  world : W.t;
  directory : Directory.t;
  interval : Sim.Time.t;
  mutable window_start : Sim.Time.t;
  busy_at_start : (int, Sim.Time.t) Hashtbl.t;  (* link_id -> busy time *)
  mutable reports : int;
  mutable started : bool;
}

let create ?(interval = Sim.Time.ms 500) world directory =
  {
    world;
    directory;
    interval;
    window_start = W.now world;
    busy_at_start = Hashtbl.create 32;
    reports = 0;
    started = false;
  }

(* A link's instantaneous load is taken from its busier direction over the
   last window. *)
let busy_of t (l : G.link) =
  let side node port = (W.port_stats t.world ~node ~port).W.busy_time in
  max (side l.G.a l.G.a_port) (side l.G.b l.G.b_port)

let sample_once t =
  let now = W.now t.world in
  let span = now - t.window_start in
  List.iter
    (fun (l : G.link) ->
      let busy = busy_of t l in
      let before = Option.value ~default:0 (Hashtbl.find_opt t.busy_at_start l.G.link_id) in
      let utilization =
        if span <= 0 then 0.0
        else Float.min 1.0 (float_of_int (busy - before) /. float_of_int span)
      in
      Hashtbl.replace t.busy_at_start l.G.link_id busy;
      Directory.report_load t.directory ~link_id:l.G.link_id ~utilization;
      t.reports <- t.reports + 1)
    (G.links (W.graph t.world));
  t.window_start <- now

let start t ~until =
  if not t.started then begin
    t.started <- true;
    let rec tick () =
      sample_once t;
      if W.now t.world + t.interval <= until then
        Sim.Engine.schedule (W.engine t.world) ~delay:t.interval tick
    in
    Sim.Engine.schedule (W.engine t.world) ~delay:t.interval tick
  end

let reports_made t = t.reports
