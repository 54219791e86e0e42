(* fanin_viper and fanin_xsr: 16 feeder hosts -> 3 routers in series ->
   1 sink, 64 B packets over 10^15 b/s links.

   The wire is so fast that transmission rounds to a nanosecond, so the
   run's cost is the per-packet software cost: the VIPER strip + trailer
   append paid at each of the three routers (or XSR's in-place step), the
   world's transmit and deliver, and the engine. Every stage has one
   link per feeder lane, so the 16 packets of a tick leave each router
   on 16 ports and reach the next node at the same instant. Both formats
   run the same topology, schedule and seed: a codec change moves
   fanin_viper and leaves fanin_xsr flat, an engine or world change moves
   both.

   The schedule is a pure function of the seed: all feeders fire on each
   tick, and the gap to the next tick is uniform in 1.5-1.9 us. One
   generator event re-arms itself per tick, so the event queue holds only
   what the simulation itself has pending. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module Pkt = Viper.Packet
module Host = Sirpent.Host
module Router = Sirpent.Router

let feeders = 16
let stages = 3
let data_bytes = 64
let link = Ops.link

(* 200k packets per pass *)
let full_ticks = 12_500

type net = {
  graph : G.t;
  engine : Sim.Engine.t;
  world : W.t;
  routers : Router.t array;
  feeds : Host.t array;
  sink : Host.t;
  routes : Sirpent.Route.t array;
}

let build () =
  let g = G.create () in
  let feed_nodes = Array.init feeders (fun _ -> G.add_node g G.Host) in
  let router_nodes = Array.init stages (fun _ -> G.add_node g G.Router) in
  let sink_node = G.add_node g G.Host in
  let first_ports =
    Array.map (fun f -> fst (G.connect g f router_nodes.(0) link)) feed_nodes
  in
  let lane_ports =
    Array.init stages (fun s ->
        let next = if s + 1 < stages then router_nodes.(s + 1) else sink_node in
        Array.init feeders (fun _ -> fst (G.connect g router_nodes.(s) next link)))
  in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let routers = Array.map (fun node -> Router.create world ~node ()) router_nodes in
  let feeds = Array.map (fun node -> Host.create world ~node) feed_nodes in
  let sink = Host.create world ~node:sink_node in
  let routes =
    Array.init feeders (fun i ->
        {
          Sirpent.Route.first_port = first_ports.(i);
          segments =
            List.init stages (fun s -> Seg.make ~port:lane_ports.(s).(i) ())
            @ [ Seg.make ~port:Seg.local_port () ];
        })
  in
  { graph = g; engine; world; routers; feeds; sink; routes }

(* Does the return route the sink reads from [packet]'s trailer lead from
   the sink back to [feeder]? Walks the topology hop by hop. *)
let replays net packet ~in_port ~feeder =
  match Pkt.return_route_r packet with
  | Error _ -> false
  | Ok back ->
    (* leave [node] by [port]; the next segment names the port to leave
       the node reached by, and the last one leads to the feeder *)
    let rec walk node port segs =
      match (G.link_via net.graph node port, segs) with
      | None, _ -> false
      | Some l, [] -> fst (G.peer l node) = Host.node net.feeds.(feeder)
      | Some l, seg :: rest -> walk (fst (G.peer l node)) seg.Seg.port rest
    in
    walk (Host.node net.sink) in_port back

type trace = { router : Probe.span; send : Probe.span; mutable pending_peak : int }

type run = {
  delivered : int;
  injected : int;
  wall_ns : int;
  setup_s : float;
  words : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
  events : int;
  frames : int;
  counter_incrs : int;  (** registry counter increments, from typed stats *)
  malformed : int;
  overflow : int;
  ctl_sent : int;
  first_route : Sirpent.Route.t;
  first_router : G.node_id;
}

let port_totals net f =
  let total = ref 0 in
  G.iter_nodes net.graph (fun node ->
      List.iter
        (fun (port, _) -> total := !total + f (W.port_stats net.world ~node ~port))
        (G.ports net.graph node));
  !total

(* One pass: set up, run the whole schedule, check the outputs. *)
let pass ~xsr ~seed ~ticks ?trace () =
  let t_setup = Probe.now_ns () in
  let net = build () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let gaps = Array.init ticks (fun _ -> Sim.Rng.uniform_int rng ~lo:1500 ~hi:1900) in
  (* packets with [seq land 63 = sample] get their trailer replayed *)
  let sample = Sim.Rng.int rng 64 in
  let n = ticks * feeders in
  let sent_at = Array.make n 0 in
  let latency = Array.make n (-1) in
  let data = Array.init feeders (fun _ -> Bytes.make data_bytes 'x') in
  let delivered = ref 0 in
  (* the world counts, and survives, exceptions raised by a receive
     callback: failed checks are recorded here and raised after the run *)
  let broken = ref None in
  let note_broken fmt = Printf.ksprintf (fun m -> if !broken = None then broken := Some m) fmt in
  Host.set_receive net.sink (fun _ ~packet ~in_port ->
      let seq = Int32.to_int (Bytes.get_int32_le packet.Pkt.data 0) in
      if seq < 0 || seq >= n then note_broken "sink received unknown packet %d" seq
      else if latency.(seq) >= 0 then note_broken "packet %d delivered twice" seq
      else begin
        latency.(seq) <- Probe.now_ns () - sent_at.(seq);
        incr delivered;
        if seq land 63 = sample && not (replays net packet ~in_port ~feeder:(seq mod feeders))
        then note_broken "packet %d's trailer does not replay to feeder %d" seq (seq mod feeders)
      end);
  let send i =
    let h = net.feeds.(i) and route = net.routes.(i) and data = data.(i) in
    if xsr then fun () -> ignore (Host.send_xsr h ~route ~data ())
    else fun () -> ignore (Host.send h ~route ~data ())
  in
  let sends = Array.init feeders send in
  let fire =
    match trace with
    | None -> fun i -> sends.(i) ()
    | Some tr ->
      fun i ->
        let t0 = Probe.now_ns () in
        let w0 = Probe.minor () in
        sends.(i) ();
        Probe.close tr.send ~t0 ~w0
  in
  Option.iter (fun tr -> Array.iter (Probe.wrap_router tr.router net.world) net.routers) trace;
  let rec tick k () =
    let base = k * feeders in
    for i = 0 to feeders - 1 do
      let seq = base + i in
      Bytes.set_int32_le data.(i) 0 (Int32.of_int seq);
      sent_at.(seq) <- Probe.now_ns ();
      fire i
    done;
    (match trace with
    | Some tr -> tr.pending_peak <- max tr.pending_peak (Sim.Engine.pending net.engine)
    | None -> ());
    if k + 1 < ticks then ignore (Sim.Engine.schedule net.engine ~delay:gaps.(k) (tick (k + 1)))
  in
  ignore (Sim.Engine.schedule_at net.engine ~time:(Sim.Time.us 10) (tick 0));
  let setup_s = Probe.seconds_since t_setup in
  Gc.full_major ();
  let w0 = Probe.words () in
  let t0 = Probe.now_ns () in
  Sim.Engine.run net.engine;
  let wall_ns = Probe.now_ns () - t0 in
  let words = Probe.words () -. w0 in
  Option.iter (fun m -> Report.fail "%s" m) !broken;
  if !delivered <> n then Report.fail "delivered %d of %d injected packets" !delivered n;
  if W.total_handler_errors net.world <> 0 then
    Report.fail "%d exceptions raised out of frame handlers" (W.total_handler_errors net.world);
  Report.tally ~attempted:n ~failed:(n - !delivered);
  let p50, p90, p99 = Pass.latency_us latency n in
  let routers = Array.map Router.stats net.routers in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 routers in
  let frames = port_totals net (fun s -> s.W.sent_frames) in
  let congestion =
    Array.to_list (Array.map Host.limiter net.feeds)
    @ List.filter_map Router.congestion (Array.to_list net.routers)
  in
  {
    delivered = !delivered;
    injected = n;
    wall_ns;
    setup_s;
    words;
    latency_p50_us = p50;
    latency_p90_us = p90;
    latency_p99_us = p99;
    events = Sim.Engine.executed net.engine;
    frames;
    (* router forwarded + cut_through (or stored_forward) per hop, the
       sink's received, and the world's sent_frames + sent_bytes per
       frame *)
    counter_incrs =
      sum (fun s -> s.Router.forwarded + s.Router.cut_throughs + s.Router.stored_forwards)
      + Host.received net.sink + (2 * frames);
    malformed = sum (fun s -> s.Router.dropped_malformed);
    overflow = port_totals net (fun s -> s.W.dropped_overflow);
    ctl_sent = List.fold_left (fun acc c -> acc + Sirpent.Congestion.ctl_sent c) 0 congestion;
    first_route = net.routes.(0);
    first_router = Router.node net.routers.(0);
  }

let rate r = Stats.ratio (float_of_int r.delivered) (float_of_int r.wall_ns *. 1e-9)

let warmup ~xsr (cfg : Pass.config) =
  ignore (pass ~xsr ~seed:cfg.Pass.seed ~ticks:(Pass.warmup_size full_ticks) ())

let timed ~xsr (cfg : Pass.config) =
  let r = pass ~xsr ~seed:cfg.Pass.seed ~ticks:(Pass.scaled cfg ~full:full_ticks ~smoke:200) () in
  {
    Pass.rate = rate r;
    serial_rate = rate r;
    words_per_op = r.words /. float_of_int r.delivered;
    p50_us = r.latency_p50_us;
    p90_us = r.latency_p90_us;
    p99_us = r.latency_p99_us;
    samples = r.delivered;
    setups = [ r.setup_s ];
  }

(* Untraced and traced passes, alternated, and the isolated ops on this
   workload's own hop-1 packet and measured queue depth. Spans accumulate
   over the traced passes; every pass simulates the same packets. *)
let layers ~xsr (cfg : Pass.config) =
  let ticks = Pass.scaled cfg ~full:full_ticks ~smoke:200 in
  let seed = cfg.Pass.seed in
  let cost = Probe.calibrate () in
  let tr = { router = Probe.span (); send = Probe.span (); pending_peak = 0 } in
  let runs =
    Pass.alternate cfg (fun () -> pass ~xsr ~seed ~ticks ()) (fun () ->
        pass ~xsr ~seed ~ticks ~trace:tr ())
  in
  let plain = fst (List.hd runs) and traced = List.map snd runs in
  let total f = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 traced in
  let per_pkt x = Stats.ratio x (total (fun r -> r.delivered)) in
  let residual_ns, residual_words =
    Probe.residual cost ~wall_ns:(total (fun r -> r.wall_ns))
      ~run_words:(List.fold_left (fun acc r -> acc +. r.words) 0.0 traced)
      [ tr.router; tr.send ]
  in
  let median_rate side = Stats.median (List.map (fun run -> rate (side run)) runs) in
  let ops =
    Ops.measure ~smoke:cfg.Pass.smoke
      {
        Ops.route = plain.first_route;
        first_router = plain.first_router;
        data_len = data_bytes;
        depth = tr.pending_peak;
      }
  in
  let events_per_pkt = per_pkt (total (fun r -> r.events)) in
  let frames_per_pkt = per_pkt (total (fun r -> r.frames)) in
  (* Σ (isolated op cost x times the op runs per packet), against the
     untraced cost of a packet *)
  let explained =
    let c = Ops.cost ops in
    let codec =
      if xsr then c "viper.xsr.encode" +. (float_of_int (stages + 1) *. c "viper.xsr.step")
      else
        c "viper.packet.build"
        +. (float_of_int stages *. c "viper.packet.forward")
        +. c "viper.packet.parse"
    in
    let wire_events = frames_per_pkt *. float_of_int ops.Ops.send_deliver_events in
    codec
    +. (frames_per_pkt *. c "netsim.world.send_deliver")
    +. (Float.max 0.0 (events_per_pkt -. wire_events) *. c "sim.engine.event")
    +. (per_pkt (total (fun r -> r.counter_incrs)) *. c "telemetry.counter.incr")
  in
  [
    ("sirpent.router.handle_ns_per_frame", Probe.ns_per_call cost tr.router);
    ("sirpent.router.handle_words_per_frame", Probe.words_per_call cost tr.router);
    ("sirpent.host.send_ns_per_pkt", Probe.ns_per_call cost tr.send);
    ("sirpent.host.send_words_per_pkt", Probe.words_per_call cost tr.send);
    ("sim.engine.residual_ns_per_pkt", per_pkt residual_ns);
    ("sim.engine.residual_words_per_pkt", per_pkt residual_words);
    ("sim.engine.events_per_pkt", events_per_pkt);
    ("sim.engine.pending_peak", float_of_int tr.pending_peak);
    ("netsim.world.frames_per_pkt", frames_per_pkt);
    ("trace.overhead_ratio", Stats.ratio (median_rate snd) (median_rate fst));
    ("ledger.coverage_ratio", explained *. median_rate fst *. 1e-9);
    ("ledger.loss_ratio",
      Stats.ratio (float_of_int (plain.injected - plain.delivered)) (float_of_int plain.injected));
    ("sirpent.router.malformed_drops", float_of_int plain.malformed);
    ("netsim.world.overflow_drops", float_of_int plain.overflow);
    ("sirpent.congestion.ctl_sent", float_of_int plain.ctl_sent);
  ]
  @ Ops.metrics ops
