(* E24 — wire-speed packet path: VIPER source routes vs XOR-folded
   constant-size (XSR) headers.

   A saturation star — K feeder hosts fanning into one router, one sink
   host behind it, links fast enough (10^15 b/s) that the simulation
   engine itself is the bottleneck — is driven with synchronized ticks:
   every feeder fires at the same instant, so each tick lands K
   same-instant deliveries on the router. One arm per header format
   reports pps and GC words per delivered packet.

   A second section measures bytes-on-wire over a 4-router chain: VIPER
   route segments shrink as the route is consumed but the return-route
   trailer grows faster (+3 B net per hop), while XSR stays at a
   constant 22-byte header — XSR must total fewer bytes on the wire.

   JSON (for CI gates): [gc_words_per_packet_<arm>] is each arm's words
   allocated per delivered packet (ceiling-gated: it is
   deterministic). *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

(* so fast that transmission ceils to 1 ns: the engine, not the
   physics, is the bottleneck *)
let fast_props =
  { G.bandwidth_bps = 1_000_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 }

let feeders = 16
let payload_bytes = 64

type arm = {
  a_name : string;
  a_xsr : bool;
  a_delivered : int;
  a_wall_s : float;
  a_gc_words : float;
      (** words allocated during the run: minor + major - promoted, since
          a promoted word is counted once in each of the first two *)
  a_wire_bytes : int;
  a_conservation : int;  (** {!W.conservation} once the engine ran dry *)
}

let wire_bytes g world =
  let total = ref 0 in
  G.iter_nodes g (fun node ->
      List.iter
        (fun (port, _) ->
          total := !total + (W.port_stats world ~node ~port).W.sent_bytes)
        (G.ports g node));
  !total

let measure_once ~xsr ~ticks =
  let g = G.create () in
  let router = G.add_node g G.Router in
  let sink = G.add_node g G.Host in
  let feeds = Array.init feeders (fun _ -> G.add_node g G.Host) in
  let feed_ports =
    Array.map (fun f -> fst (G.connect g f router fast_props)) feeds
  in
  (* K parallel router->sink links: the K forwards of one tick transmit
     concurrently and land on the sink at the same instant *)
  let out_ports =
    Array.init feeders (fun _ -> fst (G.connect g router sink fast_props))
  in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:router ());
  let sink_host = Sirpent.Host.create world ~node:sink in
  let delivered = ref 0 in
  Sirpent.Host.set_receive sink_host (fun _ ~packet:_ ~in_port:_ -> incr delivered);
  let module Seg = Viper.Segment in
  let send_of i f =
    let h = Sirpent.Host.create world ~node:f in
    let route =
      {
        Sirpent.Route.first_port = feed_ports.(i);
        segments =
          [
            Seg.make ~port:out_ports.(i) ();
            Seg.make ~port:Seg.local_port ();
          ];
      }
    in
    let data = Bytes.make payload_bytes 'x' in
    if xsr then fun () -> ignore (Sirpent.Host.send_xsr h ~route ~data ())
    else fun () -> ignore (Sirpent.Host.send h ~route ~data ())
  in
  let sends = Array.mapi send_of feeds in
  (* Every tick of the run is pre-scheduled: the engine starts with a
     standing backlog of [ticks] events, which is the saturation regime
     this bench exists to measure — every per-frame heap operation pays
     the full depth of the backlog. One injection event per tick fires
     all K feeders at the same instant in both arms, so the harness cost
     is identical and only the per-packet work differs. The tick spacing
     is not commensurate with the 1 us propagation, so injection events
     never share an instant with in-flight deliveries. *)
  let tick_gap = Sim.Time.ns 1700 in
  for k = 0 to ticks - 1 do
    let time = Sim.Time.ms 1 + (k * tick_gap) in
    Sim.Engine.schedule_at engine ~time (fun () ->
        Array.iter (fun send -> send ()) sends)
  done;
  Gc.full_major ();
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = allocated () in
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run engine;
  let wall = Unix.gettimeofday () -. t0 in
  let w1 = allocated () in
  {
    a_name = (if xsr then "xsr" else "viper");
    a_xsr = xsr;
    a_delivered = !delivered;
    a_wall_s = wall;
    a_gc_words = w1 -. w0;
    a_wire_bytes = wire_bytes g world;
    a_conservation = W.conservation world;
  }

(* One core, shared machine: a single wall-clock sample carries too much
   scheduler noise to read an uplift off. Each arm runs [reps] times
   over freshly built, identical worlds and keeps the fastest sample —
   the simulation is deterministic, so only the timing varies. *)
let measure ~reps ~xsr ~ticks =
  let best = ref (measure_once ~xsr ~ticks) in
  for _ = 2 to reps do
    let a = measure_once ~xsr ~ticks in
    if a.a_wall_s < !best.a_wall_s then best := a
  done;
  !best

(* bytes-on-wire over an n-router chain, one packet format at a time,
   and the chain world's conservation *)
let chain_bytes ~xsr ~n_routers ~packets =
  let g, engine, world, h1, h2, _ = Util.sirpent_chain n_routers in
  let route =
    Util.route_of g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  let data = Bytes.make payload_bytes 'x' in
  let got = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr got);
  for k = 0 to packets - 1 do
    Sim.Engine.schedule_at engine
      ~time:(Sim.Time.ms 1 + (k * Sim.Time.us 500))
      (fun () ->
        if xsr then ignore (Sirpent.Host.send_xsr h1 ~route ~data ())
        else ignore (Sirpent.Host.send h1 ~route ~data ()))
  done;
  Sim.Engine.run engine;
  if !got <> packets then
    failwith
      (Printf.sprintf "e24: chain delivered %d of %d (%s)" !got packets
         (if xsr then "xsr" else "viper"));
  (wire_bytes g world, W.conservation world)

let pps a = if a.a_wall_s > 0.0 then float a.a_delivered /. a.a_wall_s else 0.0
let gc_words_per_packet a = a.a_gc_words /. float (max 1 a.a_delivered)

let run () =
  Util.heading "E24  saturation: VIPER source routes vs XSR constant headers";
  (* a pre-scheduled backlog of [ticks] events keeps every per-frame
     heap operation paying real depth, and >1M packets/arm amortize
     warmup noise in the full run. The smoke run keeps the same shape
     for a quick correctness pass; words per packet barely depend on the
     depth, so both runs gate the same per-arm ceilings. *)
  let ticks = Util.scaled ~full:80_000 ~smoke:16_000 in
  let chain_packets = Util.scaled ~full:2_000 ~smoke:200 in
  pf
    "star of %d feeders -> 1 router -> sink over 10^15 b/s links; %d synchronized\n\
     ticks (%d packets/arm).\n\n"
    feeders ticks (feeders * ticks);
  let cells =
    List.map
      (fun xsr -> measure ~reps:(Util.scaled ~full:3 ~smoke:1) ~xsr ~ticks)
      (if !Util.xsr then [ true ] else [ false; true ])
  in
  Util.table
    ~header:[ "arm"; "delivered"; "wall s"; "pps/core"; "gc words/pkt"; "wire bytes" ]
    (List.map
       (fun a ->
         [
           a.a_name;
           Util.i a.a_delivered;
           Printf.sprintf "%.3f" a.a_wall_s;
           Printf.sprintf "%.0f" (pps a);
           Util.f1 (gc_words_per_packet a);
           Util.i a.a_wire_bytes;
         ])
       cells);

  Util.subheading "bytes-on-wire: VIPER source route vs XSR constant header";
  let n_routers = 4 in
  let viper_bytes, viper_kept = chain_bytes ~xsr:false ~n_routers ~packets:chain_packets in
  let xsr_bytes, xsr_kept = chain_bytes ~xsr:true ~n_routers ~packets:chain_packets in
  pf
    "%d-router chain, %d packets of %d B data: VIPER %d B on the wire, XSR %d B\n\
     (VIPER nets +3 B/hop — shrinking route, faster-growing trailer; XSR holds a\n\
     constant %d-byte header). XSR below VIPER: %s\n"
    n_routers chain_packets payload_bytes viper_bytes xsr_bytes
    Viper.Xsr.header_size
    (if xsr_bytes < viper_bytes then "yes" else "NO");
  if xsr_bytes >= viper_bytes then
    failwith "e24: XSR did not beat VIPER bytes-on-wire at 4 hops";
  (* every packet of every world ended delivered or with a fate *)
  let conservation =
    List.fold_left (fun acc a -> acc + abs a.a_conservation) 0 cells
    + abs viper_kept + abs xsr_kept
  in
  if conservation <> 0 then
    failwith
      (Printf.sprintf "e24: %d packets neither delivered nor given a fate" conservation);

  let json_arm a =
    Util.J.Obj
      [
        ("arm", Util.J.String a.a_name);
        ("xsr", Util.J.Bool a.a_xsr);
        ("delivered", Util.J.Int a.a_delivered);
        ("wall_clock_s", Util.J.Float a.a_wall_s);
        ("pps", Util.J.Float (pps a));
        ("gc_words_per_packet", Util.J.Float (gc_words_per_packet a));
        ("wire_bytes", Util.J.Int a.a_wire_bytes);
      ]
  in
  Util.write_json ~exp:"e24"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e24");
          ( "description",
            Util.J.String "wire-speed path: VIPER vs XSR constant headers" );
          ("feeders", Util.J.Int feeders);
          ("ticks", Util.J.Int ticks);
          ("arms", Util.J.List (List.map json_arm cells));
          ("chain_routers", Util.J.Int n_routers);
          ("viper_wire_bytes", Util.J.Int viper_bytes);
          ("xsr_wire_bytes", Util.J.Int xsr_bytes);
          ( "xsr_bytes_below_viper",
            Util.J.Bool (xsr_bytes < viper_bytes) );
          ("conservation", Util.J.Int conservation);
        ]
       @ List.map
           (fun a ->
             ( "gc_words_per_packet_" ^ a.a_name,
               Util.J.Float (gc_words_per_packet a) ))
           cells))
