(* Isolated layer operations, timed with Bechamel (monotonic clock and
   minor words per call, ordinary least squares over growing batches) on
   inputs shaped like the workload: the route it sends on, its packet
   size and the event-queue depth it runs at. Each op reports [_ns] and
   [_words]. *)

open Bechamel
open Toolkit
module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module Pkt = Viper.Packet

type shape = {
  route : Sirpent.Route.t;  (** a route the workload sends on *)
  first_router : G.node_id;  (** the router its first segment addresses *)
  data_len : int;  (** bytes of data in the workload's packets *)
  depth : int;  (** events queued in the engine while the workload runs *)
}

type result = { ns : float; words : float }

(* The segment a router appends to the trailer for [seg] arriving on port
   1: the stripped segment revised into a return hop. *)
let return_seg seg =
  Seg.make
    ~flags:{ Seg.vnt = false; dib = seg.Seg.flags.Seg.dib; rpf = true }
    ~priority:seg.Seg.priority ~token:seg.Seg.token ~info:seg.Seg.info ~port:1 ()

let link = { G.bandwidth_bps = 1_000_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 }

let tests shape =
  let segments = shape.route.Sirpent.Route.segments in
  let hops = Sirpent.Route.hop_count shape.route in
  let data = Bytes.make shape.data_len 'd' in
  let hop1 = Pkt.build ~route:segments ~data in
  let first = List.hd segments in
  let first_return = return_seg first in
  let arrived =
    List.fold_left
      (fun p seg -> snd (Pkt.forward p ~return_seg:(return_seg seg)))
      hop1
      (List.filteri (fun i _ -> i < hops) segments)
  in
  let ports = Sirpent.Route.ports shape.route in
  let xsr1 = Viper.Xsr.encode ~ports ~data () in
  let xsr_work = Bytes.copy xsr1 in
  let engine = Sim.Engine.create () in
  for _ = 1 to shape.depth do
    ignore (Sim.Engine.schedule_at engine ~time:(Sim.Time.s 1_000_000) ignore)
  done;
  let g = G.create () in
  let a = G.add_node g G.Host in
  let b = G.add_node g G.Host in
  let a_port, _ = G.connect g a b link in
  let wire_engine = Sim.Engine.create () in
  let world = W.create wire_engine g in
  W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> ());
  let frame_bytes = Bytes.make 64 'f' in
  let send_deliver () =
    ignore (W.send world ~node:a ~port:a_port (W.fresh_frame world frame_bytes));
    Sim.Engine.run wire_engine
  in
  let e0 = Sim.Engine.executed wire_engine in
  send_deliver ();
  let send_deliver_events = Sim.Engine.executed wire_engine - e0 in
  let pool = Wire.Pool.create () in
  let pool_size = Bytes.length hop1 in
  let counter =
    Telemetry.Registry.counter (Telemetry.Registry.create ()) "ledger_isolated"
  in
  let flight =
    Telemetry.Flight.create
      ~policy:{ Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 16 }
      ()
  in
  let start () = Option.get (Telemetry.Flight.start flight ~now:0) in
  (* a context carries one span per router hop; a fresh one every [hops]
     hops keeps the op's input the size of a real flight *)
  let ctx = ref (start ()) and ctx_hops = ref 0 in
  let key = Token.Cipher.random_looking_key shape.first_router in
  let token =
    if Bytes.length first.Seg.token > 0 then first.Seg.token
    else
      Token.Capability.to_bytes
        (Token.Capability.mint key ~nonce:1
           {
             Token.Capability.router_id = shape.first_router;
             port = first.Seg.port;
             max_priority = 7;
             reverse_ok = true;
             account = 1;
             packet_limit = 0;
             expiry_ms = 0;
           })
  in
  let cache =
    Token.Cache.create ~key ~router_id:shape.first_router ~policy:Token.Cache.Optimistic
      ~ledger:(Token.Account.create ())
  in
  let check () =
    Token.Cache.check cache ~token ~port:first.Seg.port ~priority:first.Seg.priority
      ~now_ms:0 ~packet_bytes:(Bytes.length hop1) ~reverse:false
  in
  if not (Token.Cache.complete_verification cache ~token ~now_ms:0) then
    Report.fail "the workload's hop-1 token does not verify under router %d's key"
      shape.first_router;
  (match check () with
  | Token.Cache.Admit _ -> ()
  | _ -> Report.fail "a verified hop-1 token is not a cache hit");
  let congestion_world = W.create (Sim.Engine.create ()) g in
  let congestion =
    Sirpent.Congestion.create congestion_world ~node:a Sirpent.Congestion.default_config
  in
  Sirpent.Congestion.start congestion;
  let op name f = Test.make ~name (Staged.stage f) in
  ( send_deliver_events,
    [
      op "viper.packet.forward" (fun () -> Pkt.forward hop1 ~return_seg:first_return);
      op "viper.packet.build" (fun () -> Pkt.build ~route:segments ~data);
      op "viper.packet.parse" (fun () -> Pkt.parse arrived);
      (* step rewrites the header in place, so each call first restores
         the hop-1 header *)
      op "viper.xsr.step" (fun () ->
          Bytes.blit xsr1 0 xsr_work 0 Viper.Xsr.header_size;
          Viper.Xsr.step xsr_work ~in_port:1);
      op "viper.xsr.encode" (fun () -> Viper.Xsr.encode ~ports ~data ());
      op "sim.engine.event" (fun () ->
          ignore (Sim.Engine.schedule engine ~delay:1 ignore);
          Sim.Engine.run ~max_events:1 engine);
      op "netsim.world.send_deliver" send_deliver;
      op "wire.pool.cycle" (fun () -> Wire.Pool.release pool (Wire.Pool.alloc pool pool_size));
      op "telemetry.counter.incr" (fun () -> Telemetry.Registry.Counter.incr counter);
      op "telemetry.flight.hop" (fun () ->
          if !ctx_hops = hops then begin
            Telemetry.Flight.complete !ctx ~now:0;
            ctx := start ();
            ctx_hops := 0
          end;
          incr ctx_hops;
          Telemetry.Flight.hop !ctx ~node:1 ~in_port:1 ~out_port:2 ~arrival:0 ~departure:0
            ~handling:Telemetry.Flight.Cut_through);
      op "token.cache.check_hit" check;
      op "sirpent.congestion.note_arrival" (fun () ->
          Sirpent.Congestion.note_arrival congestion ~in_port:1 ~out_port:2);
    ] )

let names =
  [
    "viper.packet.forward"; "viper.packet.build"; "viper.packet.parse"; "viper.xsr.step";
    "viper.xsr.encode"; "sim.engine.event"; "netsim.world.send_deliver"; "wire.pool.cycle";
    "telemetry.counter.incr"; "telemetry.flight.hop"; "token.cache.check_hit";
    "sirpent.congestion.note_arrival";
  ]

type measured = {
  results : (string * result) list;
  send_deliver_events : int;
      (** events one [netsim.world.send_deliver] runs (delivery and end of
          transmission); the coverage sum charges a packet's other events
          to [sim.engine.event] *)
}

let measure ~smoke shape =
  let send_deliver_events, tests = tests shape in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false
      ~quota:(Time.second (if smoke then 0.005 else 0.25))
      ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; Instance.minor_allocated ] in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        let estimate instance =
          Hashtbl.fold
            (fun _ r acc ->
              match Analyze.OLS.estimates r with
              | Some (e :: _) when Float.is_finite e -> e
              | Some _ | None -> acc)
            (Analyze.all ols instance raw) 0.0
        in
        ( Test.name test,
          { ns = estimate Instance.monotonic_clock; words = estimate Instance.minor_allocated } ))
      tests
  in
  { results; send_deliver_events }

(* Per-layer metrics: every op's [_ns] and [_words]. *)
let metrics m =
  List.concat_map
    (fun (name, r) -> [ (name ^ "_ns", r.ns); (name ^ "_words", r.words) ])
    m.results

let cost m name = (List.assoc name m.results).ns
