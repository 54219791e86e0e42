(* Fault-injection subsystem tests: every fault class — corruption, link
   flapping, router crashes, stale directories — must surface as counted
   drops and recoveries, never as an exception out of the event loop. *)

module G = Topo.Graph
module W = Netsim.World
module Router = Sirpent.Router
module Flight = Telemetry.Flight

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props
let hop_metric (_ : G.link) = 1.0

let route_to g ~src ~dst =
  Sirpent.Route.of_hops g ~src
    (Option.get (G.shortest_path g ~metric:hop_metric ~src ~dst))

let link_between g a b =
  List.find
    (fun (l : G.link) -> (l.G.a = a && l.G.b = b) || (l.G.a = b && l.G.b = a))
    (G.links g)

(* --- topology-level link repair --- *)

let reconnect_roundtrip () =
  let g = G.create () in
  let a = G.add_node g G.Router and b = G.add_node g G.Router in
  ignore (G.connect g a b props);
  let l = List.hd (G.links g) in
  check_bool "alive" true (G.link_alive g l);
  G.disconnect g l;
  check_bool "dead" false (G.link_alive g l);
  check_bool "port empty" true (G.link_via g l.G.a l.G.a_port = None);
  G.reconnect g l;
  check_bool "alive again" true (G.link_alive g l);
  check_bool "port reattached" true (G.link_via g l.G.a l.G.a_port = Some l);
  G.reconnect g l;
  check_int "reconnect idempotent" 1 (List.length (G.links g))

(* --- exception-safe handlers --- *)

let handler_exception_is_counted () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ ->
      failwith "handler bug");
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'x')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'y')));
  let later_event_ran = ref false in
  Sim.Engine.schedule engine ~delay:(Sim.Time.s 1) (fun () ->
      later_event_ran := true);
  Sim.Engine.run engine;
  check_bool "simulation survived the raising handler" true !later_event_ran;
  check_int "errors counted at b" 2 (W.handler_errors world ~node:b);
  check_int "errors counted globally" 2 (W.total_handler_errors world);
  check_int "no errors charged to a" 0 (W.handler_errors world ~node:a)

(* --- crash support in the world: purge_node --- *)

let purge_drops_in_flight_and_queued () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let received = ref 0 in
  W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ ->
      incr received);
  for _ = 1 to 5 do
    ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'q')))
  done;
  check_bool "queue built up" true (W.queue_length world ~node:a ~port:1 > 0);
  let dropped = W.purge_node world ~node:a in
  check_int "in-flight + queued all dropped" 5 dropped;
  check_int "queue empty" 0 (W.queue_length world ~node:a ~port:1);
  check_int "queued bytes zero" 0 (W.queued_bytes world ~node:a ~port:1);
  Sim.Engine.run engine;
  check_int "nothing was delivered" 0 !received;
  check_int "purge counted" 5 (W.port_stats world ~node:a ~port:1).W.purged

(* --- exactly one end per packet --- *)

let record_flights world =
  Flight.set_policy (W.flight world)
    { Flight.sample_every = 1; capture_drops = true; capacity = 256 }

(* A host purged 1 ms into a 1400 B cut-through transmission at 1 Mb/s:
   the router switched the packet on long before, so the receiver gets
   it and the purge is not its fate. The port still counts the aborted
   transmission. *)
let purge_after_delivery_counts_once () =
  let slow = { props with G.bandwidth_bps = 1_000_000 } in
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  ignore (G.connect g h1 r slow);
  ignore (G.connect g r h2 slow);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  record_flights world;
  ignore (Router.create world ~node:r ());
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  ignore
    (Sirpent.Host.send s1 ~route:(route_to g ~src:h1 ~dst:h2) ~data:(Bytes.make 1400 'p')
       ());
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 1) (fun () ->
      check_int "one transmission aborted" 1 (W.purge_node world ~node:h1));
  Sim.Engine.run engine;
  check_int "port counts the purge" 1 (W.port_stats world ~node:h1 ~port:1).W.purged;
  check_int "receiver got the packet" 1 (Sirpent.Host.received s2);
  check_int "no purged fate" 0 (W.fate_count world Flight.Purged);
  let fl = W.flight world in
  check_int "its flight completed" 1 (Flight.completed fl);
  check_int "and did not drop" 0 (Flight.dropped fl);
  check_int "every packet delivered or given a fate" 0 (W.conservation world)

(* A rate-control frame reaching a crashed router is counted as dropped
   down, but it is a control message, not a packet: it has no fate. *)
let control_frame_has_no_fate () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and r = G.add_node g G.Router in
  ignore (G.connect g h1 r props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Router.create world ~node:r () in
  Router.crash router;
  let ctl = Sirpent.Congestion.Rate_ctl { congested_port = 2; rate_bps = 1e6 } in
  ignore (W.send world ~node:h1 ~port:1 (W.fresh_frame world ~meta:ctl (Bytes.make 16 'c')));
  Sim.Engine.run engine;
  check_int "counted as dropped down" 1 (Router.stats router).Router.dropped_down;
  check_int "no fate" 0 (W.fate_count world Flight.Down);
  check_int "every packet delivered or given a fate" 0 (W.conservation world)

(* A chain h1 - r1 - r2 - r3 - h2 with h3 on r1 and h4 on r3 for cross
   traffic, under random faults: each router may crash and restart, may
   store and forward or re-circulate through a delay line, and may run
   rate control (whose control frames are not packets); one link may
   flap, one may flip bits, h1 may be purged, and the four hosts send
   VIPER and XSR packets of random size and priority (6 and 7 preempt).
   Once the engine has run dry, every packet originated was delivered
   or given a fate, and every flight ended exactly once — unless a crash
   dropped packets a limiter held, which have no spans. *)
let qcheck_conservation_under_faults =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* routers =
        list_repeat 3
          (quad
             (opt (pair (int_range 0 20_000) (int_range 100 5_000)))
             bool (int_bound 3) bool)
      in
      let* flap = opt (int_bound 5) and* ber = oneofl [ 0.0; 1e-5; 1e-4 ] in
      let* ber_link = int_bound 5 and* purge = opt (int_range 0 20_000) in
      let* sends =
        list_size (int_range 10 60)
          (let* src = int_bound 3 and* size = int_range 16 1400 in
           let* priority = oneofl [ 0; 0; 0; 3; 6; 7 ] and* xsr = bool in
           let* gap = int_range 0 800 in
           return (src, size, priority, xsr, gap))
      in
      return (seed, routers, flap, ber, ber_link, purge, sends))
  in
  QCheck.Test.make ~name:"every packet ends once under random faults" ~count:40
    (QCheck.make gen)
    (fun (seed, routers, flap, ber, ber_link, purge, sends) ->
      let g = G.create () in
      let hosts = Array.init 4 (fun _ -> G.add_node g G.Host) in
      let rs = Array.init 3 (fun _ -> G.add_node g G.Router) in
      ignore (G.connect g hosts.(0) rs.(0) props);
      ignore (G.connect g rs.(0) rs.(1) props);
      ignore (G.connect g rs.(1) rs.(2) props);
      ignore (G.connect g rs.(2) hosts.(1) props);
      ignore (G.connect g hosts.(2) rs.(0) props);
      ignore (G.connect g rs.(2) hosts.(3) props);
      let links = Array.of_list (G.links g) in
      let routes =
        Array.init 4 (fun i -> route_to g ~src:hosts.(i) ~dst:hosts.(i lxor 1))
      in
      let engine = Sim.Engine.create () in
      let world = W.create engine g in
      record_flights world;
      let inj = Faults.Injector.create ~seed:(Int64.of_int seed) world in
      List.iteri
        (fun i (crash, store_and_forward, blocked, rate_control) ->
          let config =
            {
              Router.default_config with
              Router.store_and_forward;
              congestion =
                (if rate_control then Some Sirpent.Congestion.default_config else None);
              blocked =
                (if blocked = 0 then
                   Router.Delay_line { delay = Sim.Time.us 20; max_circuits = 3 }
                 else Router.Buffer);
            }
          in
          let r = Router.create ~config world ~node:rs.(i) () in
          Option.iter
            (fun (at, down_for) ->
              Faults.Injector.crash_router_at inj ~at:(Sim.Time.us at)
                ~down_for:(Sim.Time.us down_for) r)
            crash)
        routers;
      let shosts = Array.map (fun h -> Sirpent.Host.create world ~node:h) hosts in
      Option.iter
        (fun l ->
          Faults.Injector.flap_link inj ~until:(Sim.Time.ms 30) ~mean_up:(Sim.Time.ms 3)
            ~mean_down:(Sim.Time.ms 1) links.(l))
        flap;
      if ber > 0.0 then
        Faults.Injector.set_link_corruption inj ~link:links.(ber_link)
          { Faults.Corrupt.ber; region = Faults.Corrupt.Any };
      Option.iter
        (fun at ->
          Sim.Engine.schedule_at engine ~time:(Sim.Time.us at) (fun () ->
              ignore (W.purge_node world ~node:hosts.(0))))
        purge;
      ignore
        (List.fold_left
           (fun time (src, size, priority, xsr, gap) ->
             let time = time + Sim.Time.us gap in
             Sim.Engine.schedule_at engine ~time (fun () ->
                 let send = if xsr then Sirpent.Host.send_xsr else Sirpent.Host.send in
                 ignore
                   (send shosts.(src) ~route:routes.(src) ~priority
                      ~data:(Bytes.make size 'f') ()));
             time)
           0 sends);
      Sim.Engine.run engine;
      let fl = W.flight world in
      W.conservation world = 0 && Flight.started fl = Flight.completed fl + Flight.dropped fl)

(* --- region-aimed corruption through a router --- *)

let two_hop () =
  let g = G.create () in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  ignore (G.connect g h1 r props);
  ignore (G.connect g r h2 props);
  (g, h1, r, h2)

let corruption_world () =
  let g, h1, r, h2 = two_hop () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Router.create world ~node:r () in
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let inj = Faults.Injector.create world in
  (g, engine, world, router, s1, s2, inj, h1, r, h2)

let send_one g s1 ~src ~dst data =
  ignore (Sirpent.Host.send s1 ~route:(route_to g ~src ~dst) ~data ())

let header_corruption_drops_at_router () =
  let g, engine, world, router, s1, s2, inj, h1, r, h2 = corruption_world () in
  Faults.Injector.set_link_corruption inj ~link:(link_between g h1 r)
    { Faults.Corrupt.ber = 1.0; region = Faults.Corrupt.Header };
  send_one g s1 ~src:h1 ~dst:h2 (Bytes.make 64 'd');
  Sim.Engine.run engine;
  check_int "router counted malformed" 1 (Router.stats router).Router.dropped_malformed;
  check_int "nothing delivered" 0 (Sirpent.Host.received s2);
  check_int "no handler escaped" 0 (W.total_handler_errors world);
  check_int "header hit counted" 1
    (Faults.Injector.stats inj).Faults.Injector.header_corruptions

let payload_corruption_passes_but_damages () =
  let g, engine, _world, router, s1, s2, inj, h1, r, h2 = corruption_world () in
  Faults.Injector.set_link_corruption inj ~link:(link_between g h1 r)
    { Faults.Corrupt.ber = 1.0; region = Faults.Corrupt.Payload };
  let witness = ref None in
  Sirpent.Host.set_receive s2 (fun _ ~packet ~in_port:_ ->
      witness := Some packet.Viper.Packet.data);
  send_one g s1 ~src:h1 ~dst:h2 (Bytes.make 64 'd');
  Sim.Engine.run engine;
  check_int "routing survived payload damage" 0
    (Router.stats router).Router.dropped_malformed;
  check_int "delivered" 1 (Sirpent.Host.received s2);
  (match !witness with
  | Some data ->
    (* ber = 1.0 flips every payload bit: 'd' xor 0xff *)
    check_bool "data damaged" true
      (Bytes.for_all (fun c -> Char.code c = Char.code 'd' lxor 0xFF) data)
  | None -> Alcotest.fail "no delivery");
  check_int "payload hit counted" 1
    (Faults.Injector.stats inj).Faults.Injector.payload_corruptions

let trailer_corruption_rejected_at_host () =
  let g, engine, world, _router, s1, s2, inj, _h1, r, h2 = corruption_world () in
  (* damage on the second link, after the router has appended a return hop *)
  Faults.Injector.set_link_corruption inj ~link:(link_between g r h2)
    { Faults.Corrupt.ber = 1.0; region = Faults.Corrupt.Trailer };
  send_one g s1 ~src:(Sirpent.Host.node s1) ~dst:h2 (Bytes.make 64 'd');
  Sim.Engine.run engine;
  check_int "host rejected the damaged trailer" 1 (Sirpent.Host.misdelivered s2);
  check_int "not counted as received" 0 (Sirpent.Host.received s2);
  check_int "no handler escaped" 0 (W.total_handler_errors world);
  check_int "trailer hit counted" 1
    (Faults.Injector.stats inj).Faults.Injector.trailer_corruptions

let corruption_is_deterministic () =
  let run () =
    let g, engine, _world, router, s1, s2, inj, h1, r, h2 = corruption_world () in
    Faults.Injector.set_link_corruption inj ~link:(link_between g h1 r)
      { Faults.Corrupt.ber = 2e-4; region = Faults.Corrupt.Any };
    for k = 1 to 40 do
      Sim.Engine.schedule engine ~delay:(Sim.Time.ms k) (fun () ->
          send_one g s1 ~src:h1 ~dst:h2 (Bytes.make 700 'd'))
    done;
    Sim.Engine.run engine;
    let st = Faults.Injector.stats inj in
    ( st.Faults.Injector.frames_corrupted,
      st.Faults.Injector.bits_flipped,
      Sirpent.Host.received s2,
      (Router.stats router).Router.dropped_malformed )
  in
  let (a_fc, a_bf, a_rx, a_dm) = run () and (b_fc, b_bf, b_rx, b_dm) = run () in
  check_bool "some frames damaged" true (a_fc > 0);
  check_bool "identical replay" true
    ((a_fc, a_bf, a_rx, a_dm) = (b_fc, b_bf, b_rx, b_dm))

(* --- router crash and restart --- *)

let crash_wipes_soft_state_and_recovers () =
  let g, h1, r, h2 = two_hop () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Router.create world ~node:r () in
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let dir = Dirsvc.Directory.create g in
  Dirsvc.Directory.register dir ~name:(Dirsvc.Name.of_string "x.dst") ~node:h2;
  let routes =
    Dirsvc.Directory.query dir ~client:h1 ~target:(Dirsvc.Name.of_string "x.dst")
      ~k:1 ()
  in
  let route = (List.hd routes).Dirsvc.Directory.route in
  let inj = Faults.Injector.create world in
  let send_at t =
    Sim.Engine.schedule_at engine ~time:t (fun () ->
        ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 100 'c') ()))
  in
  (* one packet while up (warms the token cache), two while down, one
     after restart *)
  send_at (Sim.Time.ms 1);
  Faults.Injector.crash_router_at inj ~at:(Sim.Time.ms 10)
    ~down_for:(Sim.Time.ms 20) router;
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 12) (fun () ->
      check_bool "router is down" false (Router.up router);
      check_int "token cache wiped" 0 (Token.Cache.entries (Router.cache router)));
  send_at (Sim.Time.ms 15);
  send_at (Sim.Time.ms 18);
  send_at (Sim.Time.ms 40);
  Sim.Engine.run engine;
  let st = Router.stats router in
  check_bool "router is back up" true (Router.up router);
  check_int "crash counted" 1 st.Router.crashes;
  check_int "frames while down counted" 2 st.Router.dropped_down;
  check_int "before + after delivered" 2 (Sirpent.Host.received s2);
  let ist = Faults.Injector.stats inj in
  check_int "injector crash count" 1 ist.Faults.Injector.crashes;
  check_int "injector restart count" 1 ist.Faults.Injector.restarts

let crash_wipes_limiter_soft_state () =
  (* congestion limiters are soft state: a crash loses the held packets
     (counted, never delivered) and the rebuilt router starts clean *)
  let g, h1, r, h2 = two_hop () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router =
    Router.create world ~node:r
      ~config:
        {
          Router.default_config with
          Router.congestion = Some Sirpent.Congestion.default_config;
        }
      ()
  in
  ignore (Sirpent.Host.create world ~node:h1);
  ignore (Sirpent.Host.create world ~node:h2);
  let c = Option.get (Router.congestion router) in
  let module C = Sirpent.Congestion in
  (* a throttled limiter holding two packets that will never fit its rate:
     1000-byte frames whose lone segment names port 1 at the next router *)
  C.handle_ctl c ~arrival_port:1 ~congested_port:1 ~rate_bps:8.0;
  let leaked = ref 0 in
  let hold () =
    let b = Bytes.make 1000 '\000' in
    Bytes.blit (Viper.Segment.encode (Viper.Segment.make ~port:1 ())) 0 b 0 4;
    let frame = W.fresh_frame world b in
    let send () = incr leaked in
    if C.admit c ~out_port:1 frame then send () else C.hold c ~out_port:1 frame ~send
  in
  hold ();
  hold ();
  check_int "limiter installed" 1 (C.limiters c);
  check_int "packets held" 2 (C.backlog c);
  let inj = Faults.Injector.create world in
  Faults.Injector.crash_router_at inj ~at:(Sim.Time.ms 10)
    ~down_for:(Sim.Time.ms 20) router;
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 12) (fun () ->
      check_int "limiters wiped" 0 (C.limiters c);
      check_int "held packets dropped" 0 (C.backlog c));
  (* after restart the controller accepts fresh signals: soft state
     rebuilds from traffic instead of resurrecting *)
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 40) (fun () ->
      C.handle_ctl c ~arrival_port:1 ~congested_port:1 ~rate_bps:1e6;
      check_int "fresh limiter installs" 1 (C.limiters c));
  Sim.Engine.run ~until:(Sim.Time.ms 50) engine;
  check_bool "router back up" true (Router.up router);
  check_int "held packets never leaked out" 0 !leaked;
  check_int "held packets are purged fates" 2 (W.fate_count world Flight.Purged)

(* Packets hosts sent that a router's limiter holds when it crashes
   end like any other lost packet: a [Purged] fate with a drop span. *)
let crash_ends_held_flights () =
  let g, h1, r, h2 = two_hop () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  record_flights world;
  let router =
    Router.create world ~node:r
      ~config:
        {
          Router.default_config with
          Router.congestion = Some Sirpent.Congestion.default_config;
        }
      ()
  in
  let s1 = Sirpent.Host.create world ~node:h1 in
  ignore (Sirpent.Host.create world ~node:h2);
  let c = Option.get (Router.congestion router) in
  (* throttle r's port 2 (toward h2) for packets whose next segment is
     h2's local delivery: nothing fits 8 b/s before the crash *)
  Sirpent.Congestion.handle_ctl c ~arrival_port:2
    ~congested_port:Viper.Segment.local_port ~rate_bps:8.0;
  let route = route_to g ~src:h1 ~dst:h2 in
  for _ = 1 to 3 do
    ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 200 'h') ())
  done;
  Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 10) (fun () ->
      check_int "held before the crash" 3 (Sirpent.Congestion.backlog c);
      Router.crash router);
  Sim.Engine.run engine;
  let fl = W.flight world in
  let flights = Flight.flights fl in
  check_int "three flights ended" 3 (List.length flights);
  List.iter
    (fun f ->
      check_bool "purged" true (f.Flight.dropped = Some Flight.Purged);
      match List.rev f.Flight.spans with
      | last :: _ -> check_bool "drop span" true (last.Flight.drop = Some Flight.Purged)
      | [] -> Alcotest.fail "no spans")
    flights;
  check_int "started = completed + dropped" (Flight.started fl)
    (Flight.completed fl + Flight.dropped fl);
  check_int "conservation" 0 (W.conservation world)

(* --- flapping links --- *)

let flapping_link_recovers () =
  let g, h1, r, h2 = two_hop () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Router.create world ~node:r ());
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let inj = Faults.Injector.create world in
  let flappy = link_between g r h2 in
  Faults.Injector.flap_link inj ~until:(Sim.Time.ms 400) ~mean_up:(Sim.Time.ms 30)
    ~mean_down:(Sim.Time.ms 10) flappy;
  let route = route_to g ~src:h1 ~dst:h2 in
  let sent = ref 0 in
  let rec sender t =
    if t < Sim.Time.ms 500 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          incr sent;
          ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 200 'f') ());
          sender (t + Sim.Time.ms 2))
  in
  sender (Sim.Time.ms 1);
  Sim.Engine.run engine;
  let st = Faults.Injector.stats inj in
  check_bool "link flapped" true (st.Faults.Injector.links_failed > 0);
  check_int "every failure eventually restored" st.Faults.Injector.links_failed
    st.Faults.Injector.links_restored;
  check_bool "link alive at the end" true (G.link_alive g flappy);
  check_bool "some deliveries" true (Sirpent.Host.received s2 > 0);
  check_bool "some losses" true (Sirpent.Host.received s2 < !sent);
  check_int "no handler escaped" 0 (W.total_handler_errors world)

(* --- directory staleness --- *)

let diamond () =
  let g = G.create () in
  let src = G.add_node g G.Host and dst = G.add_node g G.Host in
  let r0 = G.add_node g G.Router in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  let r3 = G.add_node g G.Router in
  ignore (G.connect g src r0 props);
  ignore (G.connect g r0 ra props);
  ignore (G.connect g r0 rb { props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g ra r3 props);
  ignore (G.connect g rb r3 { props with G.propagation = Sim.Time.us 50 });
  ignore (G.connect g r3 dst props);
  (g, src, dst, r0, ra, rb, r3)

let frozen_directory_serves_dead_routes () =
  let g, src, dst, _r0, ra, _rb, r3 = diamond () in
  let dir = Dirsvc.Directory.create g in
  let name = Dirsvc.Name.of_string "x.dst" in
  Dirsvc.Directory.register dir ~name ~node:dst;
  let fresh = Dirsvc.Directory.query dir ~client:src ~target:name ~k:1 () in
  check_int "one best route" 1 (List.length fresh);
  Dirsvc.Directory.set_frozen dir true;
  (* the best (ra) path dies while the directory is frozen *)
  G.disconnect g (link_between g ra r3);
  let stale = Dirsvc.Directory.query dir ~client:src ~target:name ~k:1 () in
  check_bool "identical stale answer" true
    ((List.hd stale).Dirsvc.Directory.hops = (List.hd fresh).Dirsvc.Directory.hops);
  check_int "stale serve counted" 1 (Dirsvc.Directory.stale_served dir);
  check_bool "stale route crosses the dead router" true
    (List.exists (fun { G.at; _ } -> at = ra) (List.hd stale).Dirsvc.Directory.hops);
  Dirsvc.Directory.set_frozen dir false;
  let thawed = Dirsvc.Directory.query dir ~client:src ~target:name ~k:1 () in
  check_bool "thawed answer avoids the dead link" true
    (not
       (List.exists (fun { G.at; _ } -> at = ra) (List.hd thawed).Dirsvc.Directory.hops));
  check_int "no further stale serves" 1 (Dirsvc.Directory.stale_served dir)

(* --- the fault matrix: everything at once --- *)

let fault_matrix () =
  let g, src, dst, r0, ra, _rb, r3 = diamond () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let routers = Hashtbl.create 4 in
  List.iter
    (fun n -> Hashtbl.replace routers n (Router.create world ~node:n ()))
    [ r0; ra; _rb; r3 ];
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let dir = Dirsvc.Directory.create g in
  let name = Dirsvc.Name.of_string "x.dst" in
  Dirsvc.Directory.register dir ~name ~node:dst;
  let client = Vmtp.Entity.create h_src ~id:1L in
  let server = Vmtp.Entity.create h_dst ~id:2L in
  Vmtp.Entity.set_request_handler server (fun _ ~data ~reply -> reply data);
  let inj = Faults.Injector.create ~seed:7L world in
  (* fault matrix: bit errors on the primary trunk, the primary ra-r3 link
     flapping, the ra router crashing and restarting mid-run, and the
     directory frozen (serving stale routes) for part of the run *)
  Faults.Injector.set_link_corruption inj ~link:(link_between g r0 ra)
    { Faults.Corrupt.ber = 5e-5; region = Faults.Corrupt.Any };
  Faults.Injector.flap_link inj ~start:(Sim.Time.ms 300) ~until:(Sim.Time.s 4)
    ~mean_up:(Sim.Time.ms 250) ~mean_down:(Sim.Time.ms 80)
    (link_between g ra r3);
  Faults.Injector.crash_router_at inj ~at:(Sim.Time.s 2)
    ~down_for:(Sim.Time.ms 500)
    (Hashtbl.find routers ra);
  Faults.Injector.freeze_directory_at inj ~at:(Sim.Time.ms 500)
    ~thaw_after:(Sim.Time.s 3) dir;
  let attempted = ref 0 and completed = ref 0 and failed = ref 0 in
  let rec caller t =
    if t < Sim.Time.s 5 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          (* re-query each call so the frozen window actually serves
             stale routes over dead links *)
          let routes =
            Dirsvc.Directory.query dir ~client:src ~target:name ~k:2 ()
          in
          let sroutes = List.map (fun r -> r.Dirsvc.Directory.route) routes in
          incr attempted;
          Vmtp.Entity.call client ~server:2L ~routes:sroutes
            ~data:(Bytes.make 300 'm')
            ~on_reply:(fun _ ~rtt:_ -> incr completed)
            ~on_fail:(fun _ -> incr failed)
            ();
          caller (t + Sim.Time.ms 50))
  in
  caller (Sim.Time.ms 10);
  (* drain fully: the callers self-terminate, and the slowest
     failure ladders (exhausting retries across routes with backoff)
     must still resolve every transaction *)
  Sim.Engine.run engine;
  (* every transaction resolved exactly once: completed via failover or
     failed cleanly — none hung, none double-fired *)
  check_int "every call resolved" !attempted (!completed + !failed);
  check_bool "transactions completed despite the faults" true (!completed > 0);
  check_int "no exception escaped any handler" 0 (W.total_handler_errors world);
  let ist = Faults.Injector.stats inj in
  check_bool "corruption happened" true (ist.Faults.Injector.frames_corrupted > 0);
  check_bool "links flapped" true (ist.Faults.Injector.links_failed > 0);
  check_int "flaps healed" ist.Faults.Injector.links_failed
    ist.Faults.Injector.links_restored;
  check_int "ra crashed once" 1 ist.Faults.Injector.crashes;
  check_int "ra restarted" 1 ist.Faults.Injector.restarts;
  check_bool "ra ended up" true (Router.up (Hashtbl.find routers ra));
  check_bool "stale answers were served" true (Dirsvc.Directory.stale_served dir > 0);
  check_bool "link healthy at the end" true
    (G.link_alive g (link_between g ra r3));
  (* the accounting separates damage from load on every router *)
  Hashtbl.iter
    (fun _ r ->
      let st = Router.stats r in
      check_bool "counters non-negative" true
        (st.Router.dropped_malformed >= 0 && st.Router.dropped_down >= 0))
    routers;
  check_int "every packet delivered or given a fate" 0 (W.conservation world)

let () =
  Alcotest.run "faults"
    [
      ( "links",
        [
          Alcotest.test_case "reconnect roundtrip" `Quick reconnect_roundtrip;
          Alcotest.test_case "flapping link recovers" `Quick flapping_link_recovers;
        ] );
      ( "world hardening",
        [
          Alcotest.test_case "handler exception counted" `Quick
            handler_exception_is_counted;
          Alcotest.test_case "purge drops frames" `Quick
            purge_drops_in_flight_and_queued;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "header damage drops at router" `Quick
            header_corruption_drops_at_router;
          Alcotest.test_case "payload damage passes through" `Quick
            payload_corruption_passes_but_damages;
          Alcotest.test_case "trailer damage rejected at host" `Quick
            trailer_corruption_rejected_at_host;
          Alcotest.test_case "deterministic replay" `Quick corruption_is_deterministic;
        ] );
      ( "crash and staleness",
        [
          Alcotest.test_case "crash wipes soft state" `Quick
            crash_wipes_soft_state_and_recovers;
          Alcotest.test_case "crash wipes limiter soft state" `Quick
            crash_wipes_limiter_soft_state;
          Alcotest.test_case "crash ends held flights" `Quick crash_ends_held_flights;
          Alcotest.test_case "frozen directory serves dead routes" `Quick
            frozen_directory_serves_dead_routes;
        ] );
      ("fault matrix", [ Alcotest.test_case "all faults at once" `Quick fault_matrix ]);
      ( "packet fates",
        [
          Alcotest.test_case "purge after delivery counts once" `Quick
            purge_after_delivery_counts_once;
          Alcotest.test_case "control frame has no fate" `Quick control_frame_has_no_fate;
          Seeded.to_alcotest qcheck_conservation_under_faults;
        ] );
    ]
