(* regions: VMTP transactions over a 4-region internetwork, serial and
   region-parallel.

   Each region has a gateway router on a ring of 45 Mb/s / 1 ms trunks,
   an internal router, and 8 hosts on 10 Mb/s access links. Routers run
   rate-based congestion control. Routes come from the routing
   directory at set-up (k = 2, tokens minted), so the routers' token
   caches check real tokens. Every host runs a VMTP entity with two
   closed call loops: think for a seeded exponential time, call a server
   (2/3 in the caller's region, 1/3 one region around the ring) with a
   request sized by the VIPER packet-size mixture, wait for the 64 B
   reply. One trunk, picked by the seed, corrupts bits at 1e-6, so damaged
   frames become counted drops and VMTP retransmissions. Flights are
   sampled 1 in 16.

   The same simulation runs to a fixed simulated horizon twice, with the
   regions on one domain and on two; outputs must agree exactly. This is
   the only workload that exercises the parallel engine, and its serial
   run is the bypass for parallel-engine changes. *)

module G = Topo.Graph
module W = Netsim.World
module P = Netsim.Partition
module S = Netsim.Shard
module D = Dirsvc.Directory
module Host = Sirpent.Host
module Router = Sirpent.Router
module Entity = Vmtp.Entity

let regions = 4
let hosts_per_region = 8
let loops_per_host = 2
let reply_bytes = 64
let bit_error_rate = 1e-6
let parallel_shards = 2
let access = { G.bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }
let trunk = { G.bandwidth_bps = 45_000_000; propagation = Sim.Time.ms 1; mtu = 1500 }

(* Mean think time between a reply and the next call. It sets the
   offered load: about 30 % of the 10 Mb/s internal-router-to-gateway
   link that all of a region's cross traffic shares. A benchmark's
   operations should all succeed, and at higher loads the default
   configuration fails a few calls in ten thousand (see README.md). *)
let think_mean_ns = 24_000_000.0

(* Calls start until [cutoff]; the run continues to [cutoff + drain] so
   every call and every packet has resolved at the horizon. *)
let drain = Sim.Time.s 2

let cutoff (cfg : Pass.config) = Pass.scaled cfg ~full:(Sim.Time.ms 3000) ~smoke:(Sim.Time.ms 60)

let router_config =
  { Router.default_config with congestion = Some Sirpent.Congestion.default_config }

let flight_policy = { Telemetry.Flight.sample_every = 16; capture_drops = true; capacity = 2048 }

type topo = {
  graph : G.t;
  hosts : G.node_id array array;  (** by region *)
  trunks : (G.node_id * G.port * G.node_id * G.port) array;  (** region r -> r + 1 *)
}

let build_topo () =
  let g = G.create () in
  let gws =
    Array.init regions (fun r -> G.add_node g ~name:(Printf.sprintf "gw.region%d" r) G.Router)
  in
  let rts =
    Array.init regions (fun r -> G.add_node g ~name:(Printf.sprintf "rt.region%d" r) G.Router)
  in
  let hosts =
    Array.init regions (fun r ->
        Array.init hosts_per_region (fun i ->
            G.add_node g ~name:(Printf.sprintf "h%d.region%d" i r) G.Host))
  in
  Array.iteri (fun r rt -> ignore (G.connect g gws.(r) rt access)) rts;
  Array.iteri (fun r hs -> Array.iter (fun h -> ignore (G.connect g rts.(r) h access)) hs) hosts;
  let trunks =
    Array.init regions (fun r ->
        let next = gws.((r + 1) mod regions) in
        let a, b = G.connect g gws.(r) next trunk in
        (gws.(r), a, next, b))
  in
  { graph = g; hosts; trunks }

type dest = { server : int64; routes : Sirpent.Route.t list }

(* Everything the benchmark counts itself is kept per region: a region's
   hosts, and so their callbacks, run on one domain. *)
type tally = {
  mutable started : int;
  mutable completed : int;
  mutable failed : int;
  mutable resolved_twice : int;
  mutable bad_replies : int;
  mutable latency : int array;
  mutable samples : int;
  mutable pending_peak : int;
}

let new_tally () =
  {
    started = 0;
    completed = 0;
    failed = 0;
    resolved_twice = 0;
    bad_replies = 0;
    latency = Array.make 4096 0;
    samples = 0;
    pending_peak = 0;
  }

let push_latency t ns =
  if t.samples = Array.length t.latency then begin
    let bigger = Array.make (2 * t.samples) 0 in
    Array.blit t.latency 0 bigger 0 t.samples;
    t.latency <- bigger
  end;
  t.latency.(t.samples) <- ns;
  t.samples <- t.samples + 1

type trace = { router : Probe.span; call : Probe.span; hit : Probe.span; miss : Probe.span }

type run = {
  setup_s : float;
  wall_s : float;
  words : float;
  stats : S.stats;
  rows : Telemetry.Registry.row list;
  events : (Sim.Time.t * Telemetry.Events.event) list;
  flights : Telemetry.Flight.flight list;
  tallies : tally array;
  injected : int;
  delivered : int;
  executed : int;
  frames : int;
  malformed : int;
  overflow : int;
  ctl_sent : int;
  retransmits : int;
  dir_hits : int;
  dir_misses : int;
  dir_spt_builds : int;
  sample_route : Sirpent.Route.t;
  sample_router : G.node_id;
}

let sum_tallies run f = Array.fold_left (fun acc t -> acc + f t) 0 run.tallies

(* Directory answers for every pair a caller may pick: its region's
   other hosts, and every host one region around the ring. *)
let dests topo dir ?trace () =
  let query ~client ~target =
    let answer =
      match trace with
      | None -> D.query dir ~client ~target ~k:2 ()
      | Some tr ->
        let h0 = D.cache_hits dir in
        let t0 = Probe.now_ns () in
        let w0 = Probe.minor () in
        let a = D.query dir ~client ~target ~k:2 () in
        let w1 = Probe.minor () in
        let t1 = Probe.now_ns () in
        Probe.record
          (if D.cache_hits dir > h0 then tr.hit else tr.miss)
          ~ns:(t1 - t0) ~words:(w1 - w0);
        a
    in
    match answer with
    | [] -> Report.fail "the directory has no route from node %d" client
    | infos -> List.map (fun (i : D.route_info) -> i.D.route) infos
  in
  let dest ~client node =
    let target = Dirsvc.Name.of_string (G.name topo.graph node) in
    { server = Int64.of_int node; routes = query ~client ~target }
  in
  Array.mapi
    (fun r hs ->
      Array.map
        (fun h ->
          let local =
            Array.of_list
              (List.filter_map
                 (fun o -> if o = h then None else Some (dest ~client:h o))
                 (Array.to_list hs))
          in
          let remote = Array.map (dest ~client:h) topo.hosts.((r + 1) mod regions) in
          (local, remote))
        hs)
    topo.hosts

let partition g =
  let ok = function Ok v -> v | Error e -> Report.fail "%s" (Format.asprintf "%a" P.pp_error e) in
  ok (P.split g ~region:(ok (P.by_name g)))

let run_once (cfg : Pass.config) ~shards ~cutoff ?trace () =
  let seed = cfg.Pass.seed in
  let t_setup = Probe.now_ns () in
  let topo = build_topo () in
  let g = topo.graph in
  let dir = D.create g in
  Array.iter
    (Array.iter (fun h -> D.register dir ~name:(Dirsvc.Name.of_string (G.name g h)) ~node:h))
    topo.hosts;
  let dests = dests topo dir ?trace () in
  let cluster = S.create (partition g) in
  for r = 0 to S.regions cluster - 1 do
    Telemetry.Flight.set_policy (W.flight (S.world cluster r)) flight_policy
  done;
  let world_of node = S.world cluster (S.region_of cluster node) in
  let routers = ref [] in
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then
        routers := Router.create ~config:router_config (world_of node) ~node () :: !routers);
  let routers = Array.of_list (List.rev !routers) in
  (* the noisy trunk: set on both of its ends, one per region world *)
  let gw_a, port_a, gw_b, port_b = topo.trunks.(seed mod regions) in
  List.iter
    (fun (node, port) ->
      let r = S.region_of cluster node in
      match G.link_via (S.graph cluster r) node port with
      | Some l -> W.set_bit_error_rate (S.world cluster r) ~link_id:l.G.link_id bit_error_rate
      | None -> Report.fail "trunk port %d of node %d is not connected" port node)
    [ (gw_a, port_a); (gw_b, port_b) ];
  Option.iter
    (fun tr ->
      Array.iter (fun r -> Probe.wrap_router tr.router (world_of (Router.node r)) r) routers)
    trace;
  let tallies = Array.init regions (fun _ -> new_tally ()) in
  let reply = Bytes.make reply_bytes 'r' in
  let hosts =
    Array.mapi
      (fun r hs ->
        Array.mapi
          (fun i h ->
            let host = Host.create (S.world cluster r) ~node:h in
            let entity = Entity.create host ~id:(Int64.of_int h) in
            Entity.set_request_handler entity (fun _ ~data:_ ~reply:send -> send reply);
            let engine = S.engine cluster r in
            let tally = tallies.(r) in
            let rng = Sim.Rng.stream ~seed:(Int64.of_int seed) h in
            let local, remote = dests.(r).(i) in
            let think () = int_of_float (Sim.Rng.exponential rng ~mean:think_mean_ns) in
            let call dest data ~on_reply ~on_fail =
              Entity.call entity ~server:dest.server ~routes:dest.routes ~data ~on_reply
                ~on_fail ()
            in
            let call =
              match trace with
              | None -> call
              | Some tr ->
                fun dest data ~on_reply ~on_fail ->
                  tally.pending_peak <- max tally.pending_peak (Sim.Engine.pending engine);
                  let t0 = Probe.now_ns () in
                  let w0 = Probe.minor () in
                  call dest data ~on_reply ~on_fail;
                  Probe.close tr.call ~t0 ~w0
            in
            let rec issue () =
              if Sim.Engine.now engine < cutoff then begin
                let dest =
                  if Sim.Rng.int rng 3 < 2 then local.(Sim.Rng.int rng (Array.length local))
                  else remote.(Sim.Rng.int rng (Array.length remote))
                in
                let data =
                  Bytes.make (Workload.Sizes.draw rng Workload.Sizes.viper_mixture) 'q'
                in
                tally.started <- tally.started + 1;
                let resolved = ref false in
                let t0 = Probe.now_ns () in
                let finish ok =
                  if !resolved then tally.resolved_twice <- tally.resolved_twice + 1
                  else begin
                    resolved := true;
                    if ok then begin
                      tally.completed <- tally.completed + 1;
                      push_latency tally (Probe.now_ns () - t0)
                    end
                    else tally.failed <- tally.failed + 1;
                    ignore (Sim.Engine.schedule engine ~delay:(think ()) issue)
                  end
                in
                call dest data
                  ~on_reply:(fun data ~rtt:_ ->
                    if Bytes.length data <> reply_bytes then
                      tally.bad_replies <- tally.bad_replies + 1;
                    finish true)
                  ~on_fail:(fun _ -> finish false)
              end
            in
            for _ = 1 to loops_per_host do
              ignore (Sim.Engine.schedule_at engine ~time:(Sim.Time.ms 1 + think ()) issue)
            done;
            (host, entity))
          hs)
      topo.hosts
  in
  let setup_s = Probe.seconds_since t_setup in
  Gc.full_major ();
  let w0 = Probe.words () in
  let t0 = Probe.now_ns () in
  let stats = S.run ~shards ~until:(cutoff + drain) cluster in
  let wall_s = Probe.seconds_since t0 in
  let words = Probe.words () -. w0 in
  (* typed counters, summed over the region worlds *)
  let worlds = List.init (S.regions cluster) (S.world cluster) in
  let all_hosts = Array.concat (Array.to_list hosts) in
  let host_port h = match G.ports g h with (p, _) :: _ -> p | [] -> 0 in
  let host_ports f =
    Array.fold_left
      (fun acc (host, _) ->
        let node = Host.node host in
        acc + f (W.port_stats (Host.world host) ~node ~port:(host_port node)))
      0 all_hosts
  in
  let all_ports f =
    let total = ref 0 in
    G.iter_nodes g (fun node ->
        List.iter
          (fun (port, _) -> total := !total + f (world_of node) node port)
          (G.ports g node));
    !total
  in
  let port_stat f = all_ports (fun w node port -> f (W.port_stats w ~node ~port)) in
  let router_stat f = Array.fold_left (fun acc r -> acc + f (Router.stats r)) 0 routers in
  let host_sum f = Array.fold_left (fun acc (h, _) -> acc + f h) 0 all_hosts in
  let entity_sum f = Array.fold_left (fun acc (_, e) -> acc + f (Entity.stats e)) 0 all_hosts in
  let port_drops s = s.W.dropped_blocked + s.W.dropped_overflow + s.W.dropped_no_link in
  let injected = host_ports (fun s -> s.W.sent_frames + port_drops s) in
  let delivered = host_sum Host.received in
  let drops =
    [
      ("host port", host_ports port_drops);
      ("misdelivered", host_sum Host.misdelivered);
      ("malformed", router_stat (fun s -> s.Router.dropped_malformed));
      ("router send", router_stat (fun s -> s.Router.send_drops));
      ("parse", router_stat (fun s -> s.Router.parse_errors));
      ("unauthorized", router_stat (fun s -> s.Router.unauthorized));
      ("router down", router_stat (fun s -> s.Router.dropped_down));
      ("no handler", List.fold_left (fun acc w -> acc + W.undelivered w) 0 worlds);
    ]
  in
  let dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 drops in
  let held =
    all_ports (fun w node port -> W.queue_length w ~node ~port)
    + Array.fold_left
        (fun acc r ->
          acc + match Router.congestion r with Some c -> Sirpent.Congestion.backlog c | None -> 0)
        0 routers
  in
  (* Rate-control frames preempt data frames mid-transmission. A
     preempted frame is counted at its port, but its packet may be lost
     silently (delivery cancelled), dropped at the receiver, or already
     forwarded by a cut-through router: preemptions bound what the drop
     counters cannot explain instead of closing the sum. *)
  let preempted = port_stat (fun s -> s.W.preempted) in
  let unexplained = injected - delivered - dropped - held in
  let fail_if cond fmt =
    Printf.ksprintf (fun m -> if cond then Report.fail "--shards %d: %s" shards m) fmt
  in
  fail_if (unexplained < 0 || unexplained > preempted)
    "packets not conserved: %d injected, %d delivered, %d held, %d preempted, %d dropped (%s)"
    injected delivered held preempted dropped
    (String.concat ", " (List.map (fun (why, n) -> Printf.sprintf "%s %d" why n) drops));
  let errors = List.fold_left (fun acc w -> acc + W.total_handler_errors w) 0 worlds in
  fail_if (errors <> 0) "%d exceptions raised out of frame handlers" errors;
  let tsum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let started = tsum (fun t -> t.started) and completed = tsum (fun t -> t.completed) in
  let failed = tsum (fun t -> t.failed) in
  fail_if (tsum (fun t -> t.resolved_twice) <> 0) "a VMTP call resolved twice";
  fail_if (tsum (fun t -> t.bad_replies) <> 0) "a VMTP reply is not %d bytes" reply_bytes;
  fail_if (completed + failed > started) "%d calls resolved of %d started"
    (completed + failed) started;
  fail_if (completed <> entity_sum (fun s -> s.Entity.calls_completed))
    "entities count %d completed calls, callbacks %d"
    (entity_sum (fun s -> s.Entity.calls_completed)) completed;
  Report.tally ~attempted:started ~failed;
  let congestion =
    Array.to_list (Array.map (fun (h, _) -> Host.limiter h) all_hosts)
    @ List.filter_map Router.congestion (Array.to_list routers)
  in
  (* the isolated ops run on the first cross-region route of region 0's
     first host *)
  let sample_route =
    let _, remote = dests.(0).(0) in
    List.hd remote.(0).routes
  in
  let sample_router =
    let h = topo.hosts.(0).(0) in
    match G.link_via g h sample_route.Sirpent.Route.first_port with
    | Some l -> fst (G.peer l h)
    | None -> Report.fail "host %d's first port is not connected" h
  in
  {
    setup_s;
    wall_s;
    words;
    stats;
    rows = S.merged_rows cluster;
    events = S.merged_events cluster;
    flights = S.merged_flights cluster;
    tallies;
    injected;
    delivered;
    executed =
      List.fold_left (fun acc r -> acc + Sim.Engine.executed (S.engine cluster r)) 0
        (List.init (S.regions cluster) Fun.id);
    frames = port_stat (fun s -> s.W.sent_frames);
    malformed = router_stat (fun s -> s.Router.dropped_malformed);
    overflow = port_stat (fun s -> s.W.dropped_overflow);
    ctl_sent = List.fold_left (fun acc c -> acc + Sirpent.Congestion.ctl_sent c) 0 congestion;
    retransmits = entity_sum (fun s -> s.Entity.retransmits);
    dir_hits = D.cache_hits dir;
    dir_misses = D.cache_misses dir;
    dir_spt_builds = D.spt_builds dir;
    sample_route;
    sample_router;
  }

let rate r = Stats.ratio (float_of_int r.delivered) r.wall_s

(* The simulation on one domain and on two: everything simulated must
   agree. *)
let pair (cfg : Pass.config) ~cutoff =
  let serial = run_once cfg ~shards:1 ~cutoff () in
  let parallel = run_once cfg ~shards:parallel_shards ~cutoff () in
  let same what a b =
    if a <> b then Report.fail "--shards %d %s differ from --shards 1" parallel_shards what
  in
  same "merged telemetry rows" serial.rows parallel.rows;
  same "merged events" serial.events parallel.events;
  same "merged flights" serial.flights parallel.flights;
  same "delivered packets" serial.delivered parallel.delivered;
  same "injected packets" serial.injected parallel.injected;
  List.iter
    (fun (what, f) -> same what (sum_tallies serial f) (sum_tallies parallel f))
    [
      ("calls started", fun t -> t.started);
      ("calls completed", fun t -> t.completed);
      ("calls failed", fun t -> t.failed);
    ];
  (serial, parallel)

let warmup cfg = ignore (pair cfg ~cutoff:(Pass.warmup_size (cutoff cfg)))

let timed cfg =
  let serial, parallel = pair cfg ~cutoff:(cutoff cfg) in
  let lat =
    Array.concat
      (Array.to_list (Array.map (fun t -> Array.sub t.latency 0 t.samples) parallel.tallies))
  in
  let p50, p90, p99 = Pass.latency_us lat (Array.length lat) in
  {
    Pass.rate = rate parallel;
    serial_rate = rate serial;
    words_per_op = serial.words /. float_of_int serial.delivered;
    p50_us = p50;
    p90_us = p90;
    p99_us = p99;
    samples = Array.length lat;
    setups = [ serial.setup_s; parallel.setup_s ];
  }

(* Untraced pairs and traced serial runs, alternated. Spans accumulate
   over the traced runs; the parallel engine's numbers are medians over
   the pairs. *)
let layers cfg =
  let cutoff = cutoff cfg in
  let cost = Probe.calibrate () in
  let tr =
    { router = Probe.span (); call = Probe.span (); hit = Probe.span (); miss = Probe.span () }
  in
  let runs =
    Pass.alternate cfg (fun () -> pair cfg ~cutoff) (fun () ->
        run_once cfg ~shards:1 ~cutoff ~trace:tr ())
  in
  let (serial, _), _ = List.hd runs in
  let traced = List.map snd runs in
  let median f = Stats.median (List.map f runs) in
  let shard f = median (fun ((_, parallel), _) -> f parallel.stats) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 traced in
  let per_pkt x = Stats.ratio x (total (fun r -> float_of_int r.delivered)) in
  let residual_ns, residual_words =
    Probe.residual cost
      ~wall_ns:(total (fun r -> r.wall_s *. 1e9))
      ~run_words:(total (fun r -> r.words))
      [ tr.router; tr.call ]
  in
  let pending_peak =
    List.fold_left
      (fun acc r -> Array.fold_left (fun acc t -> max acc t.pending_peak) acc r.tallies)
      0 traced
  in
  let ops =
    Ops.measure ~smoke:cfg.Pass.smoke
      {
        Ops.route = serial.sample_route;
        first_router = serial.sample_router;
        data_len = int_of_float (Workload.Sizes.analytic_mean Workload.Sizes.viper_mixture);
        depth = pending_peak;
      }
  in
  let regions_sum st f =
    float_of_int (Array.fold_left (fun acc l -> acc + f l) 0 st.S.per_region)
  in
  let completed = sum_tallies serial (fun t -> t.completed) in
  let dir_queries = float_of_int (tr.hit.Probe.count + tr.miss.Probe.count) in
  [
    ("sirpent.router.handle_ns_per_frame", Probe.ns_per_call cost tr.router);
    ("sirpent.router.handle_words_per_frame", Probe.words_per_call cost tr.router);
    ("sim.engine.residual_ns_per_pkt", per_pkt residual_ns);
    ("sim.engine.residual_words_per_pkt", per_pkt residual_words);
    ("sim.engine.events_per_pkt", per_pkt (total (fun r -> float_of_int r.executed)));
    ("sim.engine.pending_peak", float_of_int pending_peak);
    ("netsim.world.frames_per_pkt", per_pkt (total (fun r -> float_of_int r.frames)));
    ("vmtp.entity.call_ns", Probe.ns_per_call cost tr.call);
    ( "trace.overhead_ratio",
      Stats.ratio (median (fun (_, t) -> rate t)) (median (fun ((s, _), _) -> rate s)) );
    ( "ledger.loss_ratio",
      Stats.ratio
        (float_of_int (serial.injected - serial.delivered))
        (float_of_int serial.injected) );
    ("netsim.shard.sync_rounds", shard (fun st -> float_of_int st.S.rounds));
    ("netsim.shard.null_messages", shard (fun st -> float_of_int st.S.null_messages));
    ("netsim.shard.cross_frames", shard (fun st -> float_of_int st.S.cross_frames));
    ( "netsim.shard.idle_round_ratio",
      shard (fun st ->
          1.0
          -. Stats.ratio
               (regions_sum st (fun l -> l.S.advances))
               (regions_sum st (fun l -> l.S.rounds))) );
    ( "netsim.shard.parallel_efficiency",
      shard (fun st -> Stats.ratio st.S.cpu_time_s st.S.wall_clock_s) );
    ("netsim.shard.speedup", median (fun ((s, p), _) -> Stats.ratio s.wall_s p.wall_s));
    ( "vmtp.entity.retransmits_per_call",
      Stats.ratio (float_of_int serial.retransmits) (float_of_int completed) );
    ("vmtp.entity.calls_completed", float_of_int completed);
    ("sirpent.router.malformed_drops", float_of_int serial.malformed);
    ("netsim.world.overflow_drops", float_of_int serial.overflow);
    ("sirpent.congestion.ctl_sent", float_of_int serial.ctl_sent);
    ( "dirsvc.hit_ratio",
      Stats.ratio
        (float_of_int serial.dir_hits)
        (float_of_int (serial.dir_hits + serial.dir_misses)) );
    ("dirsvc.hit_ns_mean", Probe.ns_per_call cost tr.hit);
    ("dirsvc.miss_ns_mean", Probe.ns_per_call cost tr.miss);
    ("dirsvc.spt_builds", float_of_int serial.dir_spt_builds);
    ( "dirsvc.words_per_query",
      Stats.ratio (Probe.net_words cost tr.hit +. Probe.net_words cost tr.miss) dir_queries );
  ]
  @ Ops.metrics ops
