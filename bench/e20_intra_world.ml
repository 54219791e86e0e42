(* E20 — intra-world multicore: conservative region-parallel simulation
   with gateway-link lookahead.

   One 4-region internetwork (per region: a gateway router on a wide-area
   ring of 1 ms / 45 Mb/s trunks, an internal router, and a star of
   hosts) is partitioned by the region key of its node addresses. The
   gateway trunks are the only inter-shard edges; their propagation delay
   is the physical lower bound on cross-shard causality and hence each
   shard's lookahead. The same cluster is then driven at increasing
   --shards widths: wall clock should fall while the merged counters,
   histograms, event rings and flights stay bit-identical to the
   --shards 1 serial reference — the run aborts if they diverge.

   Null-message overhead is reported per width (promise publications and
   sync rounds), the conservative protocol's price for never rolling
   back. *)

module G = Topo.Graph
module W = Netsim.World
module P = Netsim.Partition
module S = Netsim.Shard

let pf = Printf.printf

let local_props =
  { G.bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }

let trunk_props =
  { G.bandwidth_bps = 45_000_000; propagation = Sim.Time.ms 1; mtu = 1500 }

let regions = 4

let build ~hosts_per_region =
  let g = G.create () in
  let gws =
    Array.init regions (fun r ->
        G.add_node g ~name:(Printf.sprintf "gw.region%d" r) G.Router)
  in
  let rts =
    Array.init regions (fun r ->
        G.add_node g ~name:(Printf.sprintf "rt.region%d" r) G.Router)
  in
  let hosts =
    Array.init regions (fun r ->
        Array.init hosts_per_region (fun i ->
            G.add_node g ~name:(Printf.sprintf "h%d.region%d" i r) G.Host))
  in
  Array.iteri (fun r rt -> ignore (G.connect g gws.(r) rt local_props)) rts;
  Array.iteri
    (fun r hs -> Array.iter (fun h -> ignore (G.connect g rts.(r) h local_props)) hs)
    hosts;
  for r = 0 to regions - 1 do
    ignore (G.connect g gws.(r) gws.((r + 1) mod regions) trunk_props)
  done;
  (g, hosts)

type cell = {
  c_shards : int;
  c_stats : S.stats;
  c_rows : Telemetry.Registry.row list;
  c_events : (Sim.Time.t * Telemetry.Events.event) list;
  c_flights : Telemetry.Flight.flight list;
  c_delivered : int;
}

(* Deterministic periodic traffic: every host emits [packets] packets,
   two of three to a sibling host in its own region, every third to its
   counterpart one region around the ring (two gateway hops away).
   Emission times are staggered per host, never tied to wall clock. *)
let measure ~shards ~hosts_per_region ~packets =
  let g, hosts = build ~hosts_per_region in
  let region =
    match P.by_name g with
    | Ok f -> f
    | Error e -> failwith (Format.asprintf "e20: %a" P.pp_error e)
  in
  let part =
    match P.split g ~region with
    | Ok p -> p
    | Error e -> failwith (Format.asprintf "e20: %a" P.pp_error e)
  in
  let cluster = S.create part in
  for r = 0 to S.regions cluster - 1 do
    Telemetry.Flight.set_policy
      (W.flight (S.world cluster r))
      { Telemetry.Flight.sample_every = 16; capture_drops = true; capacity = 2048 }
  done;
  (* routers (gateway + internal) and hosts, installed on the world of
     the region that owns each node *)
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then
        ignore
          (Sirpent.Router.create (S.world cluster (S.region_of cluster node)) ~node ()));
  (* receive callbacks run on whichever domain owns the region *)
  let received = Atomic.make 0 in
  let endpoints = Hashtbl.create 64 in
  Array.iteri
    (fun r hs ->
      Array.iter
        (fun h ->
          let ht = Sirpent.Host.create (S.world cluster r) ~node:h in
          Sirpent.Host.set_receive ht (fun _ ~packet:_ ~in_port:_ ->
              Atomic.incr received);
          Hashtbl.replace endpoints h ht)
        hs)
    hosts;
  Array.iteri
    (fun r hs ->
      let e = S.engine cluster r in
      Array.iteri
        (fun i h ->
          let sibling = hs.((i + 1) mod hosts_per_region) in
          let abroad = hosts.((r + 1) mod regions).(i) in
          let local_route = Util.route_of g ~src:h ~dst:sibling in
          let cross_route = Util.route_of g ~src:h ~dst:abroad in
          for k = 0 to packets - 1 do
            let time =
              Sim.Time.ms 1 + (k * Sim.Time.us 200) + (i * Sim.Time.us 7)
              + (r * Sim.Time.us 3)
            in
            let route = if k mod 3 = 0 then cross_route else local_route in
            Sim.Engine.schedule_at e ~time (fun () ->
                ignore
                  (Sirpent.Host.send
                     (Hashtbl.find endpoints h)
                     ~route ~data:(Bytes.make 256 'x') ()))
          done)
        hs)
    hosts;
  let until = Sim.Time.ms 1 + (packets * Sim.Time.us 200) + Sim.Time.ms 20 in
  let epoch = if !Util.rebalance then Some Util.rebalance_epoch else None in
  let stats = S.run ~shards ?epoch ~until cluster in
  {
    c_shards = shards;
    c_stats = stats;
    c_rows = S.merged_rows cluster;
    c_events = S.merged_events cluster;
    c_flights = S.merged_flights cluster;
    c_delivered = Atomic.get received;
  }

let dropped_total rows =
  List.fold_left
    (fun acc name -> acc + Telemetry.Merge.counter_value rows name)
    0
    [
      "netsim_dropped_blocked";
      "netsim_dropped_overflow";
      "netsim_dropped_no_link";
      "netsim_undelivered";
      "netsim_shard_meta_dropped";
      "router_send_drops";
      "router_dropped_malformed";
      "router_parse_errors";
      "router_dropped_down";
    ]

let run () =
  Util.heading
    "E20  intra-world multicore: region-parallel simulation, gateway lookahead";
  let hosts_per_region = Util.scaled ~full:8 ~smoke:3 in
  let packets = Util.scaled ~full:400 ~smoke:60 in
  let widths =
    if !Util.smoke_mode then [ 1; max 2 !Util.shards ]
    else
      let base = [ 1; 2; 4 ] in
      if !Util.shards > 4 then base @ [ !Util.shards ] else base
  in
  pf
    "%d regions on a 1 ms trunk ring, %d hosts/region, %d packets/host (1 in 3 cross-region).\n\
     same cluster at each --shards width; merged telemetry must match the serial run.\n\n"
    regions hosts_per_region packets;
  let cells =
    List.map (fun shards -> measure ~shards ~hosts_per_region ~packets) widths
  in
  let serial = List.hd cells in
  let identical c =
    c.c_rows = serial.c_rows
    && c.c_events = serial.c_events
    && c.c_flights = serial.c_flights
    && c.c_delivered = serial.c_delivered
  in
  List.iter
    (fun c ->
      if not (identical c) then
        failwith
          (Printf.sprintf
             "e20: telemetry at --shards %d diverged from the serial run"
             c.c_shards))
    cells;
  let wall c = c.c_stats.S.wall_clock_s in
  let last = List.nth cells (List.length cells - 1) in
  let speedup = wall serial /. wall last in
  let rows =
    List.map
      (fun c ->
        [
          Util.i c.c_shards;
          Printf.sprintf "%.4f" (wall c);
          Printf.sprintf "%.4f" c.c_stats.S.cpu_time_s;
          Util.f2 (wall serial /. wall c);
          Util.i c.c_stats.S.rounds;
          Util.i c.c_stats.S.null_messages;
          Util.i c.c_stats.S.cross_frames;
          Util.i c.c_delivered;
          (if identical c then "yes" else "NO");
        ])
      cells
  in
  Util.table
    ~header:
      [
        "shards";
        "wall s";
        "cpu s";
        "speedup";
        "rounds";
        "null msgs";
        "cross frames";
        "delivered";
        "identical";
      ]
    rows;
  Util.subheading "per-region load (serial run: deterministic service counters)";
  Util.table
    ~header:[ "region"; "rounds"; "advances"; "null msgs"; "events" ]
    (Array.to_list
       (Array.mapi
          (fun r (l : S.region_load) ->
            [
              Util.i r; Util.i l.S.rounds; Util.i l.S.advances;
              Util.i l.S.null_messages; Util.i l.S.events;
            ])
          serial.c_stats.S.per_region));
  pf
    "\nspeedup vs serial at --shards %d: %.2fx (telemetry bit-identical at every width)\n"
    last.c_shards speedup;
  if !Util.rebalance then
    pf "re-balancing on: %d epochs, %d ownership migrations at the widest run.\n"
      last.c_stats.S.epochs last.c_stats.S.migrations;
  pf
    "null-message overhead: %d promise publications over %d sync rounds at the widest run.\n"
    last.c_stats.S.null_messages last.c_stats.S.rounds;
  pf
    "paper check: gateway propagation delay (the paper's internetwork trunk latency)\n\
     is exactly the causal slack that lets regions simulate in parallel without\n\
     rollback — wide-area physics pays for intra-world concurrency.\n";
  let json_rows =
    List.map
      (fun c ->
        let per_region =
          Array.to_list
            (Array.mapi
               (fun r (l : S.region_load) ->
                 Util.J.Obj
                   [
                     ("region", Util.J.Int r);
                     ("rounds", Util.J.Int l.S.rounds);
                     ("advances", Util.J.Int l.S.advances);
                     ("null_messages", Util.J.Int l.S.null_messages);
                     ("events", Util.J.Int l.S.events);
                   ])
               c.c_stats.S.per_region)
        in
        Util.J.Obj
          [
            ("shards", Util.J.Int c.c_shards);
            ("wall_clock_s", Util.J.Float (wall c));
            ("cpu_time_s", Util.J.Float c.c_stats.S.cpu_time_s);
            ( "parallel_efficiency",
              Util.J.Float
                (if wall c > 0.0 then c.c_stats.S.cpu_time_s /. wall c else 0.0) );
            ("sync_rounds", Util.J.Int c.c_stats.S.rounds);
            ("null_messages", Util.J.Int c.c_stats.S.null_messages);
            ("cross_frames", Util.J.Int c.c_stats.S.cross_frames);
            ("epochs", Util.J.Int c.c_stats.S.epochs);
            ("migrations", Util.J.Int c.c_stats.S.migrations);
            ("delivered", Util.J.Int c.c_delivered);
            ("dropped_total", Util.J.Int (dropped_total c.c_rows));
            ("identical_to_serial", Util.J.Bool (identical c));
            ("per_region", Util.J.List per_region);
          ])
      cells
  in
  Util.write_json ~exp:"e20"
    (Util.J.Obj
       [
         ("experiment", Util.J.String "e20");
         ( "description",
           Util.J.String "intra-world multicore: region-parallel conservative simulation" );
         ("regions", Util.J.Int regions);
         ("hosts_per_region", Util.J.Int hosts_per_region);
         ("packets_per_host", Util.J.Int packets);
         ("rows", Util.J.List json_rows);
         ("speedup_vs_serial", Util.J.Float speedup);
       ])
