(* Intra-world multicore: partitioner invariants (including profile-guided
   refinement), the conservative per-edge shard clock, and the headline
   guarantee — the same region-sharded cluster produces bit-identical
   merged telemetry at --shards 1 (which never spawns) and --shards 3/4,
   with and without load-adaptive re-balancing, and with shard-resident
   fault injection. *)

module G = Topo.Graph
module W = Netsim.World
module P = Netsim.Partition
module B = Netsim.Balancer
module S = Netsim.Shard
module SE = Sim.Shard_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let local_props =
  { G.bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }

let trunk_props =
  { G.bandwidth_bps = 45_000_000; propagation = Sim.Time.ms 1; mtu = 1500 }

(* A [regions]-region internetwork: per region one gateway router and a
   few hosts on local links, gateways joined in a wide-area ring. Names
   carry the region key, as Partition.by_name expects. *)
let build ?(local = local_props) ?(trunk = trunk_props) ~regions
    ~hosts_per_region () =
  let g = G.create () in
  let gws =
    Array.init regions (fun r ->
        G.add_node g ~name:(Printf.sprintf "gw.region%d" r) G.Router)
  in
  let hosts =
    Array.init regions (fun r ->
        Array.init hosts_per_region (fun i ->
            G.add_node g ~name:(Printf.sprintf "h%d.region%d" i r) G.Host))
  in
  Array.iteri
    (fun r hs -> Array.iter (fun h -> ignore (G.connect g gws.(r) h local)) hs)
    hosts;
  for r = 0 to regions - 1 do
    ignore (G.connect g gws.(r) gws.((r + 1) mod regions) trunk)
  done;
  (g, gws, hosts)

let split_exn g =
  let region =
    match P.by_name g with
    | Ok f -> f
    | Error e -> Alcotest.failf "by_name: %s" (Format.asprintf "%a" P.pp_error e)
  in
  match P.split g ~region with
  | Ok p -> p
  | Error e -> Alcotest.failf "split: %s" (Format.asprintf "%a" P.pp_error e)

(* ---- partitioner ---- *)

let partition_covers_nodes () =
  let g, _, _ = build ~regions:4 ~hosts_per_region:2 () in
  let p = split_exn g in
  check_int "regions" 4 p.P.regions;
  check_int "one region per node" (G.node_count g) (Array.length p.P.region_of);
  Array.iter (fun r -> check_bool "region in range" true (r >= 0 && r < 4)) p.P.region_of;
  (* every subgraph re-creates every node with the same id, name, kind *)
  Array.iter
    (fun sub ->
      check_bool "subgraph holds all nodes" true (G.node_count sub >= G.node_count g);
      G.iter_nodes g (fun id ->
          check_bool "same name" true (G.name sub id = G.name g id);
          check_bool "same kind" true (G.kind sub id = G.kind g id)))
    p.P.graphs

let partition_gateways_are_only_cross_edges () =
  let g, _, _ = build ~regions:4 ~hosts_per_region:2 () in
  let p = split_exn g in
  (* the ring's 4 trunks are exactly the cross-region edges *)
  check_int "gateway count" 4 (Array.length p.P.gateways);
  Array.iter
    (fun gw ->
      let l = gw.P.gw_link in
      check_bool "crosses regions" true (gw.P.a_region <> gw.P.b_region);
      check_int "a side region" gw.P.a_region p.P.region_of.(l.G.a);
      check_int "b side region" gw.P.b_region p.P.region_of.(l.G.b))
    p.P.gateways;
  (* inside each subgraph, every link either joins two nodes of that
     region or touches a proxy stub (id >= full node count) *)
  let n = G.node_count g in
  Array.iteri
    (fun r sub ->
      List.iter
        (fun (l : G.link) ->
          let proxy = l.G.a >= n || l.G.b >= n in
          if not proxy then begin
            check_int "internal link stays home (a)" r p.P.region_of.(l.G.a);
            check_int "internal link stays home (b)" r p.P.region_of.(l.G.b)
          end)
        (G.links sub))
    p.P.graphs;
  (* link conservation: each internal link appears in exactly one
     subgraph; each gateway appears as one proxy link on each side *)
  let internal =
    List.length
      (List.filter
         (fun (l : G.link) -> p.P.region_of.(l.G.a) = p.P.region_of.(l.G.b))
         (G.links g))
  in
  let total = Array.fold_left (fun acc sub -> acc + List.length (G.links sub)) 0 p.P.graphs in
  check_int "links conserved" (internal + (2 * Array.length p.P.gateways)) total

let partition_preserves_ports () =
  let g, _, _ = build ~regions:3 ~hosts_per_region:3 () in
  let p = split_exn g in
  List.iter
    (fun (l : G.link) ->
      let r = p.P.region_of.(l.G.a) in
      (* the a-side node's ports in its home subgraph mirror the full
         graph: same port leads to a link with the same id or a proxy *)
      match G.link_via p.P.graphs.(r) l.G.a l.G.a_port with
      | None -> Alcotest.failf "port %d of node %d lost" l.G.a_port l.G.a
      | Some sub_l ->
        check_bool "same props" true (sub_l.G.props = l.G.props);
        let peer_node, peer_port = G.peer sub_l l.G.a in
        if p.P.region_of.(l.G.a) = p.P.region_of.(l.G.b) then begin
          check_int "same peer" l.G.b peer_node;
          check_int "same peer port" l.G.b_port peer_port
        end
        else
          (* cross-region: the replica ends at a proxy stub *)
          check_bool "proxy peer" true (peer_node >= G.node_count g))
    (G.links g)

(* Zero-latency gateway: the partitioner must refuse, and the same
   topology must still run on the serial single-world path — the
   fallback callers take when split returns an error. *)
let partition_refuses_zero_latency_serial_fallback () =
  let g = G.create () in
  let a = G.add_node g ~name:"gw.region0" G.Router in
  let b = G.add_node g ~name:"gw.region1" G.Router in
  let pa, _pb = G.connect g a b { local_props with G.propagation = 0 } in
  let region = match P.by_name g with Ok f -> f | Error _ -> Alcotest.fail "by_name" in
  (match P.split g ~region with
  | Error (P.Zero_latency_gateway _) -> ()
  | Ok _ -> Alcotest.fail "zero-latency gateway must refuse to partition"
  | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" P.pp_error e));
  (* serial fallback: one engine, one world, traffic still flows *)
  let engine = Sim.Engine.create () in
  let w = W.create engine g in
  let got = ref 0 in
  W.set_handler w b (fun _w ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> incr got);
  ignore (W.send w ~node:a ~port:pa (W.fresh_frame w (Bytes.of_string "hi")));
  Sim.Engine.run engine;
  check_int "serial fallback delivers" 1 !got

let partition_by_name_requires_key () =
  let g = G.create () in
  let _ = G.add_node g ~name:"plain" G.Host in
  match P.by_name g with
  | Error (P.Bad_region _) -> ()
  | Ok _ -> Alcotest.fail "names without a region key must be rejected"
  | Error _ -> Alcotest.fail "wrong error"

(* ---- refinement (over-decomposition) ---- *)

let partition_refine_splits_hot_region () =
  let g, _, _ = build ~regions:2 ~hosts_per_region:4 () in
  let p = split_exn g in
  check_int "coarse regions" 2 p.P.regions;
  match P.refine p ~region:0 ~ways:2 with
  | Error e -> Alcotest.failf "refine: %s" (Format.asprintf "%a" P.pp_error e)
  | Ok q ->
    check_int "one more region" 3 q.P.regions;
    (* untouched regions keep their numbers *)
    Array.iteri
      (fun id r -> if r = 1 then check_int "region 1 stable" 1 q.P.region_of.(id))
      p.P.region_of;
    (* the split region's nodes land on 0 or the appended region 2 *)
    Array.iteri
      (fun id r ->
        if r = 0 then
          check_bool "sub-region of 0" true
            (q.P.region_of.(id) = 0 || q.P.region_of.(id) = 2))
      p.P.region_of;
    check_bool "both sub-regions populated" true
      (Array.exists (fun r -> r = 0) q.P.region_of
      && Array.exists (fun r -> r = 2) q.P.region_of);
    (* every new gateway has positive propagation (lookahead exists) *)
    Array.iter
      (fun gw ->
        check_bool "positive gateway latency" true
          (gw.P.gw_link.G.props.G.propagation > 0))
      q.P.gateways

let partition_refine_unsplittable_degrades () =
  (* region 0's two nodes are welded by a zero-latency link: one atom *)
  let g = G.create () in
  let a = G.add_node g ~name:"gw.region0" G.Router in
  let a' = G.add_node g ~name:"h0.region0" G.Host in
  let b = G.add_node g ~name:"gw.region1" G.Router in
  ignore (G.connect g a a' { local_props with G.propagation = 0 });
  ignore (G.connect g a b trunk_props);
  let p = split_exn g in
  (match P.refine p ~region:0 ~ways:2 with
  | Error (P.Unsplittable { region = 0; atoms = 1 }) -> ()
  | Ok _ -> Alcotest.fail "single-atom region must be unsplittable"
  | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" P.pp_error e));
  (* the balancer counts the refusal and keeps the coarser partition *)
  let o = B.plan p ~load:(fun r -> if r = 0 then 1000 else 1) ~target:4 in
  check_bool "refusals counted" true (o.B.refusals >= 1);
  check_int "partition kept" p.P.regions o.B.part.P.regions;
  check_int "no splits applied" 0 (List.length o.B.splits)

let balancer_splits_where_load_is () =
  let g, _, _ = build ~regions:2 ~hosts_per_region:4 () in
  let p = split_exn g in
  let o = B.plan p ~load:(fun r -> if r = 0 then 900 else 100) ~target:4 in
  check_bool "hot region split" true
    (List.exists (fun (r, w) -> r = 0 && w > 1) o.B.splits);
  check_bool "more regions than before" true (o.B.part.P.regions > p.P.regions);
  check_int "no refusals" 0 o.B.refusals;
  (* deterministic: planning twice gives the identical outcome *)
  let o2 = B.plan p ~load:(fun r -> if r = 0 then 900 else 100) ~target:4 in
  check_bool "plan replays" true (o.B.splits = o2.B.splits)

(* ---- shard clock ---- *)

let shard_engine_promise_shapes () =
  (* idle shard: promise = safe_in + lookahead *)
  let c = SE.create_edges ~lookaheads:[| 100 |] (Sim.Engine.create ()) in
  check_int "idle" 600 (SE.promise_edge c ~edge:0 ~safe_in:500);
  check_int "monotone under lower safe_in" 600 (SE.promise_edge c ~edge:0 ~safe_in:100);
  (* a local event caps the cause *)
  let e = Sim.Engine.create () in
  let c = SE.create_edges ~lookaheads:[| 100 |] e in
  Sim.Engine.schedule_at e ~time:50 (fun () -> ());
  check_int "next local + lookahead" 150 (SE.promise_edge c ~edge:0 ~safe_in:max_int);
  (* a pending outbound head is promised exactly *)
  let c = SE.create_edges ~lookaheads:[| 1000 |] (Sim.Engine.create ()) in
  SE.note_outbound c ~edge:0 ~head:300;
  check_int "pending head wins" 300 (SE.promise_edge c ~edge:0 ~safe_in:max_int);
  SE.outbound_sent c ~edge:0 ~head:300;
  check_int "released" max_int (SE.promise_edge c ~edge:0 ~safe_in:max_int)

let shard_engine_per_edge_promises () =
  (* each edge promises with its own lookahead *)
  let c = SE.create_edges ~lookaheads:[| 10; 100 |] (Sim.Engine.create ()) in
  check_int "edges" 2 (SE.edge_count c);
  check_int "lookahead 0" 10 (SE.edge_lookahead c ~edge:0);
  check_int "lookahead 1" 100 (SE.edge_lookahead c ~edge:1);
  check_int "edge 0" 60 (SE.promise_edge c ~edge:0 ~safe_in:50);
  check_int "edge 1" 150 (SE.promise_edge c ~edge:1 ~safe_in:50);
  check_int "min over edges" 60
    (min (SE.promise_edge c ~edge:0 ~safe_in:50) (SE.promise_edge c ~edge:1 ~safe_in:50));
  (* a pending head pins only its own edge (fresh clock: promises are
     monotone, so the earlier safe_in:50 reads must not linger) *)
  let c = SE.create_edges ~lookaheads:[| 10; 100 |] (Sim.Engine.create ()) in
  SE.note_outbound c ~edge:1 ~head:120;
  check_int "edge 1 pinned" 120 (SE.promise_edge c ~edge:1 ~safe_in:max_int);
  check_bool "edge 0 unpinned" true
    (SE.promise_edge c ~edge:0 ~safe_in:200 > 120);
  SE.outbound_sent c ~edge:1 ~head:120

(* Regression: PR 4's lazy pruning of cancelled outbound heads, plus the
   multiset behavior when several transmissions share a head time. *)
let shard_engine_prunes_cancelled_heads () =
  let e = Sim.Engine.create () in
  let c = SE.create_edges ~lookaheads:[| 10 |] e in
  (* a transmission toward the gateway is noted, then cancelled: its
     delivery never fires, so outbound_sent is never called *)
  SE.note_outbound c ~edge:0 ~head:30;
  Sim.Engine.schedule_at e ~time:60 (fun () -> ());
  check_int "still pins while future" 30 (SE.promise_edge c ~edge:0 ~safe_in:max_int);
  (* once the clock passes the head without it firing, it is dead: the
     promise falls back to min(next local 60, safe 50) + lookahead 10 *)
  check_bool "advances" true (SE.advance c ~safe_in:50 ~cap:100);
  check_int "pruned" 60 (SE.promise_edge c ~edge:0 ~safe_in:50)

let shard_engine_prunes_multiset_heads () =
  let e = Sim.Engine.create () in
  let c = SE.create_edges ~lookaheads:[| 10 |] e in
  (* two transmissions share head 30; one delivers, one is cancelled *)
  SE.note_outbound c ~edge:0 ~head:30;
  SE.note_outbound c ~edge:0 ~head:30;
  SE.outbound_sent c ~edge:0 ~head:30;
  check_int "one of two still pins" 30 (SE.promise_edge c ~edge:0 ~safe_in:max_int);
  Sim.Engine.schedule_at e ~time:60 (fun () -> ());
  check_bool "advances" true (SE.advance c ~safe_in:50 ~cap:100);
  (* the cancelled survivor is lazily discarded once the clock passes *)
  check_int "pruned after pass" 60 (SE.promise_edge c ~edge:0 ~safe_in:50);
  (* and pruning does not resurrect: promises stay monotone *)
  check_int "monotone" 60 (SE.promise_edge c ~edge:0 ~safe_in:40)

let shard_engine_advance_caps_at_until () =
  let e = Sim.Engine.create () in
  let c = SE.create_edges ~lookaheads:[| 10 |] e in
  let fired = ref [] in
  List.iter
    (fun tm -> Sim.Engine.schedule_at e ~time:tm (fun () -> fired := tm :: !fired))
    [ 10; 20; 90; 150 ];
  ignore (SE.advance c ~safe_in:25 ~cap:100);
  Alcotest.(check (list int)) "below safe only" [ 20; 10 ] !fired;
  check_bool "not finished" false (SE.finished c ~safe_in:25 ~until:100);
  check_bool "not parked" false (SE.reached c ~cap:100);
  ignore (SE.advance c ~safe_in:max_int ~cap:100);
  Alcotest.(check (list int)) "through until, not past" [ 90; 20; 10 ] !fired;
  check_bool "finished" true (SE.finished c ~safe_in:max_int ~until:100);
  check_bool "parked" true (SE.reached c ~cap:100)

(* ---- full cluster determinism ---- *)

type cluster_run = {
  stats : S.stats;
  rows : Telemetry.Registry.row list;
  region_rows : Telemetry.Registry.row list list;
  events : (Sim.Time.t * Telemetry.Events.event) list;
  flights : Telemetry.Flight.flight list;
  received : int;
  executed : int array;  (** per region: [Sim.Engine.executed] after the run *)
}

(* Build the [regions]-region ring (default 4), install a Sirpent router
   per gateway and a host endpoint per host, and drive periodic traffic:
   every region's
   host 0 pings the next region's host 0 (two gateway crossings per
   round trip), host 1 exercises purely local forwarding. Receivers
   reply along the trailer-built return route, so the return path also
   crosses the gateways. [faults] adds a shard-resident injector per
   region (seeded per region) flapping each region's h0 access link —
   the E18-style region-parallel damage arm. *)
let run_cluster ?epoch ?(faults = false) ?(regions = 4) ~shards ~until () =
  let hosts_per_region = 2 in
  let g, gws, hosts = build ~regions ~hosts_per_region () in
  let p = split_exn g in
  let cluster = S.create p in
  for r = 0 to S.regions cluster - 1 do
    Telemetry.Flight.set_policy
      (W.flight (S.world cluster r))
      { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 4096 }
  done;
  Array.iteri
    (fun r gw -> ignore (Sirpent.Router.create (S.world cluster r) ~node:gw ()))
    gws;
  (* receive callbacks run on whichever domain owns the region *)
  let received = Atomic.make 0 in
  let endpoints = Hashtbl.create 16 in
  Array.iteri
    (fun r hs ->
      Array.iter
        (fun h ->
          let ht = Sirpent.Host.create (S.world cluster r) ~node:h in
          Sirpent.Host.set_receive ht (fun ht ~packet ~in_port ->
              Atomic.incr received;
              (* pings get a pong back along the reconstructed return
                 route; pongs terminate *)
              if Bytes.length packet.Viper.Packet.data > 0
                 && Bytes.get packet.Viper.Packet.data 0 = 'p'
              then
                ignore
                  (Sirpent.Host.reply ht ~to_packet:packet ~in_port
                     ~data:(Bytes.of_string "q-pong") ()));
          Hashtbl.replace endpoints h ht)
        hs)
    hosts;
  if faults then
    for r = 0 to S.regions cluster - 1 do
      let inj =
        Faults.Injector.create
          ~seed:(Faults.Injector.region_seed ~base:0xE18BA5EL ~region:r)
          (S.world cluster r)
      in
      let sub = S.graph cluster r in
      let access =
        List.find
          (fun (l : G.link) ->
            (l.G.a = gws.(r) && l.G.b = hosts.(r).(0))
            || (l.G.b = gws.(r) && l.G.a = hosts.(r).(0)))
          (G.links sub)
      in
      Faults.Injector.flap_link inj ~start:(Sim.Time.ms 10)
        ~until:(Sim.Time.ms 50) ~mean_up:(Sim.Time.ms 6)
        ~mean_down:(Sim.Time.ms 2) access
    done;
  let metric (_ : G.link) = 1.0 in
  let route src dst =
    Sirpent.Route.of_hops g ~src
      (Option.get (G.shortest_path g ~metric ~src ~dst))
  in
  Array.iteri
    (fun r hs ->
      let e = S.engine cluster r in
      let cross = route hs.(0) hosts.((r + 1) mod regions).(0) in
      let local = route hs.(1) hs.(0) in
      for k = 0 to 9 do
        let time = Sim.Time.ms 1 + (k * Sim.Time.ms 2) + (r * Sim.Time.us 100) in
        Sim.Engine.schedule_at e ~time (fun () ->
            let src = Hashtbl.find endpoints hs.(0) in
            ignore
              (Sirpent.Host.send src ~route:cross
                 ~data:(Bytes.of_string (Printf.sprintf "ping-%d-%d" r k))
                 ()));
        Sim.Engine.schedule_at e ~time:(time + Sim.Time.us 500) (fun () ->
            let src = Hashtbl.find endpoints hs.(1) in
            ignore
              (Sirpent.Host.send src ~route:local
                 ~data:(Bytes.of_string (Printf.sprintf "ping-l-%d-%d" r k))
                 ()))
      done)
    hosts;
  let stats = S.run ~shards ?epoch ~until cluster in
  (* a handler exception is swallowed and counted by the world: every
     cluster run must end with none *)
  for r = 0 to S.regions cluster - 1 do
    check_int "no handler raised" 0 (W.total_handler_errors (S.world cluster r));
    (* traffic ends by ~22 ms: every packet of every region world was
       delivered, handed to the next region or given a fate *)
    check_int "every packet accounted" 0 (W.conservation (S.world cluster r))
  done;
  {
    stats;
    rows = S.merged_rows cluster;
    region_rows =
      List.init (S.regions cluster) (fun r ->
          Telemetry.Registry.snapshot (W.metrics (S.world cluster r)));
    events = S.merged_events cluster;
    flights = S.merged_flights cluster;
    received = Atomic.get received;
    executed = Array.init (S.regions cluster) (fun r -> Sim.Engine.executed (S.engine cluster r));
  }

let until = Sim.Time.ms 80

let cluster_traffic_flows () =
  let r = run_cluster ~shards:1 ~until () in
  check_int "one worker" 1 r.stats.S.shards;
  check_int "four regions" 4 r.stats.S.regions;
  check_bool "pings arrived" true (r.received > 0);
  check_bool "gateways crossed" true (r.stats.S.cross_frames > 0);
  check_bool "null messages flowed" true (r.stats.S.null_messages > 0);
  (* per-region telemetry covers every region and sums to the totals *)
  check_int "per-region stats" 4 (Array.length r.stats.S.per_region);
  check_int "nulls add up" r.stats.S.null_messages
    (Array.fold_left
       (fun acc (l : S.region_load) -> acc + l.S.null_messages)
       0 r.stats.S.per_region);
  Array.iter
    (fun (l : S.region_load) ->
      check_bool "every region worked" true (l.S.events > 0))
    r.stats.S.per_region;
  (* 4 regions x 10 pings, each delivered then answered, plus 10 local
     pings per region also answered: all 160 packets arrive *)
  check_int "every packet delivered" 160 r.received

(* The same cluster at [shards] workers (one per region at most) merges
   to telemetry bit-identical with the never-spawning serial run. *)
let matches_serial ?regions ~shards () =
  let serial = run_cluster ?regions ~shards:1 ~until () in
  let wide = run_cluster ?regions ~shards ~until () in
  check_int "workers actually used" (min shards wide.stats.S.regions) wide.stats.S.shards;
  check_int "same deliveries" serial.received wide.received;
  check_int "same crossings" serial.stats.S.cross_frames wide.stats.S.cross_frames;
  check_bool "rows bit-identical" true (serial.rows = wide.rows);
  check_bool "events bit-identical" true (serial.events = wide.events);
  check_bool "flights bit-identical" true (serial.flights = wide.flights)

let cluster_is_deterministic () = matches_serial ~shards:4 ()
let cluster_odd_width_deterministic () = matches_serial ~shards:3 ()

(* Width 2: on a machine with two or more cores the workers fit, so a
   starved worker spins on the generation counter. *)
let cluster_width_two_deterministic () = matches_serial ~shards:2 ()

(* More regions than the machine has cores, one worker each: the workers
   do not fit, so a starved worker parks on the condition variable — on
   every machine. *)
let cluster_oversubscribed_deterministic () =
  let regions = Domain.recommended_domain_count () + 1 in
  matches_serial ~regions ~shards:regions ()

(* Re-balancing must not perturb the simulation: with epochs enabled the
   merged telemetry stays bit-identical to the plain serial reference at
   every width, and the migration schedule replays run over run. *)
let cluster_rebalanced_deterministic () =
  let epoch = Sim.Time.ms 10 in
  let serial = run_cluster ~shards:1 ~until () in
  let widths = [ 1; 3; 4 ] in
  List.iter
    (fun shards ->
      let reb = run_cluster ~epoch ~shards ~until () in
      check_bool "epochs crossed" true (reb.stats.S.epochs > 0);
      check_int "same deliveries" serial.received reb.received;
      check_bool "rows bit-identical" true (serial.rows = reb.rows);
      check_bool "events bit-identical" true (serial.events = reb.events);
      check_bool "flights bit-identical" true (serial.flights = reb.flights))
    widths;
  (* migration decisions are a pure function of the run: replay equal *)
  let a = run_cluster ~epoch ~shards:1 ~until () in
  let b = run_cluster ~epoch ~shards:1 ~until () in
  check_int "same epochs" a.stats.S.epochs b.stats.S.epochs;
  check_int "same migrations" a.stats.S.migrations b.stats.S.migrations

(* E18-style fault matrix, region-parallel: shard-resident injectors
   (one per region, region-derived seeds) produce per-region damage
   tables bit-identical to the serial reference. *)
let cluster_faults_region_parallel () =
  let serial = run_cluster ~faults:true ~shards:1 ~until () in
  let wide = run_cluster ~faults:true ~shards:4 ~until () in
  check_bool "damage happened" true
    (List.exists
       (fun (_, (ev : Telemetry.Events.event)) ->
         match ev with Telemetry.Events.Link_failed _ -> true | _ -> false)
       serial.events);
  check_bool "per-region damage tables identical" true
    (serial.region_rows = wide.region_rows);
  check_bool "rows bit-identical" true (serial.rows = wide.rows);
  check_bool "events bit-identical" true (serial.events = wide.events);
  check_bool "flights bit-identical" true (serial.flights = wide.flights);
  (* and re-balancing composes with faults *)
  let reb = run_cluster ~faults:true ~epoch:(Sim.Time.ms 10) ~shards:4 ~until () in
  check_bool "rebalanced fault rows identical" true (serial.rows = reb.rows);
  check_bool "rebalanced fault events identical" true (serial.events = reb.events);
  check_bool "rebalanced fault flights identical" true (serial.flights = reb.flights)

(* A burst over one gateway direction: more frames than a 4096-slot
   channel could hold, all delivered to the egress proxy within one
   lookahead window, so the producer pushes them in one advance. A push
   never waits: at --shards 1 the producer and consumer are the same
   worker, and the run must finish and match --shards 2. *)
let burst_frames = 4500

let run_burst ~shards =
  let fast =
    { G.bandwidth_bps = 1_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 }
  in
  let g, gws, hosts =
    build ~local:fast
      ~trunk:{ fast with G.propagation = Sim.Time.ms 1 }
      ~regions:2 ~hosts_per_region:1 ()
  in
  let cluster = S.create (split_exn g) in
  Array.iteri
    (fun r gw -> ignore (Sirpent.Router.create (S.world cluster r) ~node:gw ()))
    gws;
  let src = Sirpent.Host.create (S.world cluster 0) ~node:hosts.(0).(0) in
  let dst = Sirpent.Host.create (S.world cluster 1) ~node:hosts.(1).(0) in
  let received = ref 0 in
  Sirpent.Host.set_receive dst (fun _ ~packet:_ ~in_port:_ -> incr received);
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:hosts.(0).(0)
      (Option.get
         (G.shortest_path g ~metric ~src:hosts.(0).(0) ~dst:hosts.(1).(0)))
  in
  let data = Bytes.of_string "burst" in
  let e = S.engine cluster 0 in
  for k = 0 to burst_frames - 1 do
    Sim.Engine.schedule_at e
      ~time:(Sim.Time.ms 1 + (k * Sim.Time.ns 5))
      (fun () -> ignore (Sirpent.Host.send src ~route ~data ()))
  done;
  let stats = S.run ~shards ~until:(Sim.Time.ms 10) cluster in
  (stats, !received, S.merged_rows cluster, S.merged_events cluster)

let burst_over_one_gateway () =
  let s1, got1, rows1, events1 = run_burst ~shards:1 in
  let s2, got2, rows2, events2 = run_burst ~shards:2 in
  check_int "every frame crossed" burst_frames s1.S.cross_frames;
  check_int "every frame delivered" burst_frames got1;
  check_int "same deliveries" got1 got2;
  check_int "same crossings" s1.S.cross_frames s2.S.cross_frames;
  check_bool "rows bit-identical" true (rows1 = rows2);
  check_bool "events bit-identical" true (events1 = events2)

(* ---- what a crossing costs ---- *)

(* [n] packets from region 0's host to region 1's, one crossing each,
   over the 2-region ring: partitioned and run at [shards] when [shards]
   is given, else in one world over the whole graph (the same hops, no
   gateway). The first packet is written into a frame reserved here, so
   its buffer can be followed. Returns the words [run] allocated, the
   crossings, the reserved buffer, its committed window's bytes and what
   the far host's packets were parsed from. *)
let cross_run ?shards n =
  let g, gws, hosts = build ~regions:2 ~hosts_per_region:1 () in
  let src_node = hosts.(0).(0) and dst_node = hosts.(1).(0) in
  let cluster = Option.map (fun _ -> S.create (split_exn g)) shards in
  let whole = lazy (W.create (Sim.Engine.create ()) g) in
  let world r =
    match cluster with Some c -> S.world c r | None -> Lazy.force whole
  in
  Array.iteri (fun r gw -> ignore (Sirpent.Router.create (world r) ~node:gw ())) gws;
  let src = Sirpent.Host.create (world 0) ~node:src_node in
  let dst = Sirpent.Host.create (world 1) ~node:dst_node in
  let wires = ref [] in
  Sirpent.Host.set_receive dst (fun _ ~packet ~in_port:_ ->
      wires := packet.Viper.Packet.wire :: !wires);
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:src_node
      (Option.get (G.shortest_path g ~metric ~src:src_node ~dst:dst_node))
  in
  let first =
    Sirpent.Host.reserve ~route ~priority:Token.Priority.normal ~drop_if_blocked:false
      ~len:64
  in
  Bytes.fill first.Netsim.Frame.payload first.Netsim.Frame.off 64 'x';
  let sent = ref Bytes.empty in
  let data = Bytes.make 64 'y' in
  let e = W.engine (world 0) in
  Sim.Engine.schedule_at e ~time:(Sim.Time.ms 1) (fun () ->
      ignore (Sirpent.Host.commit src ~route first);
      sent := Bytes.sub first.Netsim.Frame.payload first.off first.len);
  for k = 1 to n - 1 do
    Sim.Engine.schedule_at e
      ~time:(Sim.Time.ms 1 + (k * Sim.Time.us 200))
      (fun () -> ignore (Sirpent.Host.send src ~route ~data ()))
  done;
  let until = Sim.Time.ms 1 + (n * Sim.Time.us 200) + Sim.Time.ms 5 in
  let w0 = Gc.minor_words () in
  let crossings =
    match (cluster, shards) with
    | Some c, Some shards -> (S.run ~shards ~until c).S.cross_frames
    | _ ->
      Sim.Engine.run ~until e;
      n
  in
  let words = Gc.minor_words () -. w0 in
  check_int "every packet arrived" n (List.length !wires);
  (words, crossings, first.Netsim.Frame.payload, !sent, List.rev !wires)

(* A crossing hands the consumer the producer's buffer: the far host
   parses its packet out of the very bytes the sender reserved. Each hop
   writes only its trailer's terminator (the window's last 3 bytes,
   which its return hop replaces) and past it, so the sender's window up
   to that terminator is unchanged, and the buffer ends exactly as it
   does when the same hops run in one world: the far side's hops wrote
   into it, and nothing else did. *)
let crossing_moves_the_buffer () =
  let _, _, one_world, _, _ = cross_run 4 in
  List.iter
    (fun shards ->
      let _, crossings, reserved, sent, wires = cross_run ~shards 4 in
      check_int "one crossing per packet" 4 crossings;
      check_bool "the far host reads the reserved buffer" true (List.hd wires == reserved);
      let kept = Bytes.length sent - 3 in
      check_bool "the sender's window is unchanged" true
        (Bytes.sub reserved 0 kept = Bytes.sub sent 0 kept);
      check_bool "the buffer ends as in one world" true (Bytes.equal reserved one_world))
    [ 1; 2 ]

(* Words per crossing at shards 1: the partitioned run less the same
   traffic in one world. It read 21.2 when this ceiling was set (OCaml
   5.1.1): the message record (11 words), the consumer's fresh frame
   over the window (9), a share of a 256-slot channel segment (~1), and
   Shard.run's per-run arrays spread over the 2000 packets (~0.2); the
   import is an event of the region's kind, in a slab slot, and a sync
   round allocates nothing. A copy of the window and its tailroom reads
   34.3, a closure-built promise loop 25.3. *)
let crossing_allocation () =
  let n = 2000 in
  let sharded, crossings, _, _, _ = cross_run ~shards:1 n in
  let whole, _, _, _, _ = cross_run n in
  check_int "one crossing per packet" n crossings;
  let per = (sharded -. whole) /. float_of_int crossings in
  if per > 24.0 then Alcotest.failf "%.2f words per crossing (ceiling 24)" per

(* An idle 4-region cluster at shards 1: two runs of different lengths
   allocate the same words, so the extra rounds allocate none. *)
let round_allocation () =
  let idle until =
    let g, _, _ = build ~regions:4 ~hosts_per_region:1 () in
    let cluster = S.create (split_exn g) in
    let w0 = Gc.minor_words () in
    let stats = S.run ~shards:1 ~until cluster in
    (Gc.minor_words () -. w0, stats.S.rounds)
  in
  let w1, r1 = idle (Sim.Time.s 1) in
  let w2, r2 = idle (Sim.Time.s 4) in
  check_bool "many more rounds" true (r2 - r1 > 1000);
  let per = (w2 -. w1) /. float_of_int (r2 - r1) in
  if per <> 0.0 then Alcotest.failf "%.3f words per round over %d rounds" per (r2 - r1)

(* ---- the driver's edges ---- *)

let run_rejects_bad_arguments () =
  let g, _, _ = build ~regions:2 ~hosts_per_region:1 () in
  let cluster = S.create (split_exn g) in
  let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "shards 0" true (rejected (fun () -> S.run ~shards:0 ~until cluster));
  check_bool "epoch 0" true (rejected (fun () -> S.run ~epoch:0 ~until cluster))

(* More workers asked for than the four regions: one worker each. *)
let wider_than_regions () = matches_serial ~shards:8 ()

(* A region's [events] is its engine's executed count (so they sum to
   the cluster's), at every width and with re-balancing. *)
let region_events_are_executed () =
  List.iter
    (fun (epoch, shards) ->
      let r = run_cluster ?epoch ~shards ~until () in
      Array.iteri
        (fun i (l : S.region_load) -> check_int "region events" r.executed.(i) l.S.events)
        r.stats.S.per_region)
    [ (None, 1); (None, 2); (Some (Sim.Time.ms 10), 3) ]

let () =
  Alcotest.run "intra_world"
    [
      ( "partition",
        [
          Alcotest.test_case "covers every node" `Quick partition_covers_nodes;
          Alcotest.test_case "gateways are the only cross edges" `Quick
            partition_gateways_are_only_cross_edges;
          Alcotest.test_case "ports preserved" `Quick partition_preserves_ports;
          Alcotest.test_case "zero-latency gateway refused, serial fallback" `Quick
            partition_refuses_zero_latency_serial_fallback;
          Alcotest.test_case "by_name requires a region key" `Quick
            partition_by_name_requires_key;
          Alcotest.test_case "refine splits a region" `Quick
            partition_refine_splits_hot_region;
          Alcotest.test_case "unsplittable degrades gracefully" `Quick
            partition_refine_unsplittable_degrades;
          Alcotest.test_case "balancer splits where load is" `Quick
            balancer_splits_where_load_is;
        ] );
      ( "shard clock",
        [
          Alcotest.test_case "promise shapes" `Quick shard_engine_promise_shapes;
          Alcotest.test_case "per-edge promises" `Quick shard_engine_per_edge_promises;
          Alcotest.test_case "cancelled heads pruned" `Quick
            shard_engine_prunes_cancelled_heads;
          Alcotest.test_case "multiset heads pruned" `Quick
            shard_engine_prunes_multiset_heads;
          Alcotest.test_case "advance caps at until" `Quick
            shard_engine_advance_caps_at_until;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "traffic flows" `Quick cluster_traffic_flows;
          Alcotest.test_case "shards 1 = shards 4" `Quick cluster_is_deterministic;
          Alcotest.test_case "shards 1 = shards 3" `Quick
            cluster_odd_width_deterministic;
          Alcotest.test_case "rebalanced = serial at 1/3/4" `Quick
            cluster_rebalanced_deterministic;
          Alcotest.test_case "region-parallel faults = serial" `Quick
            cluster_faults_region_parallel;
          Alcotest.test_case "shards 1 = shards 2" `Quick
            cluster_width_two_deterministic;
          Alcotest.test_case "more regions than cores, full width" `Quick
            cluster_oversubscribed_deterministic;
          Alcotest.test_case "burst over one gateway" `Quick
            burst_over_one_gateway;
          Alcotest.test_case "a crossing moves the buffer" `Quick
            crossing_moves_the_buffer;
          Alcotest.test_case "crossing allocation" `Quick crossing_allocation;
          Alcotest.test_case "a sync round allocates nothing" `Quick round_allocation;
          Alcotest.test_case "bad shards or epoch rejected" `Quick
            run_rejects_bad_arguments;
          Alcotest.test_case "wider than the regions" `Quick wider_than_regions;
          Alcotest.test_case "region events are executed events" `Quick
            region_events_are_executed;
        ] );
    ]
