(* E25 — load-adaptive shard re-balancing + per-edge lookahead.

   One deliberately skewed internetwork: region 0 is hot — six "cells"
   (a router with hosts welded to it by zero-latency links) hanging off
   the region gateway over 1 ms backbone links, exchanging the bulk of
   the traffic — while regions 1..3 are light. The wide-area ring that
   joins the gateways has heterogeneous trunk latencies (1..4 ms), so a
   region's two ring edges genuinely differ.

   Arms:

     profile      the coarse partition at --shards 1: the serial
                  reference for telemetry and wall clock, the
                  per-region executed-event profile the balancer plans
                  from, and the per-edge null-message count (at
                  --shards 1 the service loop is deterministic).
     static       the coarse partition at 4 shards, fixed ownership:
                  the hot region serializes on one worker.
     rebalanced   the balancer's refined partition (hot region split
                  along its zero-latency atoms) at 4 shards with epoch
                  re-packing: rebalance_uplift = static wall /
                  rebalanced wall.
     faults       E18-style damage, shard-resident: a per-region
                  injector (seed derived from the region index) flaps
                  region-internal links while a per-region directory
                  serves queries and gets frozen mid-run; per-region
                  damage tables must match the serial run exactly.

   Every arm builds its own topology and partition. This is not
   stylistic: link failure physically disconnects a link from the
   partition's subgraphs, and a fault run can end with links still
   down, so a shared graph would hand the next run a different topology
   — its injector would then visit different links, draw flap times
   from its RNG in a different order, and legitimately simulate a
   different fault schedule. Fresh graphs per arm keep every
   comparison an apples-to-apples replay; the balancer's refinement is
   re-derived per arm from the same load vector, which is deterministic.

   The rebalanced configuration is driven at widths 1, 3 and 4 and the
   run aborts if merged counters, events or flights diverge from its
   width-1 reference — re-balancing must never touch the simulation. *)

module G = Topo.Graph
module W = Netsim.World
module P = Netsim.Partition
module B = Netsim.Balancer
module S = Netsim.Shard

let pf = Printf.printf

let cell_props =
  (* zero propagation welds each cell into one unsplittable atom *)
  { G.bandwidth_bps = 100_000_000; propagation = 0; mtu = 1500 }

let backbone_props =
  { G.bandwidth_bps = 45_000_000; propagation = Sim.Time.ms 1; mtu = 1500 }

let light_props =
  { G.bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }

let regions = 4

(* ring trunk r -> r+1: 1, 2, 3, 4 ms — heterogeneous on purpose *)
let trunk_props r =
  { G.bandwidth_bps = 45_000_000; propagation = (r + 1) * Sim.Time.ms 1; mtu = 1500 }

type topo = {
  graph : G.t;
  gws : G.node_id array;
  cells : (G.node_id * G.node_id array) array;  (* hot region: router, hosts *)
  light_hosts : G.node_id array array;  (* regions 1..3, indexed from 0 *)
}

let build ~cells ~hosts_per_cell ~light_hosts_per_region =
  let g = G.create () in
  let gws =
    Array.init regions (fun r ->
        G.add_node g ~name:(Printf.sprintf "gw.region%d" r) G.Router)
  in
  let cell_arr =
    Array.init cells (fun c ->
        let rt = G.add_node g ~name:(Printf.sprintf "rt%d.region0" c) G.Router in
        ignore (G.connect g gws.(0) rt backbone_props);
        let hs =
          Array.init hosts_per_cell (fun i ->
              let h = G.add_node g ~name:(Printf.sprintf "h%d-c%d.region0" i c) G.Host in
              ignore (G.connect g rt h cell_props);
              h)
        in
        (rt, hs))
  in
  let light =
    Array.init (regions - 1) (fun k ->
        let r = k + 1 in
        Array.init light_hosts_per_region (fun i ->
            let h = G.add_node g ~name:(Printf.sprintf "h%d.region%d" i r) G.Host in
            ignore (G.connect g gws.(r) h light_props);
            h))
  in
  for r = 0 to regions - 1 do
    ignore (G.connect g gws.(r) gws.((r + 1) mod regions) (trunk_props r))
  done;
  { graph = g; gws; cells = cell_arr; light_hosts = light }

let partition_of g =
  let region =
    match P.by_name g with
    | Ok f -> f
    | Error e -> failwith (Format.asprintf "e25: %a" P.pp_error e)
  in
  match P.split g ~region with
  | Ok p -> p
  | Error e -> failwith (Format.asprintf "e25: %a" P.pp_error e)

(* The wide-area ring trunks (gw <-> gw) are operated store-and-forward,
   so their per-edge lookahead gains the minimal serialization term on
   top of propagation (64 bytes is well under the smallest frame this
   workload sends). Gateways that only exist because the balancer
   refined a region — region-0 backbone links — keep the default
   cut-through profile: refinement must not change the wire discipline
   of any link, or the refined run would be a different simulation. *)
let profiles_of (t : topo) (part : P.t) =
  let is_gw node =
    let n = G.name t.graph node in
    String.length n >= 3 && String.sub n 0 3 = "gw."
  in
  Array.map
    (fun (gw : P.gateway) ->
      let l = gw.P.gw_link in
      if is_gw l.G.a && is_gw l.G.b then
        { S.store_and_forward = true; min_frame_bytes = 64 }
      else S.default_profile)
    part.P.gateways

type run = {
  r_stats : S.stats;
  r_rows : Telemetry.Registry.row list;
  r_region_rows : Telemetry.Registry.row list list;
  r_events : (Sim.Time.t * Telemetry.Events.event) list;
  r_flights : Telemetry.Flight.flight list;
  r_delivered : int;
  r_coarse_regions : int;
  r_outcome : B.outcome option;
  r_dirs : (int * int * int * int) list;
      (* per region: queries served, cache hits, misses, stale served —
         the deterministic directory numbers (its query_us histogram is
         host wall clock, so the directory keeps a private registry) *)
}

(* Build a fresh topology + partition, optionally refine it with the
   balancer from a previously profiled load vector, install stacks and
   traffic (the workload only names nodes, so it is identical under any
   partition of the same graph), run, and collect everything. *)
let drive ?epoch ?(faults = false) ?refine_loads ~shards
    ~cells ~hosts_per_cell ~packets ~until () =
  let t = build ~cells ~hosts_per_cell ~light_hosts_per_region:2 in
  let g = t.graph in
  let coarse = partition_of g in
  let part, outcome =
    match refine_loads with
    | None -> (coarse, None)
    | Some loads ->
      let o = B.plan coarse ~load:(fun r -> loads.(r)) ~target:(2 * 4) in
      (o.B.part, Some o)
  in
  let cluster = S.create ~profiles:(profiles_of t part) part in
  for r = 0 to S.regions cluster - 1 do
    Telemetry.Flight.set_policy
      (W.flight (S.world cluster r))
      { Telemetry.Flight.sample_every = 32; capture_drops = true; capacity = 2048 }
  done;
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then
        ignore
          (Sirpent.Router.create (S.world cluster (S.region_of cluster node)) ~node ()));
  (* receive callbacks run on whichever domain owns the region *)
  let received = Atomic.make 0 in
  let endpoints = Hashtbl.create 64 in
  let host node =
    let ht = Sirpent.Host.create (S.world cluster (S.region_of cluster node)) ~node in
    Sirpent.Host.set_receive ht (fun _ ~packet:_ ~in_port:_ -> Atomic.incr received);
    Hashtbl.replace endpoints node ht
  in
  Array.iter (fun (_, hs) -> Array.iter host hs) t.cells;
  Array.iter (fun hs -> Array.iter host hs) t.light_hosts;
  (* shard-resident faults + directory: per-region injector and
     directory instance, seeds and freeze times a pure function of the
     region index *)
  let dirs = ref [] in
  if faults then
    for r = 0 to S.regions cluster - 1 do
      let w = S.world cluster r in
      let inj =
        Faults.Injector.create
          ~seed:(Faults.Injector.region_seed ~base:0xE25_FA17L ~region:r)
          w
      in
      (* flap this region's internal links: cell backbones in the hot
         region, host access links in the light ones — never the ring *)
      let sub = S.graph cluster r in
      let n = G.node_count g in
      List.iter
        (fun (l : G.link) ->
          let internal =
            l.G.a < n && l.G.b < n
            && S.region_of cluster l.G.a = r
            && S.region_of cluster l.G.b = r
            && l.G.props.G.propagation > 0
          in
          if internal && l.G.link_id mod 3 = r mod 3 then
            Faults.Injector.flap_link inj ~start:(Sim.Time.ms 5)
              ~until:(until - Sim.Time.ms 10) ~mean_up:(Sim.Time.ms 4)
              ~mean_down:(Sim.Time.ms 1) l)
        (G.links sub);
      let dir = Dirsvc.Directory.create sub in
      dirs := dir :: !dirs;
      G.iter_nodes g (fun node ->
          if S.region_of cluster node = r && G.kind g node = G.Host then
            Dirsvc.Directory.register dir
              ~name:(Dirsvc.Name.of_string (G.name g node))
              ~node);
      (* periodic region-local queries (client = the region's gateway),
         frozen for a window mid-run *)
      let e = S.engine cluster r in
      let client =
        let c = ref t.gws.(0) in
        Array.iter (fun gw -> if S.region_of cluster gw = r then c := gw) t.gws;
        !c
      in
      G.iter_nodes g (fun node ->
          if S.region_of cluster node = r && G.kind g node = G.Host then begin
            let target = Dirsvc.Name.of_string (G.name g node) in
            for q = 0 to 7 do
              Sim.Engine.schedule_at e
                ~time:(Sim.Time.ms 2 + (q * Sim.Time.ms 4) + (node * 17))
                (fun () ->
                  ignore (Dirsvc.Directory.query dir ~client ~target ()))
            done
          end);
      Faults.Injector.freeze_directory_at inj
        ~at:(Sim.Time.ms 12 + (r * Sim.Time.ms 2))
        ~thaw_after:(Sim.Time.ms 8) dir
    done;
  let metric (_ : G.link) = 1.0 in
  let route src dst =
    Sirpent.Route.of_hops g ~src
      (Option.get (G.shortest_path g ~metric ~src ~dst))
  in
  (* Hot traffic: within each cell, every host streams [packets] to its
     sibling — all the work lands in region 0. A thin cross-region trickle
     (one in eight) keeps the ring honest. *)
  Array.iteri
    (fun c (_, hs) ->
      let e = S.engine cluster (S.region_of cluster hs.(0)) in
      Array.iteri
        (fun i h ->
          let sib = hs.((i + 1) mod Array.length hs) in
          let abroad = t.light_hosts.(c mod (regions - 1)).(0) in
          let local_route = route h sib in
          let cross_route = route h abroad in
          for k = 0 to packets - 1 do
            let time =
              Sim.Time.ms 1 + (k * Sim.Time.us 50) + (i * Sim.Time.us 7)
              + (c * Sim.Time.us 3)
            in
            let rt = if k mod 8 = 0 then cross_route else local_route in
            Sim.Engine.schedule_at e ~time (fun () ->
                ignore
                  (Sirpent.Host.send (Hashtbl.find endpoints h) ~route:rt
                     ~data:(Bytes.make 256 'x') ()))
          done)
        hs)
    t.cells;
  (* Light traffic: a few local packets per light region *)
  Array.iteri
    (fun k hs ->
      let e = S.engine cluster (S.region_of cluster hs.(0)) in
      for p = 0 to (packets / 8) - 1 do
        let time = Sim.Time.ms 1 + (p * Sim.Time.us 400) + (k * Sim.Time.us 11) in
        let rt = route hs.(0) hs.(1) in
        Sim.Engine.schedule_at e ~time (fun () ->
            ignore
              (Sirpent.Host.send
                 (Hashtbl.find endpoints hs.(0))
                 ~route:rt ~data:(Bytes.make 256 'x') ()))
      done)
    t.light_hosts;
  let stats = S.run ~shards ?epoch ~until cluster in
  {
    r_stats = stats;
    r_rows = S.merged_rows cluster;
    r_region_rows =
      List.init (S.regions cluster) (fun r ->
          Telemetry.Registry.snapshot (W.metrics (S.world cluster r)));
    r_events = S.merged_events cluster;
    r_flights = S.merged_flights cluster;
    r_delivered = Atomic.get received;
    r_coarse_regions = coarse.P.regions;
    r_outcome = outcome;
    r_dirs =
      List.rev_map
        (fun d ->
          ( Dirsvc.Directory.queries_served d,
            Dirsvc.Directory.cache_hits d,
            Dirsvc.Directory.cache_misses d,
            Dirsvc.Directory.stale_served d ))
        !dirs;
  }

let identical a b =
  a.r_rows = b.r_rows && a.r_events = b.r_events && a.r_flights = b.r_flights
  && a.r_delivered = b.r_delivered

(* name the diverging components, for actionable abort messages *)
let divergence a b =
  String.concat ", "
    (List.filter_map
       (fun (name, same) -> if same then None else Some name)
       [
         ("counters", a.r_rows = b.r_rows);
         ("events", a.r_events = b.r_events);
         ("flights", a.r_flights = b.r_flights);
         ("delivered", a.r_delivered = b.r_delivered);
       ])

let run () =
  Util.heading "E25  load-adaptive re-balancing + per-edge lookahead";
  let cells = 6 in
  let hosts_per_cell = Util.scaled ~full:4 ~smoke:3 in
  let packets = Util.scaled ~full:300 ~smoke:60 in
  let until = Sim.Time.ms 1 + (packets * Sim.Time.us 50) + Sim.Time.ms 30 in
  let epoch = until / 8 in
  let drive ?epoch ?faults ?refine_loads ~shards () =
    drive ?epoch ?faults ?refine_loads ~shards ~cells
      ~hosts_per_cell ~packets ~until ()
  in
  pf
    "hot region 0: %d cells x %d hosts over 1 ms backbones; light regions 1..3.\n\
     ring trunks 1..4 ms (heterogeneous), operated store-and-forward.\n\n"
    cells hosts_per_cell;

  (* -- profile arm: serial reference + balancer input ------------------ *)
  let profile = drive ~shards:1 () in
  let loads =
    Array.map (fun (l : S.region_load) -> l.S.events) profile.r_stats.S.per_region
  in
  Util.subheading "serial profile (per-region executed events = balancer signal)";
  Util.table
    ~header:[ "region"; "events"; "rounds"; "advances"; "null msgs" ]
    (Array.to_list
       (Array.mapi
          (fun r (l : S.region_load) ->
            [
              Util.i r; Util.i l.S.events; Util.i l.S.rounds;
              Util.i l.S.advances; Util.i l.S.null_messages;
            ])
          profile.r_stats.S.per_region));

  pf "\nnull messages at --shards 1 (per-edge lookahead): %d\n"
    profile.r_stats.S.null_messages;

  (* -- static vs rebalanced at 4 shards -------------------------------- *)
  let static4 = drive ~shards:4 () in
  if not (identical profile static4) then
    failwith "e25: static --shards 4 diverged from the serial run";
  let reb_serial = drive ~epoch ~refine_loads:loads ~shards:1 () in
  let outcome =
    match reb_serial.r_outcome with
    | Some o -> o
    | None -> assert false
  in
  pf "balancer: %d -> %d regions (%s; %d refusal(s))\n"
    reb_serial.r_coarse_regions reb_serial.r_stats.S.regions
    (String.concat ", "
       (List.map (fun (r, w) -> Printf.sprintf "region %d split %d-way" r w)
          outcome.B.splits))
    outcome.B.refusals;
  let reb_runs =
    List.map
      (fun shards ->
        let r = drive ~epoch ~refine_loads:loads ~shards () in
        if not (identical reb_serial r) then
          failwith
            (Printf.sprintf
               "e25: rebalanced telemetry at --shards %d diverged from serial (%s)"
               shards (divergence reb_serial r));
        (shards, r))
      [ 3; 4 ]
  in
  let rebalanced4 = List.assoc 4 reb_runs in
  if reb_serial.r_delivered <> profile.r_delivered then
    failwith "e25: refinement changed what the workload delivered";
  let uplift =
    static4.r_stats.S.wall_clock_s /. rebalanced4.r_stats.S.wall_clock_s
  in
  Util.subheading "static coarse vs rebalanced refined (4 workers)";
  Util.table
    ~header:
      [ "arm"; "regions"; "wall s"; "epochs"; "migrations"; "null msgs"; "delivered" ]
    (List.map
       (fun (name, r) ->
         [
           name;
           Util.i r.r_stats.S.regions;
           Printf.sprintf "%.4f" r.r_stats.S.wall_clock_s;
           Util.i r.r_stats.S.epochs;
           Util.i r.r_stats.S.migrations;
           Util.i r.r_stats.S.null_messages;
           Util.i r.r_delivered;
         ])
       [
         ("serial", profile);
         ("static x4", static4);
         ("rebalanced x1", reb_serial);
         ("rebalanced x3", List.assoc 3 reb_runs);
         ("rebalanced x4", rebalanced4);
       ]);
  pf
    "\nrebalance uplift (static wall / rebalanced wall at 4 workers): %.2fx\n\
     (meaningful on multicore CI; this machine may serialize domains)\n"
    uplift;

  (* -- shard-resident faults + directory ------------------------------- *)
  let f_serial = drive ~faults:true ~shards:1 () in
  let f_wide = drive ~faults:true ~shards:4 () in
  if not (identical f_serial f_wide) then
    failwith
      (Printf.sprintf "e25: fault-arm telemetry diverged between --shards 1 and 4 (%s)"
         (divergence f_serial f_wide));
  if f_serial.r_region_rows <> f_wide.r_region_rows then
    failwith "e25: per-region damage tables diverged between --shards 1 and 4";
  if f_serial.r_dirs <> f_wide.r_dirs then
    failwith "e25: per-region directory counters diverged between --shards 1 and 4";
  let dmg name = Telemetry.Merge.counter_value f_serial.r_rows name in
  let queries = List.fold_left (fun a (q, _, _, _) -> a + q) 0 f_serial.r_dirs in
  let stale = List.fold_left (fun a (_, _, _, s) -> a + s) 0 f_serial.r_dirs in
  pf
    "\nfault arm (region-parallel injectors + directories, identical at 1 and 4 shards):\n\
     links failed %d / restored %d, directory freezes %d, %d queries (%d stale),\n\
     delivered %d (vs %d undamaged)\n"
    (dmg "faults_links_failed") (dmg "faults_links_restored")
    (dmg "faults_directory_freezes") queries stale f_serial.r_delivered
    profile.r_delivered;

  pf
    "\npaper check: the directory's region hierarchy (\xc2\xa73) concentrates load where\n\
     names are; re-balancing moves simulation ownership to follow it without\n\
     touching packet-level behavior — the determinism the paper's per-packet\n\
     source routes rely on for reproducible evaluation.\n";

  Util.write_json ~exp:"e25"
    (Util.J.Obj
       [
         ("experiment", Util.J.String "e25");
         ( "description",
           Util.J.String
             "load-adaptive shard re-balancing + per-edge lookahead" );
         ("cells", Util.J.Int cells);
         ("hosts_per_cell", Util.J.Int hosts_per_cell);
         ("packets_per_host", Util.J.Int packets);
         ("coarse_regions", Util.J.Int reb_serial.r_coarse_regions);
         ("refined_regions", Util.J.Int reb_serial.r_stats.S.regions);
         ("balancer_refusals", Util.J.Int outcome.B.refusals);
         ("delivered", Util.J.Int profile.r_delivered);
         ("delivered_faulted", Util.J.Int f_serial.r_delivered);
         ("cross_frames", Util.J.Int profile.r_stats.S.cross_frames);
         ("null_messages_per_edge", Util.J.Int profile.r_stats.S.null_messages);
         ("epochs", Util.J.Int rebalanced4.r_stats.S.epochs);
         ("migrations", Util.J.Int rebalanced4.r_stats.S.migrations);
         ("static_wall_s", Util.J.Float static4.r_stats.S.wall_clock_s);
         ("rebalanced_wall_s", Util.J.Float rebalanced4.r_stats.S.wall_clock_s);
         ("rebalance_uplift", Util.J.Float uplift);
         ( "profile_events",
           Util.J.List
             (Array.to_list (Array.map (fun e -> Util.J.Int e) loads)) );
         ( "faults",
           Util.J.Obj
             [
               ("links_failed", Util.J.Int (dmg "faults_links_failed"));
               ("links_restored", Util.J.Int (dmg "faults_links_restored"));
               ("directory_freezes", Util.J.Int (dmg "faults_directory_freezes"));
             ] );
       ])
