(* E12 — §2.3 scalability: router state. "The size of state required by
   each Sirpent router is proportional to the properties of its direct
   connections and not the entire internetwork, unlike standard IP routing
   algorithms such as link state routing which store the entire
   internetwork topology." Grow the internetwork and measure per-router
   state in both architectures, plus route-length figures for VIPER. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let measure ~rng campuses =
  let g, routers, hosts = G.campus_internet ~rng ~campuses ~hosts_per_campus:2 in
  (* IP: run link-state to steady state and read the LSDB *)
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config =
    { Ipbase.Router.routing = Ipbase.Router.Linkstate Ipbase.Linkstate.default_config }
  in
  let ip_routers = Array.map (fun n -> Ipbase.Router.create ~config world ~node:n ()) routers in
  Sim.Engine.run ~until:(Sim.Time.s 3) engine;
  let lsdb_entries, lsdb_bytes =
    match Ipbase.Router.linkstate ip_routers.(0) with
    | Some ls -> (Ipbase.Linkstate.lsdb_entries ls, Ipbase.Linkstate.lsdb_bytes ls)
    | None -> (0, 0)
  in
  (* Sirpent: state is the port map (O(degree)); a route's length grows
     with the path, carried by packets, not routers. *)
  let degree = G.degree g routers.(0) in
  let metric = Util.hop_metric in
  (* a genuinely distant pair: a quarter of the way around the transit
     ring (the chords shortcut the half-way point) *)
  let far_src = hosts.(0) and far_dst = hosts.(max 1 (campuses / 4)) in
  let route =
    Sirpent.Route.of_hops g ~src:far_src
      (Option.get (G.shortest_path g ~metric ~src:far_src ~dst:far_dst))
  in
  ( G.node_count g,
    degree,
    lsdb_entries,
    lsdb_bytes,
    Sirpent.Route.hop_count route,
    Sirpent.Route.header_overhead route )

let run () =
  Util.heading "E12  \xc2\xa72.3 scalability: per-router state vs internetwork size";
  pf "campus internetwork grown from 4 to 32 campuses (2 hosts each).\n\n";
  (* Every campus size simulates its own internetwork to link-state
     steady state — independent worlds, so the grid shards across the
     domain pool; topology RNGs are split from the sweep seed. *)
  let sizes = [ 4; 8; 16; 32 ] in
  let cells, sw =
    Util.sweep sizes ~f:(fun ~rng ~index:_ campuses -> (campuses, measure ~rng campuses))
  in
  let json_rows = ref [] in
  let rows =
    Array.to_list cells
    |> List.map (fun (campuses, (nodes, degree, entries, bytes, hops, hdr)) ->
           json_rows :=
             Util.J.Obj
               [
                 ("campuses", Util.J.Int campuses);
                 ("nodes", Util.J.Int nodes);
                 ("sirpent_state_ports", Util.J.Int degree);
                 ("ip_lsdb_entries", Util.J.Int entries);
                 ("ip_lsdb_bytes", Util.J.Int bytes);
                 ("route_hops", Util.J.Int hops);
                 ("viper_header_bytes", Util.J.Int hdr);
               ]
             :: !json_rows;
           [
             Util.i campuses;
             Util.i nodes;
             Util.i degree;
             Util.i entries;
             Util.i bytes;
             Util.i hops;
             Util.i hdr;
           ])
  in
  Util.table
    ~header:
      [
        "campuses";
        "nodes";
        "sirpent state (ports)";
        "IP LSDB entries";
        "IP LSDB bytes";
        "route hops";
        "VIPER hdr bytes";
      ]
    rows;
  pf "\naddressing: 48 segments (<= %d B of minimal headers) give 255^48 = 2^%.0f\n"
    (48 * 4)
    (48.0 *. (log 255.0 /. log 2.0));
  pf "endpoints with no address-assignment authority: \"the addresses are purely a\n";
  pf "result of the internetwork topology and port assignments\".\n";
  pf "\npaper check: IP per-router state grows linearly with the internetwork while\n";
  pf "the Sirpent router's stays at its port count; the growth moves into the\n";
  pf "packet header, a few bytes per hop, paid only by packets that travel far.\n";
  Util.write_json ~exp:"e12"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e12");
          ("description", Util.J.String "scalability: per-router state vs internetwork size");
          ("rows", Util.J.List (List.rev !json_rows));
        ]
       @ Util.sweep_fields sw))
