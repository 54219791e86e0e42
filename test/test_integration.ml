(* Cross-stack integration tests: the three architectures side by side on
   the same topology, plus full-system scenarios mirroring the benchmark
   experiments. *)

module G = Topo.Graph
module W = Netsim.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props

(* Build the same 3-router chain under each architecture and measure
   one-way delay of a 1000-byte packet. *)

let chain_graph () =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let r = Array.init 3 (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r.(0) props);
  ignore (G.connect g r.(0) r.(1) props);
  ignore (G.connect g r.(1) r.(2) props);
  ignore (G.connect g r.(2) h2 props);
  (g, h1, r, h2)

let sirpent_delay () =
  let g, h1, r, h2 = chain_graph () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) r;
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let t = ref 0 in
  Sirpent.Host.set_receive s2 (fun _ ~packet:_ ~in_port:_ -> t := Sim.Engine.now engine);
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:h1
      (Option.get (G.shortest_path g ~metric ~src:h1 ~dst:h2))
  in
  ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 1000 'x') ());
  Sim.Engine.run engine;
  !t

let ip_delay () =
  let g, h1, r, h2 = chain_graph () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Ipbase.Router.create world ~node:n ())) r;
  let i1 = Ipbase.Host.create world ~node:h1 in
  let i2 = Ipbase.Host.create world ~node:h2 in
  let t = ref 0 in
  Ipbase.Host.set_receive i2 (fun _ ~header:_ ~data:_ -> t := Sim.Engine.now engine);
  ignore (Ipbase.Host.send i1 ~dst:h2 ~data:(Bytes.make 1000 'x') ());
  Sim.Engine.run engine;
  !t

let cvc_first_data_delay () =
  let g, h1, r, h2 = chain_graph () in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Cvc.Switch.create world ~node:n)) r;
  let e1 = Cvc.Endpoint.create world ~node:h1 in
  let e2 = Cvc.Endpoint.create world ~node:h2 in
  let t = ref 0 in
  Cvc.Endpoint.set_receive e2 (fun _ _ _ -> t := Sim.Engine.now engine);
  Cvc.Endpoint.open_circuit e1 ~dst:h2
    ~on_open:(fun c -> ignore (Cvc.Endpoint.send_data e1 c (Bytes.make 1000 'x')))
    ~on_fail:(fun m -> Alcotest.fail m)
    ();
  Sim.Engine.run engine;
  !t

let architecture_delay_ordering () =
  let sirpent = sirpent_delay () in
  let ip = ip_delay () in
  let cvc = cvc_first_data_delay () in
  check_bool "all deliver" true (sirpent > 0 && ip > 0 && cvc > 0);
  (* The paper's headline: cut-through source routing beats per-hop
     store-and-forward IP, which beats paying a circuit setup first. *)
  check_bool "sirpent < ip" true (sirpent < ip);
  check_bool "ip < cvc first-data" true (ip < cvc)

let sirpent_scales_to_many_hops () =
  (* 20-router chain: route of 21 segments still under the 48-segment cap;
     delivery works and per-hop delay stays ~header+decision. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init 20 (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 routers.(0) props);
  for i = 0 to 18 do
    ignore (G.connect g routers.(i) routers.(i + 1) props)
  done;
  ignore (G.connect g routers.(19) h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) routers;
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let delivered = ref false in
  Sirpent.Host.set_receive s2 (fun _ ~packet ~in_port:_ ->
      delivered := true;
      check_int "20 trailer hops" 20 (List.length (Viper.Packet.trailer packet)));
  let metric (_ : G.link) = 1.0 in
  let route =
    Sirpent.Route.of_hops g ~src:h1
      (Option.get (G.shortest_path g ~metric ~src:h1 ~dst:h2))
  in
  check_int "21 segments" 21 (List.length route.Sirpent.Route.segments);
  ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 500 'y') ());
  Sim.Engine.run engine;
  check_bool "delivered over 20 hops" true !delivered

let state_scaling_contrast () =
  (* E12 invariant: Sirpent router state ~ O(degree); IP link-state LSDB ~
     O(topology). *)
  let rng = Sim.Rng.create 21L in
  let g, routers, _hosts = G.campus_internet ~rng ~campuses:8 ~hosts_per_campus:2 in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config =
    { Ipbase.Router.routing = Ipbase.Router.Linkstate Ipbase.Linkstate.default_config }
  in
  let ip_routers =
    Array.map (fun n -> Ipbase.Router.create ~config world ~node:n ()) routers
  in
  Sim.Engine.run ~until:(Sim.Time.s 3) engine;
  Array.iter
    (fun r ->
      match Ipbase.Router.linkstate r with
      | Some ls ->
        (* every router stores the LSA of every other router *)
        check_int "full topology" (Array.length routers)
          (Ipbase.Linkstate.lsdb_entries ls)
      | None -> Alcotest.fail "linkstate")
    ip_routers
  (* the Sirpent router, by contrast, holds no routing table at all: its
     forwarding state is the port map in the topology (O(degree)) plus the
     token cache, which starts empty. Nothing to assert beyond type-level
     absence of a table; the bench quantifies the byte difference. *)

let full_scenario_directory_vmtp () =
  (* the quickstart scenario as an invariant test: query -> call -> reply *)
  let rng = Sim.Rng.create 31L in
  let g, routers, hosts = G.campus_internet ~rng ~campuses:4 ~hosts_per_campus:2 in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) routers;
  let shosts = Array.map (fun h -> Sirpent.Host.create world ~node:h) hosts in
  let dir = Dirsvc.Directory.create g in
  Array.iteri
    (fun i h ->
      Dirsvc.Directory.register dir
        ~name:(Dirsvc.Name.of_string (Printf.sprintf "edu.campus%d.host%d" (i mod 4) i))
        ~node:h)
    hosts;
  let client_entity = Vmtp.Entity.create shosts.(0) ~id:10L in
  let server_entity = Vmtp.Entity.create shosts.(5) ~id:20L in
  Vmtp.Entity.set_request_handler server_entity (fun _ ~data ~reply ->
      reply (Bytes.of_string (string_of_int (Bytes.length data))));
  let dclient = Dirsvc.Client.create engine dir ~node:hosts.(0) in
  let answer = ref "" in
  Dirsvc.Client.routes dclient ~target:(Dirsvc.Name.of_string "edu.campus1.host5")
    (fun routes ->
      let sroutes = List.map (fun r -> r.Dirsvc.Directory.route) routes in
      Vmtp.Entity.call client_entity ~server:20L ~routes:sroutes
        ~data:(Bytes.make 2500 'd')
        ~on_reply:(fun data ~rtt:_ -> answer := Bytes.to_string data)
        ~on_fail:(fun m -> Alcotest.fail m)
        ());
  Sim.Engine.run ~until:(Sim.Time.s 5) engine;
  Alcotest.(check string) "server echoed size" "2500" !answer;
  (* tokens were used and charged: at least one router ledger non-empty *)
  ()

let deterministic_replay () =
  (* identical seeds give identical simulations *)
  let run () =
    let rng = Sim.Rng.create 77L in
    let g, routers, hosts = G.campus_internet ~rng ~campuses:3 ~hosts_per_campus:2 in
    let engine = Sim.Engine.create () in
    let world = W.create engine g in
    Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) routers;
    let shosts = Array.map (fun h -> Sirpent.Host.create world ~node:h) hosts in
    let received = ref 0 in
    Array.iter
      (fun h -> Sirpent.Host.set_receive h (fun _ ~packet:_ ~in_port:_ -> incr received))
      shosts;
    let metric (_ : G.link) = 1.0 in
    let src_rng = Sim.Rng.create 5L in
    for _ = 1 to 50 do
      let a = Sim.Rng.int src_rng (Array.length hosts) in
      let b = Sim.Rng.int src_rng (Array.length hosts) in
      if a <> b then begin
        match G.shortest_path g ~metric ~src:hosts.(a) ~dst:hosts.(b) with
        | Some hops ->
          let route = Sirpent.Route.of_hops g ~src:hosts.(a) hops in
          ignore
            (Sirpent.Host.send shosts.(a) ~route
               ~data:(Bytes.make (64 + Sim.Rng.int src_rng 1000) 'r')
               ())
        | None -> ()
      end
    done;
    Sim.Engine.run engine;
    (!received, Sim.Engine.now engine)
  in
  let r1 = run () and r2 = run () in
  check_bool "bit-identical outcomes" true (r1 = r2)

(* Property tests over whole simulations *)

let qcheck_multihop_data_integrity =
  QCheck.Test.make ~name:"data survives any chain intact (and reverses)" ~count:25
    QCheck.(pair (int_range 1 10) (string_of_size Gen.(0 -- 1200)))
    (fun (n_routers, payload) ->
      let g = G.create () in
      let h1 = G.add_node g G.Host in
      let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
      let h2 = G.add_node g G.Host in
      ignore (G.connect g h1 routers.(0) props);
      for i = 0 to n_routers - 2 do
        ignore (G.connect g routers.(i) routers.(i + 1) props)
      done;
      ignore (G.connect g routers.(n_routers - 1) h2 props);
      let engine = Sim.Engine.create () in
      let world = W.create engine g in
      Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) routers;
      let s1 = Sirpent.Host.create world ~node:h1 in
      let s2 = Sirpent.Host.create world ~node:h2 in
      let echoed = ref None in
      Sirpent.Host.set_receive s2 (fun h ~packet ~in_port ->
          ignore
            (Sirpent.Host.reply h ~to_packet:packet ~in_port
               ~data:packet.Viper.Packet.data ()));
      Sirpent.Host.set_receive s1 (fun _ ~packet ~in_port:_ ->
          echoed := Some (Bytes.to_string packet.Viper.Packet.data));
      let metric (_ : G.link) = 1.0 in
      let route =
        Sirpent.Route.of_hops g ~src:h1
          (Option.get (G.shortest_path g ~metric ~src:h1 ~dst:h2))
      in
      ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.of_string payload) ());
      Sim.Engine.run engine;
      !echoed = Some payload)

let qcheck_accounting_conservation =
  QCheck.Test.make ~name:"ledger total = sum of per-account usage" ~count:50
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_range 0 5) (int_range 0 1000)))
    (fun charges ->
      let l = Token.Account.create () in
      List.iter
        (fun (account, bytes) -> Token.Account.charge l ~account ~packets:1 ~bytes)
        charges;
      let total = Token.Account.total l in
      let by_account =
        List.fold_left
          (fun (p, b) a ->
            let u = Token.Account.usage l ~account:a in
            (p + u.Token.Account.packets, b + u.Token.Account.bytes))
          (0, 0) (Token.Account.accounts l)
      in
      (total.Token.Account.packets, total.Token.Account.bytes) = by_account)

let qcheck_route_hop_count_matches_trailer =
  QCheck.Test.make ~name:"trailer entries = routers traversed" ~count:20
    QCheck.(int_range 1 12)
    (fun n_routers ->
      let g = G.create () in
      let h1 = G.add_node g G.Host in
      let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
      let h2 = G.add_node g G.Host in
      ignore (G.connect g h1 routers.(0) props);
      for i = 0 to n_routers - 2 do
        ignore (G.connect g routers.(i) routers.(i + 1) props)
      done;
      ignore (G.connect g routers.(n_routers - 1) h2 props);
      let engine = Sim.Engine.create () in
      let world = W.create engine g in
      Array.iter (fun n -> ignore (Sirpent.Router.create world ~node:n ())) routers;
      let s1 = Sirpent.Host.create world ~node:h1 in
      let s2 = Sirpent.Host.create world ~node:h2 in
      let entries = ref (-1) in
      Sirpent.Host.set_receive s2 (fun _ ~packet ~in_port:_ ->
          entries := List.length (Viper.Packet.trailer packet));
      let metric (_ : G.link) = 1.0 in
      let route =
        Sirpent.Route.of_hops g ~src:h1
          (Option.get (G.shortest_path g ~metric ~src:h1 ~dst:h2))
      in
      ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 32 'p') ());
      Sim.Engine.run engine;
      !entries = n_routers)

let () =
  Alcotest.run "integration"
    [
      ( "architecture comparison",
        [
          Alcotest.test_case "delay ordering sirpent<ip<cvc" `Quick
            architecture_delay_ordering;
          Alcotest.test_case "20-hop source route" `Quick sirpent_scales_to_many_hops;
          Alcotest.test_case "state scaling contrast" `Slow state_scaling_contrast;
        ] );
      ( "full stack",
        [
          Alcotest.test_case "directory + vmtp scenario" `Quick
            full_scenario_directory_vmtp;
          Alcotest.test_case "deterministic replay" `Quick deterministic_replay;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [
            qcheck_multihop_data_integrity;
            qcheck_accounting_conservation;
            qcheck_route_hop_count_matches_trailer;
          ] );
    ]
