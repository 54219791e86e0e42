(* E10 — §2.2 token cache and optimistic authorization: first-packet fate
   under the three miss policies, steady-state hit ratio, and the
   accounting the cache accumulates per account. *)

module G = Topo.Graph

let pf = Printf.printf

let first_packet_experiment policy =
  let config =
    {
      Sirpent.Router.default_config with
      Sirpent.Router.require_tokens = true;
      token_policy = policy;
    }
  in
  let g, engine, _w, h1, h2, routers = Util.sirpent_chain ~config 1 in
  let rnode = Sirpent.Router.node routers.(0) in
  let hops =
    Option.get
      (G.shortest_path g ~metric:Util.hop_metric ~src:(Sirpent.Host.node h1)
         ~dst:(Sirpent.Host.node h2))
  in
  let out_port = (List.nth hops 1).G.out in
  let key = Token.Cipher.random_looking_key rnode in
  let grant =
    {
      Token.Capability.router_id = rnode;
      port = out_port;
      max_priority = 7;
      reverse_ok = true;
      account = 42;
      packet_limit = 0;
      expiry_ms = 0;
    }
  in
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:1 grant) in
  let route =
    Sirpent.Route.of_hops ~tokens:[ tok ] g ~src:(Sirpent.Host.node h1) hops
  in
  let first_arrival = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ ->
      if !first_arrival = 0 then first_arrival := Sim.Engine.now engine);
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 500 'k') ());
  (* follow-up packets after the cache is warm *)
  for k = 1 to 9 do
    Sim.Engine.schedule engine ~delay:(k * Sim.Time.ms 2) (fun () ->
        ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 500 'k') ()))
  done;
  Sim.Engine.run engine;
  let cache = Sirpent.Router.cache routers.(0) in
  let usage = Token.Account.usage (Sirpent.Router.ledger routers.(0)) ~account:42 in
  ( !first_arrival,
    Sirpent.Host.received h2,
    Token.Cache.hits cache,
    Token.Cache.misses cache,
    usage )

let run () =
  Util.heading "E10  \xc2\xa72.2 token cache: optimistic authorization and accounting";
  pf "1 router requiring tokens; 10-packet flow with one valid token;\n";
  pf "verification (decrypt+check) costs 200 us off the fast path.\n\n";
  let rows =
    List.map
      (fun (label, policy) ->
        let first, delivered, hits, misses, usage = first_packet_experiment policy in
        [
          label;
          Util.ms first;
          Util.i delivered;
          Util.i hits;
          Util.i misses;
          Printf.sprintf "%d pkt / %d B" usage.Token.Account.packets usage.Token.Account.bytes;
        ])
      [
        ("optimistic", Token.Cache.Optimistic);
        ("block", Token.Cache.Block);
        ("drop", Token.Cache.Drop);
      ]
  in
  Util.table
    ~header:
      [ "miss policy"; "1st pkt delivery (ms)"; "delivered/10"; "hits"; "misses"; "account 42 charged" ]
    rows;
  pf "\npaper check: optimistic forwards the first packet at full speed and charges\n";
  pf "the rest through the cache; blocking delays the first packet by the\n";
  pf "verification time; drop loses it. Steady state is one miss, then hits.\n"
