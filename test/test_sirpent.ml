(* Integration tests for the Sirpent core: routers, hosts, cut-through
   timing, tokens on the data path, multicast, logical links, congestion
   control. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props

(* A host-R1-...-Rn-host chain; returns world pieces. *)
let chain ?config ?(props = props) n_routers =
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
  let router_objs =
    Array.map (fun r -> Sirpent.Router.create ?config world ~node:r ()) routers
  in
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  (g, engine, world, host1, host2, router_objs)

(* Run the engine dry; then every packet the world originated has been
   delivered or given a fate. *)
let run_dry engine w =
  Sim.Engine.run engine;
  check_int "every packet delivered or given a fate" 0 (W.conservation w)

let metric (_ : G.link) = 1.0

let route_between g ~src ~dst =
  match G.shortest_path g ~metric ~src ~dst with
  | Some hops -> Sirpent.Route.of_hops g ~src hops
  | None -> Alcotest.fail "no path"

let delivery_end_to_end () =
  let g, engine, w, h1, h2, _ = chain 3 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let got = ref None in
  Sirpent.Host.set_receive h2 (fun _ ~packet ~in_port:_ -> got := Some packet);
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.of_string "hello sirpent") ());
  run_dry engine w;
  match !got with
  | None -> Alcotest.fail "not delivered"
  | Some p ->
    Alcotest.(check string) "data" "hello sirpent" (Bytes.to_string p.Viper.Packet.data);
    check_int "trailer hops = routers" 3 (List.length (Viper.Packet.trailer p))

let reply_via_trailer () =
  let g, engine, w, h1, h2, routers = chain 4 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let reply_data = ref None in
  Sirpent.Host.set_receive h2 (fun h ~packet ~in_port ->
      ignore (Sirpent.Host.reply h ~to_packet:packet ~in_port ~data:(Bytes.of_string "pong") ()));
  Sirpent.Host.set_receive h1 (fun _ ~packet ~in_port:_ ->
      reply_data := Some (Bytes.to_string packet.Viper.Packet.data));
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.of_string "ping") ());
  run_dry engine w;
  Alcotest.(check (option string)) "pong" (Some "pong") !reply_data;
  (* each router forwarded twice: once per direction *)
  Array.iter
    (fun r -> check_int "forwarded both ways" 2 (Sirpent.Router.stats r).Sirpent.Router.forwarded)
    routers

(* A packet that cannot be answered gets an [Error] from [reply]: nothing
   raises out of the receive callback and no flight starts. One packet
   a router truncated, and one whose trailer holds 48 hops, so its reply
   would carry one segment more than a route may. *)
let reply_refuses_unanswerable () =
  let g, engine, world, h1, h2, _ = chain 1 in
  Telemetry.Flight.set_policy (W.flight world)
    { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 16 };
  let parsed b =
    match Viper.Packet.parse b with Ok p -> p | Error _ -> Alcotest.fail "must parse"
  in
  let p =
    Viper.Packet.build ~route:[ Seg.make ~port:1 (); Seg.make ~port:0 () ]
      ~data:(Bytes.make 100 'd')
  in
  let truncated = parsed (Viper.Packet.truncate_to p ~off:0 ~len:(Bytes.length p) ~max:50) in
  let hop = Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:1 () in
  let long =
    parsed
      (List.fold_left
         (fun b _ -> Viper.Trailer.append_hop b ~pos:0 hop)
         (Viper.Packet.build ~route:[ Seg.make ~port:0 () ] ~data:(Bytes.of_string "far"))
         (List.init 48 Fun.id))
  in
  check_int "48 trailer hops" 48 (List.length (Viper.Packet.trailer long));
  let results = ref [] in
  Sirpent.Host.set_receive h2 (fun h ~packet:_ ~in_port ->
      results :=
        List.map
          (fun to_packet ->
            Sirpent.Host.reply h ~to_packet ~in_port ~data:(Bytes.of_string "no") ())
          [ truncated; long ]);
  let replies = ref 0 in
  Sirpent.Host.set_receive h1 (fun _ ~packet:_ ~in_port:_ -> incr replies);
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.of_string "ask") ());
  run_dry engine world;
  check_int "both replies tried" 2 (List.length !results);
  check_bool "both are errors" true (List.for_all Result.is_error !results);
  check_int "no handler raised" 0 (W.total_handler_errors world);
  check_int "only the request's flight" 1 (Telemetry.Flight.started (W.flight world));
  check_int "nothing came back" 0 !replies

let cut_through_beats_store_and_forward () =
  (* Same 5-router chain; cut-through vs forced store-and-forward. *)
  let run config =
    let g, engine, w, h1, h2, _ = chain ?config 5 in
    let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
    let arrival = ref 0 in
    Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> arrival := Sim.Engine.now engine);
    ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 1000 'x') ());
    run_dry engine w;
    !arrival
  in
  let cut = run None in
  let sf =
    run
      (Some
         { Sirpent.Router.default_config with Sirpent.Router.store_and_forward = true })
  in
  check_bool "both delivered" true (cut > 0 && sf > 0);
  (* Store-and-forward pays ~1 packet time (~800us at 10 Mb/s) per hop. *)
  check_bool "cut-through at least 3x faster over 5 hops" true (sf > 3 * cut)

(* The paper's delay decomposition (§6.1), exactly, in integer ns: one
   packet through an unloaded chain of 1-8 routers whose links share one
   random rate. A cut-through router starts forwarding once the leading
   segment has arrived and the 500 ns switching decision is made; one
   forced to store and forward waits for the whole packet plus 50 us of
   processing. The receiving host acts on the packet's tail. Each hop's
   wire length comes from the codec: the leading segment stripped and its
   return hop appended to the trailer. *)
let qcheck_delay_decomposition =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 and* rate = int_range 1_000_000 1_000_000_000 in
      let* props = list_repeat (n + 1) (int_range 0 2_000_000) in
      let* infos = list_repeat n (int_range 0 16) in
      let* size = int_range 0 1000 and* store_and_forward = bool in
      return (rate, Array.of_list props, Array.of_list infos, size, store_and_forward))
  in
  QCheck.Test.make ~name:"cut-through and store-and-forward delay decomposition" ~count:300
    (QCheck.make gen) (fun (rate, prop, infos, size, store_and_forward) ->
      let n = Array.length infos in
      let g = G.create () in
      let h1 = G.add_node g G.Host in
      let routers = Array.init n (fun _ -> G.add_node g G.Router) in
      let h2 = G.add_node g G.Host in
      let nodes = Array.concat [ [| h1 |]; routers; [| h2 |] ] in
      (* link i joins nodes.(i) and nodes.(i + 1) *)
      let ports =
        Array.init (n + 1) (fun i ->
            G.connect g nodes.(i) nodes.(i + 1)
              { props with G.bandwidth_bps = rate; propagation = prop.(i) })
      in
      let engine = Sim.Engine.create () in
      let world = W.create engine g in
      let config = { Sirpent.Router.default_config with Sirpent.Router.store_and_forward } in
      Array.iter
        (fun node -> ignore (Sirpent.Router.create ~config world ~node ()))
        routers;
      let src = Sirpent.Host.create world ~node:h1 in
      let dst = Sirpent.Host.create world ~node:h2 in
      let segments =
        List.init n (fun i ->
            Seg.make ~info:(Bytes.make infos.(i) 'i') ~port:(fst ports.(i + 1)) ())
        @ [ Seg.make ~port:Seg.local_port () ]
      in
      let data = Bytes.make size 'd' in
      let arrived = ref None in
      Sirpent.Host.set_receive dst (fun _ ~packet ~in_port:_ ->
          arrived := Some (Sim.Engine.now engine, packet.Viper.Packet.len));
      ignore
        (Sirpent.Host.send src
           ~route:{ Sirpent.Route.first_port = fst ports.(0); segments }
           ~data ());
      Sim.Engine.run engine;
      let tx bytes = Sim.Time.transmission ~bits:(8 * bytes) ~rate_bps:rate in
      (* [start]: when the packet's head leaves on link [i], whose wire
         bytes are [wire], the rest of the route being [route] *)
      let rec expect i ~start ~wire ~route =
        match route with
        | [ _local ] -> (start + prop.(i) + tx (Bytes.length wire), Bytes.length wire)
        | seg :: rest ->
          let hdr = Seg.encoded_size seg in
          let next =
            if store_and_forward then
              start + tx (Bytes.length wire) + prop.(i) + Sim.Time.us 50
            else start + prop.(i) + tx hdr + Sim.Time.ns 500
          in
          let return_hop =
            Seg.return_hop seg ~port:(snd ports.(i)) ~token:seg.Seg.token ~info:seg.Seg.info
          in
          expect (i + 1) ~start:next
            ~wire:(Viper.Trailer.append_hop wire ~pos:hdr return_hop)
            ~route:rest
        | [] -> assert false
      in
      !arrived
      = Some (expect 0 ~start:0 ~wire:(Viper.Packet.build ~route:segments ~data) ~route:segments))

let store_and_forward_when_rates_differ () =
  (* Mixed rates force the fallback. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and r = G.add_node g G.Router and h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r props);
  ignore (G.connect g r h2 { props with G.bandwidth_bps = 100_000_000 });
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Sirpent.Router.create world ~node:r () in
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  Sirpent.Host.set_receive host2 (fun _ ~packet:_ ~in_port:_ -> ());
  let route = route_between g ~src:h1 ~dst:h2 in
  ignore (Sirpent.Host.send host1 ~route ~data:(Bytes.make 100 'x') ());
  Sim.Engine.run engine;
  let st = Sirpent.Router.stats router in
  check_int "no cut-through" 0 st.Sirpent.Router.cut_throughs;
  check_int "stored instead" 1 st.Sirpent.Router.stored_forwards

let token_required_rejects_bare () =
  let config =
    { Sirpent.Router.default_config with Sirpent.Router.require_tokens = true }
  in
  let g, engine, w, h1, h2, routers = chain ~config 1 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.of_string "no token") ());
  run_dry engine w;
  check_int "nothing delivered" 0 (Sirpent.Host.received h2);
  check_int "counted unauthorized" 1
    (Sirpent.Router.stats routers.(0)).Sirpent.Router.unauthorized

let token_valid_admits_and_accounts () =
  let config =
    { Sirpent.Router.default_config with Sirpent.Router.require_tokens = true }
  in
  let g, engine, w, h1, h2, routers = chain ~config 1 in
  let rnode = Sirpent.Router.node routers.(0) in
  let hops = Option.get (G.shortest_path g ~metric ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)) in
  let out_port = (List.nth hops 1).G.out in
  let key = Token.Cipher.random_looking_key rnode in
  let grant =
    {
      Token.Capability.router_id = rnode;
      port = out_port;
      max_priority = 7;
      reverse_ok = true;
      account = 777;
      packet_limit = 0;
      expiry_ms = 0;
    }
  in
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:1 grant) in
  let route = Sirpent.Route.of_hops ~tokens:[ tok ] g ~src:(Sirpent.Host.node h1) hops in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  (* two packets: first is an optimistic miss, second hits the cache *)
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 100 'a') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.ms 10) (fun () ->
      ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 100 'b') ()));
  run_dry engine w;
  check_int "both delivered" 2 (Sirpent.Host.received h2);
  let ledger = Sirpent.Router.ledger routers.(0) in
  let usage = Token.Account.usage ledger ~account:777 in
  check_bool "second packet charged via cache" true (usage.Token.Account.packets >= 1)

let forged_token_blocked_after_verification () =
  let config =
    { Sirpent.Router.default_config with Sirpent.Router.require_tokens = true }
  in
  let g, engine, w, h1, h2, routers = chain ~config 1 in
  let hops = Option.get (G.shortest_path g ~metric ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)) in
  let bad = Token.Capability.to_bytes (Token.Capability.forged ()) in
  let route = Sirpent.Route.of_hops ~tokens:[ bad ] g ~src:(Sirpent.Host.node h1) hops in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  (* Optimistic: the first packet slips through, then the cache denies. *)
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 10 'x') ());
  for i = 1 to 5 do
    Sim.Engine.schedule engine ~delay:(i * Sim.Time.ms 5) (fun () ->
        ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 10 'x') ()))
  done;
  run_dry engine w;
  check_int "only the optimistic packet leaked" 1 (Sirpent.Host.received h2);
  check_bool "rest unauthorized" true
    ((Sirpent.Router.stats routers.(0)).Sirpent.Router.unauthorized >= 4)

(* Optimistic admission forwards a forged token's packet at once; the
   background verification then fails. That is counted on its own row,
   not as a fate: the packet was delivered. *)
let forged_token_failed_verification_counted () =
  let g, engine, w, h1, h2, routers = chain 1 in
  let src = Sirpent.Host.node h1 in
  let hops = Option.get (G.shortest_path g ~metric ~src ~dst:(Sirpent.Host.node h2)) in
  let bad = Token.Capability.to_bytes (Token.Capability.forged ()) in
  let route = Sirpent.Route.of_hops ~tokens:[ bad ] g ~src hops in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 10 'x') ());
  run_dry engine w;
  let st = Sirpent.Router.stats routers.(0) in
  check_int "forwarded once" 1 st.Sirpent.Router.forwarded;
  check_int "delivered" 1 (Sirpent.Host.received h2);
  check_int "failed verification counted once" 1
    (Telemetry.Merge.counter_value
       ~labels:[ ("node", string_of_int (Sirpent.Router.node routers.(0))) ]
       (Telemetry.Registry.snapshot (W.metrics w))
       "router_verify_failures")

let block_policy_defers () =
  let config =
    {
      Sirpent.Router.default_config with
      Sirpent.Router.require_tokens = true;
      token_policy = Token.Cache.Block;
    }
  in
  let g, engine, w, h1, h2, routers = chain ~config 1 in
  let rnode = Sirpent.Router.node routers.(0) in
  let hops = Option.get (G.shortest_path g ~metric ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)) in
  let out_port = (List.nth hops 1).G.out in
  let key = Token.Cipher.random_looking_key rnode in
  let grant =
    {
      Token.Capability.router_id = rnode;
      port = out_port;
      max_priority = 7;
      reverse_ok = true;
      account = 1;
      packet_limit = 0;
      expiry_ms = 0;
    }
  in
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:1 grant) in
  let route = Sirpent.Route.of_hops ~tokens:[ tok ] g ~src:(Sirpent.Host.node h1) hops in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 10 'x') ());
  run_dry engine w;
  check_int "delivered after deferral" 1 (Sirpent.Host.received h2);
  check_int "was deferred" 1 (Sirpent.Router.stats routers.(0)).Sirpent.Router.deferred

(* The router's token verdicts as one matrix: each miss policy against
   each token case. A case sends its frames over a one-router chain, each
   after the last has run dry, and judges the last one: its delivery, the
   router counters it moved, the background verifications that failed,
   the token note on its span at the router, and its fate. *)
let token_verdict_matrix () =
  let module R = Sirpent.Router in
  let module Flight = Telemetry.Flight in
  (* the chain's router reaches h1 on port 1 and h2 on port 2 *)
  let in_port = 1 and out_port = 2 in
  let mint rnode ~port =
    Token.Capability.to_bytes
      (Token.Capability.mint (Token.Cipher.random_looking_key rnode) ~nonce:1
         {
           Token.Capability.router_id = rnode;
           port;
           max_priority = 7;
           reverse_ok = true;
           account = 1;
           packet_limit = 0;
           expiry_ms = 0;
         })
  in
  let bare _ = Seg.make ~port:out_port () in
  let valid rnode = Seg.make ~token:(mint rnode ~port:out_port) ~port:out_port () in
  let forged _ =
    Seg.make ~token:(Token.Capability.to_bytes (Token.Capability.forged ())) ~port:out_port ()
  in
  (* a reply's hop (RPF): its token names the port it arrives on *)
  let reverse rnode =
    Seg.make
      ~flags:{ Seg.no_flags with Seg.rpf = true }
      ~token:(mint rnode ~port:in_port) ~port:out_port ()
  in
  let unauthorized = Some Flight.Unauthorized in
  (* name, require_tokens, segment, frames sent,
     (delivered, forwarded, unauthorized, deferred, verify failures,
      token note, fate) of the last frame, per policy *)
  let cases =
    let passes note = (1, 1, 0, 0, 0, note, None) in
    let denied = (0, 0, 1, 0, 0, Flight.Denied, unauthorized) in
    [
      ( "bare, tokens optional", false, bare, 1,
        fun (_ : Token.Cache.miss_policy) -> passes Flight.No_token );
      ("bare, tokens required", true, bare, 1, fun _ -> denied);
      ( "valid, cold", false, valid, 1,
        function
        | Token.Cache.Optimistic -> passes Flight.Cache_miss
        | Block -> (1, 1, 0, 1, 0, Flight.Cache_miss, None)
        | Drop -> denied );
      ("valid, warm", false, valid, 2, fun _ -> passes Flight.Cache_hit);
      ( "forged", true, forged, 1,
        function
        | Token.Cache.Optimistic -> (1, 1, 0, 0, 1, Flight.Cache_miss, None)
        | Block -> (0, 0, 1, 1, 0, Flight.Denied, unauthorized)
        | Drop -> (0, 0, 1, 0, 1, Flight.Denied, unauthorized) );
      ( "reverse, cold", false, reverse, 1,
        function
        | Token.Cache.Optimistic -> passes Flight.Cache_miss
        | Block -> (1, 1, 0, 1, 0, Flight.Cache_miss, None)
        | Drop -> denied );
      ("reverse, warm", false, reverse, 2, fun _ -> passes Flight.Cache_hit);
    ]
  in
  let judge (policy, policy_name) (name, require_tokens, seg, frames, expect) =
    let delivered, forwarded, unauth, deferred, failures, note, fate = expect policy in
    let config = { R.default_config with R.require_tokens; token_policy = policy } in
    let _, engine, w, h1, h2, routers = chain ~config 1 in
    let r = routers.(0) in
    let rnode = R.node r in
    Flight.set_policy (W.flight w)
      { Flight.sample_every = 1; capture_drops = true; capacity = 16 };
    let route =
      {
        Sirpent.Route.first_port = 1;
        segments = [ seg rnode; Seg.make ~port:Seg.local_port () ];
      }
    in
    let send () =
      ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 32 'v') ());
      run_dry engine w
    in
    let verify_failures () =
      Telemetry.Merge.counter_value
        ~labels:[ ("node", string_of_int rnode) ]
        (Telemetry.Registry.snapshot (W.metrics w))
        "router_verify_failures"
    in
    for _ = 2 to frames do
      send ()
    done;
    let before = R.stats r
    and received = Sirpent.Host.received h2
    and failed = verify_failures () in
    send ();
    let after = R.stats r in
    let cell what = Printf.sprintf "%s, %s: %s" policy_name name what in
    let moved f = f after - f before in
    check_int (cell "delivered") delivered (Sirpent.Host.received h2 - received);
    check_int (cell "forwarded") forwarded (moved (fun s -> s.R.forwarded));
    check_int (cell "unauthorized") unauth (moved (fun s -> s.R.unauthorized));
    check_int (cell "deferred") deferred (moved (fun s -> s.R.deferred));
    check_int (cell "verify failures") failures (verify_failures () - failed);
    let last = List.nth (Flight.flights (W.flight w)) (frames - 1) in
    let at_router = List.find (fun s -> s.Flight.node = rnode) last.Flight.spans in
    Alcotest.(check string)
      (cell "token note") (Flight.token_name note)
      (Flight.token_name at_router.Flight.token);
    Alcotest.(check (option string))
      (cell "fate")
      (Option.map Flight.fate_name fate)
      (Option.map Flight.fate_name last.Flight.dropped)
  in
  List.iter
    (fun policy -> List.iter (judge policy) cases)
    [
      (Token.Cache.Optimistic, "optimistic"); (Token.Cache.Block, "block");
      (Token.Cache.Drop, "drop");
    ]

let dib_dropped_when_blocked () =
  (* Two senders into one output port; second frame arrives while busy. *)
  let g = G.create () in
  let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let hc = G.add_node g G.Host in
  ignore (G.connect g ha r props);
  ignore (G.connect g hb r props);
  ignore (G.connect g r hc props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let host_a = Sirpent.Host.create world ~node:ha in
  let host_b = Sirpent.Host.create world ~node:hb in
  let host_c = Sirpent.Host.create world ~node:hc in
  Sirpent.Host.set_receive host_c (fun _ ~packet:_ ~in_port:_ -> ());
  let route_a = route_between g ~src:ha ~dst:hc in
  let route_b = route_between g ~src:hb ~dst:hc in
  (* Big packet from A occupies the port; DIB packet from B must drop. *)
  ignore (Sirpent.Host.send host_a ~route:route_a ~data:(Bytes.make 1400 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 300) (fun () ->
      ignore
        (Sirpent.Host.send host_b ~route:route_b ~drop_if_blocked:true
           ~data:(Bytes.make 1400 'B') ()));
  run_dry engine world;
  check_int "only A delivered" 1 (Sirpent.Host.received host_c)

let preemption_by_priority_7 () =
  let g = G.create () in
  let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let hc = G.add_node g G.Host in
  ignore (G.connect g ha r props);
  ignore (G.connect g hb r props);
  ignore (G.connect g r hc props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let host_a = Sirpent.Host.create world ~node:ha in
  let host_b = Sirpent.Host.create world ~node:hb in
  let host_c = Sirpent.Host.create world ~node:hc in
  let received_first = ref "" in
  Sirpent.Host.set_receive host_c (fun _ ~packet ~in_port:_ ->
      if !received_first = "" then
        received_first := String.make 1 (Bytes.get packet.Viper.Packet.data 0));
  let route_a = route_between g ~src:ha ~dst:hc in
  let route_b = route_between g ~src:hb ~dst:hc in
  (* A's low-priority bulk transfer is in flight; B's priority-7 packet
     preempts it mid-transmission. *)
  ignore (Sirpent.Host.send host_a ~route:route_a ~data:(Bytes.make 1400 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 400) (fun () ->
      ignore
        (Sirpent.Host.send host_b ~route:route_b ~priority:7
           ~data:(Bytes.make 100 'B') ()));
  run_dry engine world;
  Alcotest.(check string) "urgent first" "B" !received_first;
  (* A's packet was killed in flight: only B arrives. *)
  check_int "one delivery" 1 (Sirpent.Host.received host_c)

(* A cuts through the first router before its tail has left the host;
   then a priority-7 packet from the same host, bound elsewhere,
   preempts A on the host's own link. The preemption marks only the
   transmission it cut short: the router forwarded A on a record of its
   own, not the one the host's link still held, so A arrives. *)
let upstream_preemption_marks_only_its_link () =
  let g = G.create () in
  let ha = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let hc = G.add_node g G.Host and hd = G.add_node g G.Host in
  ignore (G.connect g ha r1 props);
  ignore (G.connect g r1 r2 props);
  ignore (G.connect g r2 hc props);
  ignore (G.connect g r1 hd props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let host_a = Sirpent.Host.create world ~node:ha in
  let host_c = Sirpent.Host.create world ~node:hc in
  let host_d = Sirpent.Host.create world ~node:hd in
  ignore
    (Sirpent.Host.send host_a ~route:(route_between g ~src:ha ~dst:hc)
       ~data:(Bytes.make 1400 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 400) (fun () ->
      ignore
        (Sirpent.Host.send host_a ~route:(route_between g ~src:ha ~dst:hd) ~priority:7
           ~data:(Bytes.make 100 'B') ()));
  run_dry engine world;
  check_int "A was preempted on the host's link" 1
    (W.port_stats world ~node:ha ~port:1).W.preempted;
  check_int "B delivered" 1 (Sirpent.Host.received host_d);
  check_int "the copy cut through ahead of the preemption arrives" 1
    (Sirpent.Host.received host_c)

let broadcast_port_copies () =
  (* hub router with 3 leaf hosts; broadcast from one reaches the others *)
  let g = G.create () in
  let r = G.add_node g G.Router in
  let hosts = Array.init 3 (fun _ -> G.add_node g G.Host) in
  Array.iter (fun h -> ignore (G.connect g r h props)) hosts;
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let shosts = Array.map (fun h -> Sirpent.Host.create world ~node:h) hosts in
  Array.iter (fun h -> Sirpent.Host.set_receive h (fun _ ~packet:_ ~in_port:_ -> ())) shosts;
  (* route: to router, then broadcast port, then local at receivers *)
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Seg.make ~port:Seg.broadcast_port ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  ignore (Sirpent.Host.send shosts.(0) ~route ~data:(Bytes.of_string "bcast") ());
  run_dry engine world;
  check_int "other two got it" 1 (Sirpent.Host.received shosts.(1));
  check_int "other two got it (2)" 1 (Sirpent.Host.received shosts.(2));
  check_int "sender did not" 0 (Sirpent.Host.received shosts.(0))

let group_port_copies () =
  let g = G.create () in
  let r = G.add_node g G.Router in
  let hosts = Array.init 4 (fun _ -> G.add_node g G.Host) in
  let ports = Array.map (fun h -> fst (G.connect g r h props)) hosts in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Sirpent.Router.create world ~node:r () in
  (* group port 240 -> hosts 1 and 2 only *)
  Sirpent.Router.set_port router ~port:240 (Members [ ports.(1); ports.(2) ]);
  let shosts = Array.map (fun h -> Sirpent.Host.create world ~node:h) hosts in
  Array.iter (fun h -> Sirpent.Host.set_receive h (fun _ ~packet:_ ~in_port:_ -> ())) shosts;
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments = [ Seg.make ~port:240 (); Seg.make ~port:Seg.local_port () ];
    }
  in
  ignore (Sirpent.Host.send shosts.(0) ~route ~data:(Bytes.of_string "grp") ());
  run_dry engine world;
  check_int "host1" 1 (Sirpent.Host.received shosts.(1));
  check_int "host2" 1 (Sirpent.Host.received shosts.(2));
  check_int "host3 not in group" 0 (Sirpent.Host.received shosts.(3))

let tree_multicast_splits () =
  (* r has two downstream hosts; a tree segment carries both branches *)
  let g = G.create () in
  let h0 = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let h1 = G.add_node g G.Host and h2 = G.add_node g G.Host in
  ignore (G.connect g h0 r props);
  let p1 = fst (G.connect g r h1 props) in
  let p2 = fst (G.connect g r h2 props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let s0 = Sirpent.Host.create world ~node:h0 in
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  Sirpent.Host.set_receive s1 (fun _ ~packet:_ ~in_port:_ -> ());
  Sirpent.Host.set_receive s2 (fun _ ~packet:_ ~in_port:_ -> ());
  let branch p = [ Seg.make ~port:p (); Seg.make ~port:Seg.local_port () ] in
  let tree = Viper.Multicast.tree_segment ~branches:[ branch p1; branch p2 ] () in
  let route = { Sirpent.Route.first_port = 1; segments = [ tree ] } in
  ignore (Sirpent.Host.send s0 ~route ~data:(Bytes.of_string "tree") ());
  run_dry engine world;
  check_int "branch 1" 1 (Sirpent.Host.received s1);
  check_int "branch 2" 1 (Sirpent.Host.received s2)

let logical_group_balances () =
  (* Two parallel trunks between r1 and r2 behind one logical port. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and r1 = G.add_node g G.Router in
  let r2 = G.add_node g G.Router and h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r1 props);
  let t1 = fst (G.connect g r1 r2 props) in
  let t2 = fst (G.connect g r1 r2 props) in
  let p_out = fst (G.connect g r2 h2 props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router1 = Sirpent.Router.create world ~node:r1 () in
  ignore (Sirpent.Router.create world ~node:r2 ());
  let logical_port = 100 in
  Sirpent.Router.set_port router1 ~port:logical_port (Group [ t1; t2 ]);
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  Sirpent.Host.set_receive s2 (fun _ ~packet:_ ~in_port:_ -> ());
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Seg.make ~port:logical_port ();
          Seg.make ~port:p_out ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  (* burst of 6 back-to-back packets: they should spread over both trunks *)
  for _ = 1 to 6 do
    ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 1200 'z') ())
  done;
  run_dry engine world;
  check_int "all delivered" 6 (Sirpent.Host.received s2);
  let sent p = (W.port_stats world ~node:r1 ~port:p).W.sent_frames in
  check_bool "both trunks used" true (sent t1 > 0 && sent t2 > 0)

let logical_splice_expands () =
  (* r1 maps logical port 100 to the 2-hop physical route to h2. *)
  let g, engine, world, h1, h2, routers = chain 3 in
  ignore world;
  let r1 = routers.(0) in
  let hops =
    Option.get
      (G.shortest_path g ~metric ~src:(Sirpent.Router.node r1)
         ~dst:(Sirpent.Host.node h2))
  in
  let expansion = List.map (fun h -> Seg.make ~port:h.G.out ()) hops in
  Sirpent.Router.set_port r1 ~port:100 (Splice expansion);
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments = [ Seg.make ~port:100 (); Seg.make ~port:Seg.local_port () ];
    }
  in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.of_string "spliced") ());
  run_dry engine world;
  check_int "delivered through expansion" 1 (Sirpent.Host.received h2);
  check_int "splice counted" 1 (Sirpent.Router.stats r1).Sirpent.Router.spliced

(* All four port roles on one router, one packet to each: a trunk
   group, a splice, a multicast group and a custom handler. Two ports
   are set twice, and the later role is the one used. *)
let port_roles_on_one_router () =
  let module R = Sirpent.Router in
  let g = G.create () in
  let h0 = G.add_node g G.Host and r1 = G.add_node g G.Router in
  let r2 = G.add_node g G.Router in
  let hs = Array.init 4 (fun _ -> G.add_node g G.Host) in
  ignore (G.connect g h0 r1 props);
  let to_h = Array.map (fun h -> fst (G.connect g r1 h props)) (Array.sub hs 0 3) in
  let t1 = fst (G.connect g r1 r2 props) in
  let t2 = fst (G.connect g r1 r2 props) in
  let r2_out = fst (G.connect g r2 hs.(3) props) in
  let engine = Sim.Engine.create () in
  let w = W.create engine g in
  let router = R.create w ~node:r1 () in
  ignore (R.create w ~node:r2 ());
  let src = Sirpent.Host.create w ~node:h0 in
  let dsts = Array.map (fun h -> Sirpent.Host.create w ~node:h) hs in
  Array.iter (fun h -> Sirpent.Host.set_receive h (fun _ ~packet:_ ~in_port:_ -> ())) dsts;
  let handled = ref 0 in
  let rejects what port role =
    match R.set_port router ~port role with
    | () -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let handler = R.Handler (fun ~buf:_ ~off:_ ~len:_ ~hdr:_ ~in_port:_ -> incr handled; true) in
  rejects "a handler on port 0" 0 handler;
  rejects "a handler on a group port" Seg.multicast_port_first handler;
  rejects "members on an ordinary port" 239 (R.Members [ to_h.(1) ]);
  rejects "members on the tree port" Viper.Multicast.tree_port (R.Members [ to_h.(1) ]);
  rejects "an empty group" 100 (R.Group []);
  rejects "an empty splice" 101 (R.Splice []);
  rejects "a group on port 0" 0 (R.Group [ t1 ]);
  rejects "a splice past 255" 256 (R.Splice [ Seg.make ~port:to_h.(0) () ]);
  (* the first role set on 101 and 240 is replaced before any packet *)
  R.set_port router ~port:101 (R.Group [ t1; t2 ]);
  R.set_port router ~port:240 (R.Members [ to_h.(0) ]);
  R.set_port router ~port:100 (R.Group [ t1; t2 ]);
  R.set_port router ~port:101 (R.Splice [ Seg.make ~port:to_h.(0) () ]);
  R.set_port router ~port:240 (R.Members [ to_h.(1); to_h.(2) ]);
  R.set_port router ~port:102 handler;
  let send ports =
    let route =
      {
        Sirpent.Route.first_port = 1;
        segments = List.map (fun port -> Seg.make ~port ()) (ports @ [ Seg.local_port ]);
      }
    in
    ignore (Sirpent.Host.send src ~route ~data:(Bytes.of_string "role") ())
  in
  send [ 100; r2_out ];
  send [ 101 ];
  send [ 240 ];
  send [ 102 ];
  run_dry engine w;
  let received i = Sirpent.Host.received dsts.(i) in
  let st = R.stats router in
  check_int "splice delivered" 1 (received 0);
  check_int "splice counted" 1 st.R.spliced;
  check_int "group members got one each" 2 (received 1 + received 2);
  check_int "multicast copies" 2 st.R.multicast_copies;
  check_int "trunk group delivered" 1 (received 3);
  let sent p = (W.port_stats w ~node:r1 ~port:p).W.sent_frames in
  check_int "one trunk used once" 1 (sent t1 + sent t2);
  check_int "handler took its packet" 1 !handled;
  check_int "handler's packet handed off, not dropped" 0
    (W.fate_count w Telemetry.Flight.Malformed);
  check_int "forwarded: trunk, splice, two copies" 4 st.R.forwarded

let mtu_truncation_detected () =
  (* Second link has a small MTU; the packet is truncated and marked. *)
  let g = G.create () in
  let h1 = G.add_node g G.Host and r = G.add_node g G.Router and h2 = G.add_node g G.Host in
  ignore (G.connect g h1 r props);
  ignore (G.connect g r h2 { props with G.mtu = 256 });
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let s1 = Sirpent.Host.create world ~node:h1 in
  let s2 = Sirpent.Host.create world ~node:h2 in
  let truncated = ref false and wire_len = ref 0 in
  Sirpent.Host.set_receive s2 (fun _ ~packet ~in_port:_ ->
      truncated := Viper.Packet.truncated packet;
      wire_len := packet.Viper.Packet.len);
  let route = route_between g ~src:h1 ~dst:h2 in
  ignore (Sirpent.Host.send s1 ~route ~data:(Bytes.make 1000 'x') ());
  Sim.Engine.run engine;
  check_bool "receiver sees truncation" true !truncated;
  (* the truncation marker and its fresh trailer fit inside the MTU *)
  check_bool "truncated frame fits the MTU" true (!wire_len > 0 && !wire_len <= 256)

let congestion_backpressure_reduces_loss () =
  (* Two hosts blast a shared 1.5 Mb/s trunk. With rate control ON the
     routers hold packets upstream instead of overflowing the trunk queue. *)
  let run congestion =
    let g = G.create () in
    let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
    let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
    let hc = G.add_node g G.Host in
    ignore (G.connect g ha r1 props);
    ignore (G.connect g hb r1 props);
    let trunk = fst (G.connect g r1 r2 { props with G.bandwidth_bps = 1_500_000 }) in
    ignore (G.connect g r2 hc props);
    let engine = Sim.Engine.create () in
    let world = W.create engine g in
    (* small trunk buffer to surface overflow quickly *)
    W.set_buffer_bytes world ~node:r1 ~port:trunk (16 * 1024);
    let config = { Sirpent.Router.default_config with Sirpent.Router.congestion } in
    ignore (Sirpent.Router.create ~config world ~node:r1 ());
    ignore (Sirpent.Router.create ~config world ~node:r2 ());
    let sa = Sirpent.Host.create world ~node:ha in
    let sb = Sirpent.Host.create world ~node:hb in
    let sc = Sirpent.Host.create world ~node:hc in
    Sirpent.Host.set_receive sc (fun _ ~packet:_ ~in_port:_ -> ());
    let route_a = route_between g ~src:ha ~dst:hc in
    let route_b = route_between g ~src:hb ~dst:hc in
    (* each host sends 1000-byte packets every 1 ms = 8 Mb/s each *)
    let rec blast host route n t =
      if n > 0 then
        Sim.Engine.schedule_at engine ~time:t (fun () ->
            ignore (Sirpent.Host.send host ~route ~data:(Bytes.make 1000 'c') ());
            blast host route (n - 1) (t + Sim.Time.ms 1))
    in
    blast sa route_a 200 (Sim.Time.ms 1);
    blast sb route_b 200 (Sim.Time.ms 1);
    Sim.Engine.run ~until:(Sim.Time.s 3) engine;
    let st = W.port_stats world ~node:r1 ~port:trunk in
    (st.W.dropped_overflow, Sirpent.Host.received sc)
  in
  let drops_off, _ = run None in
  let drops_on, received_on = run (Some Sirpent.Congestion.default_config) in
  check_bool "uncontrolled overflows" true (drops_off > 0);
  check_bool "backpressure prevents most overflow" true (drops_on * 4 < drops_off);
  check_bool "still delivers" true (received_on > 100)

let congestion_ctl_messages_flow () =
  let g = G.create () in
  let ha = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let hc = G.add_node g G.Host in
  ignore (G.connect g ha r1 props);
  ignore (G.connect g r1 r2 { props with G.bandwidth_bps = 500_000 });
  ignore (G.connect g r2 hc props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let config =
    {
      Sirpent.Router.default_config with
      Sirpent.Router.congestion = Some Sirpent.Congestion.default_config;
    }
  in
  let router1 = Sirpent.Router.create ~config world ~node:r1 () in
  ignore (Sirpent.Router.create ~config world ~node:r2 ());
  let sa = Sirpent.Host.create world ~node:ha in
  let sc = Sirpent.Host.create world ~node:hc in
  Sirpent.Host.set_receive sc (fun _ ~packet:_ ~in_port:_ -> ());
  let route = route_between g ~src:ha ~dst:hc in
  let rec blast n t =
    if n > 0 then
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          ignore (Sirpent.Host.send sa ~route ~data:(Bytes.make 1000 'c') ());
          blast (n - 1) (t + Sim.Time.us 500))
  in
  blast 300 (Sim.Time.ms 1);
  Sim.Engine.run ~until:(Sim.Time.s 2) engine;
  match Sirpent.Router.congestion router1 with
  | None -> Alcotest.fail "congestion enabled"
  | Some c ->
    check_bool "router under congestion signals upstream" true
      (Sirpent.Congestion.ctl_sent c > 0);
    (* host saw the signal *)
    check_bool "host received rate signal" true
      (Sirpent.Congestion.limiters (Sirpent.Host.limiter sa) > 0)

let delay_line_recirculates () =
  (* Bufferless switch: a blocked packet circulates the delay line and is
     transmitted when the port frees; the output queue is never used. *)
  let config =
    {
      Sirpent.Router.default_config with
      Sirpent.Router.blocked =
        Sirpent.Router.Delay_line { delay = Sim.Time.us 100; max_circuits = 50 };
    }
  in
  let g = G.create () in
  let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let hc = G.add_node g G.Host in
  ignore (G.connect g ha r props);
  ignore (G.connect g hb r props);
  let out_port = fst (G.connect g r hc props) in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Sirpent.Router.create ~config world ~node:r () in
  let host_a = Sirpent.Host.create world ~node:ha in
  let host_b = Sirpent.Host.create world ~node:hb in
  let host_c = Sirpent.Host.create world ~node:hc in
  Sirpent.Host.set_receive host_c (fun _ ~packet:_ ~in_port:_ -> ());
  let route_a = route_between g ~src:ha ~dst:hc in
  let route_b = route_between g ~src:hb ~dst:hc in
  let max_queue = ref 0.0 in
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 500) (fun () ->
      max_queue := (W.port_stats world ~node:r ~port:out_port).W.max_queue);
  ignore (Sirpent.Host.send host_a ~route:route_a ~data:(Bytes.make 1400 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 300) (fun () ->
      ignore (Sirpent.Host.send host_b ~route:route_b ~data:(Bytes.make 200 'B') ()));
  run_dry engine world;
  check_int "both delivered" 2 (Sirpent.Host.received host_c);
  check_bool "packet circulated" true
    ((Sirpent.Router.stats router).Sirpent.Router.delay_line_circuits > 0);
  check_bool "queue never used" true (!max_queue = 0.0)

let delay_line_drops_after_max_circuits () =
  let config =
    {
      Sirpent.Router.default_config with
      Sirpent.Router.blocked =
        Sirpent.Router.Delay_line { delay = Sim.Time.us 50; max_circuits = 3 };
    }
  in
  let g = G.create () in
  let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let hc = G.add_node g G.Host in
  ignore (G.connect g ha r props);
  ignore (G.connect g hb r props);
  ignore (G.connect g r hc props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Sirpent.Router.create ~config world ~node:r () in
  let host_a = Sirpent.Host.create world ~node:ha in
  let host_b = Sirpent.Host.create world ~node:hb in
  let host_c = Sirpent.Host.create world ~node:hc in
  Sirpent.Host.set_receive host_c (fun _ ~packet:_ ~in_port:_ -> ());
  (* A's 1400 B packet occupies the port for 1.12 ms; B's packet can only
     circulate 3 x 50 us and must be dropped *)
  ignore (Sirpent.Host.send host_a ~route:(route_between g ~src:ha ~dst:hc) ~data:(Bytes.make 1400 'A') ());
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
      ignore
        (Sirpent.Host.send host_b ~route:(route_between g ~src:hb ~dst:hc)
           ~data:(Bytes.make 200 'B') ()));
  run_dry engine world;
  check_int "only A delivered" 1 (Sirpent.Host.received host_c);
  check_int "3 circuits" 3 (Sirpent.Router.stats router).Sirpent.Router.delay_line_circuits;
  check_bool "then dropped" true ((Sirpent.Router.stats router).Sirpent.Router.send_drops > 0)

let multicast_agent_explodes () =
  (* Â§2 third mechanism: route to an agent which re-sends along its
     configured routes. *)
  let g = G.create () in
  let src = G.add_node g G.Host in
  let r = G.add_node g G.Router in
  let agent = G.add_node g G.Host in
  let m1 = G.add_node g G.Host and m2 = G.add_node g G.Host in
  ignore (G.connect g src r props);
  ignore (G.connect g r agent props);
  ignore (G.connect g r m1 props);
  ignore (G.connect g r m2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r ());
  let h_src = Sirpent.Host.create world ~node:src in
  let h_agent = Sirpent.Host.create world ~node:agent in
  let h_m1 = Sirpent.Host.create world ~node:m1 in
  let h_m2 = Sirpent.Host.create world ~node:m2 in
  Sirpent.Host.set_receive h_m1 (fun _ ~packet:_ ~in_port:_ -> ());
  Sirpent.Host.set_receive h_m2 (fun _ ~packet:_ ~in_port:_ -> ());
  let member_routes =
    [ route_between g ~src:agent ~dst:m1; route_between g ~src:agent ~dst:m2 ]
  in
  Sirpent.Host.set_receive h_agent (fun h ~packet ~in_port:_ ->
      let sent =
        Sirpent.Host.explode h ~routes:member_routes ~data:packet.Viper.Packet.data ()
      in
      check_int "agent sent both copies" 2 sent);
  ignore
    (Sirpent.Host.send h_src
       ~route:(route_between g ~src ~dst:agent)
       ~data:(Bytes.of_string "to the group") ());
  run_dry engine world;
  check_int "member 1" 1 (Sirpent.Host.received h_m1);
  check_int "member 2" 1 (Sirpent.Host.received h_m2)

let multihomed_host_survives_interface_failure () =
  (* Â§2.2: "the host interface can fail and cause the communication to
     fail even though the host may still be reachable through a separate
     host interface" — Sirpent's source routes name the interface, so the
     client just uses a route over its other port. *)
  let g = G.create () in
  let client = G.add_node g G.Host and server = G.add_node g G.Host in
  let ra = G.add_node g G.Router and rb = G.add_node g G.Router in
  ignore (G.connect g client ra props) (* client port 1 *);
  ignore (G.connect g client rb props) (* client port 2 *);
  ignore (G.connect g ra server props);
  ignore (G.connect g rb server props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:ra ());
  ignore (Sirpent.Router.create world ~node:rb ());
  let h_client = Sirpent.Host.create world ~node:client in
  let h_server = Sirpent.Host.create world ~node:server in
  Sirpent.Host.set_receive h_server (fun _ ~packet:_ ~in_port:_ -> ());
  let paths = G.k_shortest_paths g ~metric ~src:client ~dst:server ~k:2 in
  let routes = List.map (fun p -> Sirpent.Route.of_hops g ~src:client p) paths in
  let via_port p = List.find (fun r -> r.Sirpent.Route.first_port = p) routes in
  (* kill the client's first interface *)
  (match G.link_via g client 1 with
  | Some l -> W.fail_link world l
  | None -> Alcotest.fail "interface");
  (* a route over the dead interface fails at the host... *)
  (match Sirpent.Host.send h_client ~route:(via_port 1) ~data:(Bytes.make 10 'x') () with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "expected interface failure");
  (* ...but the same host delivers over its second interface *)
  ignore (Sirpent.Host.send h_client ~route:(via_port 2) ~data:(Bytes.make 10 'y') ());
  Sim.Engine.run engine;
  check_int "delivered via second interface" 1 (Sirpent.Host.received h_server)

let misrouted_packet_counted () =
  (* Deliver a packet whose final segment is not local: host counts it. *)
  let g, engine, w, h1, h2, _ = chain 1 in
  let hops = Option.get (G.shortest_path g ~metric ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)) in
  (* Build a route whose last segment names port 5 instead of local. *)
  let segments =
    match Sirpent.Route.of_hops g ~src:(Sirpent.Host.node h1) hops with
    | { Sirpent.Route.segments; first_port } ->
      let rec replace_last = function
        | [] -> []
        | [ _ ] -> [ Seg.make ~port:5 () ]
        | s :: rest -> s :: replace_last rest
      in
      { Sirpent.Route.first_port; segments = replace_last segments }
  in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> ());
  ignore (Sirpent.Host.send h1 ~route:segments ~data:(Bytes.of_string "stray") ());
  run_dry engine w;
  check_int "not accepted" 0 (Sirpent.Host.received h2);
  check_int "counted misdelivered" 1 (Sirpent.Host.misdelivered h2)

(* A packet whose route ends at a router is delivered there when intact
   and is a malformed drop when one bit of its trailer is flipped. The
   VIPER packet already carries a return hop and crosses one router,
   which moves it on in place without reading that entry, so only the
   destination's arrival check can catch the damage. The XSR packet has
   taken its one hop already; its trailer is the reverse lane that hop
   recorded. *)
let router_local_delivery () =
  let run ~xsr ~damaged =
    let g, engine, world, h1, _h2, routers = chain 2 in
    let src = Sirpent.Host.node h1 in
    let dst = routers.(if xsr then 0 else 1) in
    let route = route_between g ~src ~dst:(Sirpent.Router.node dst) in
    let data = Bytes.of_string "for the router" in
    (* the buffer, the packet's length in it, and its trailer's first byte *)
    let buf, len, trailer_at =
      if xsr then begin
        let b = Viper.Xsr.encode ~ports:[ 9 ] ~data () in
        (match Viper.Xsr.step b ~in_port:4 with
        | Viper.Xsr.Forward _ -> ()
        | Viper.Xsr.Deliver | Viper.Xsr.Malformed _ -> Alcotest.fail "xsr step");
        (b, Bytes.length b, 14)
      end
      else begin
        let segments = route.Sirpent.Route.segments in
        let p = Viper.Packet.build ~route:(Seg.make ~port:9 () :: segments) ~data in
        let return_seg = Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:4 () in
        let _, p = Viper.Packet.forward p ~return_seg in
        let n = Bytes.length p in
        (* room for the router's hop, so that it runs in place *)
        ( Bytes.extend p 0 (Viper.Packet.tailroom segments),
          n,
          n - Viper.Trailer.size_in p ~off:0 ~len:n )
      end
    in
    if damaged then
      Bytes.set buf trailer_at (Char.chr (Char.code (Bytes.get buf trailer_at) lxor 0x04));
    let flight = W.originate world in
    let frame = { (W.fresh_frame world ?flight buf) with Netsim.Frame.len } in
    ignore (W.send world ~node:src ~port:route.Sirpent.Route.first_port frame);
    run_dry engine world;
    check_int "no handler raised" 0 (W.total_handler_errors world);
    let delivered =
      Array.fold_left
        (fun n r -> n + (Sirpent.Router.stats r).Sirpent.Router.delivered_local)
        0 routers
    in
    let at_dst = Sirpent.Router.stats dst in
    (delivered, at_dst.Sirpent.Router.delivered_local, at_dst.Sirpent.Router.dropped_malformed)
  in
  List.iter
    (fun xsr ->
      let name = if xsr then "xsr" else "viper" in
      Alcotest.(check (triple int int int))
        (name ^ " intact: delivered at its router") (1, 1, 0) (run ~xsr ~damaged:false);
      Alcotest.(check (triple int int int))
        (name ^ " trailer bit flipped: malformed drop") (0, 0, 1)
        (run ~xsr ~damaged:true))
    [ false; true ]

(* The router's share of one steady-state XSR hop — parse, the switching
   decision, the act step's scheduling — measured around the frame
   handler alone, as the ledger's router span does: the XSR step's
   [Forward] (2 words) and nothing else. The act step is a slot in the
   router's slab, posted as an event of its kind: no closure, no event
   record. No option boxes from link lookups, no decision tuple. The
   ceiling sits one word above the measured 2 words. *)
let xsr_hop_allocation () =
  let g, engine, world, h1, h2, routers = chain 1 in
  let router = routers.(0) in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let received = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let handle = Sirpent.Router.handle_frame router in
  let warmup = 100 and measured = 2_000 in
  let frames = ref 0 and words = ref 0 in
  W.set_handler world (Sirpent.Router.node router) (fun w ~in_port ~frame ~head ~tail ->
      let w0 = int_of_float (Gc.minor_words ()) in
      handle w ~in_port ~frame ~head ~tail;
      let w1 = int_of_float (Gc.minor_words ()) in
      incr frames;
      if !frames > warmup then words := !words + (w1 - w0));
  let data = Bytes.make 64 'd' in
  let left = ref (warmup + measured) in
  (* one packet per millisecond: every hop finds its ports idle *)
  let rec tick () =
    if !left > 0 then begin
      decr left;
      ignore (Sirpent.Host.send_xsr h1 ~route ~data ());
      Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) tick
    end
  in
  tick ();
  run_dry engine world;
  check_int "every packet delivered" (warmup + measured) !received;
  let per_frame = float_of_int !words /. float_of_int measured in
  if per_frame > 3.0 then
    Alcotest.failf "an XSR hop allocated %.1f words in the router (ceiling 3)"
      per_frame

(* The VIPER side of a steady-state hop, measured the same way: the
   router's words per frame (the strip and the return hop written in
   place, the act step) and the host's words per [Host.send] (one build
   with tailroom, frame, the first link's transmission record). The
   segment carries no token, so authorization must allocate nothing,
   and the act step is data in the router's slab: the router allocates
   no word. The ceilings sit one and three words above the measured 0
   and 30 words. *)
let viper_hop_allocation () =
  let g, engine, world, h1, h2, routers = chain 1 in
  let router = routers.(0) in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let received = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let handle = Sirpent.Router.handle_frame router in
  let warmup = 100 and measured = 2_000 in
  let frames = ref 0 and words = ref 0 and sends = ref 0 and send_words = ref 0 in
  W.set_handler world (Sirpent.Router.node router) (fun w ~in_port ~frame ~head ~tail ->
      let w0 = int_of_float (Gc.minor_words ()) in
      handle w ~in_port ~frame ~head ~tail;
      let w1 = int_of_float (Gc.minor_words ()) in
      incr frames;
      if !frames > warmup then words := !words + (w1 - w0));
  let data = Bytes.make 64 'd' in
  let left = ref (warmup + measured) in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      let w0 = int_of_float (Gc.minor_words ()) in
      ignore (Sirpent.Host.send h1 ~route ~data ());
      let w1 = int_of_float (Gc.minor_words ()) in
      incr sends;
      if !sends > warmup then send_words := !send_words + (w1 - w0);
      Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) tick
    end
  in
  tick ();
  run_dry engine world;
  check_int "every packet delivered" (warmup + measured) !received;
  let per_frame = float_of_int !words /. float_of_int measured in
  let per_send = float_of_int !send_words /. float_of_int measured in
  if per_frame > 1.0 then
    Alcotest.failf "a VIPER hop allocated %.1f words in the router (ceiling 1)"
      per_frame;
  if per_send > 33.0 then
    Alcotest.failf "a VIPER Host.send allocated %.1f words (ceiling 33)" per_send

(* ---- events as data ---- *)

(* [packets] 64 B packets over host-R1-R2-R3-host, one a millisecond, so
   every port is idle when a frame reaches it; the generator re-arms
   itself with one closure event per packet but the first. Returns the
   engine's executed count per event kind. *)
let kind_counts ?config ~xsr ~packets () =
  let g, engine, world, h1, h2, routers = chain ?config 3 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let received = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let data = Bytes.make 64 'd' in
  let sent = ref 0 in
  let rec tick () =
    incr sent;
    ignore
      (if xsr then Sirpent.Host.send_xsr h1 ~route ~data ()
       else Sirpent.Host.send h1 ~route ~data ());
    if !sent < packets then Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) tick
  in
  tick ();
  run_dry engine world;
  check_int "every packet delivered" packets !received;
  let count = Sim.Engine.executed_kind engine in
  [
    ("deliveries", count (W.delivery_kind world));
    ("completions", count (W.completion_kind world));
    ( "act steps",
      Array.fold_left (fun n r -> n + count (Sirpent.Router.act_kind r)) 0 routers );
    ("arrivals", count (Sirpent.Host.arrival_kind h2));
    ("arrivals at the sender", count (Sirpent.Host.arrival_kind h1));
    ("closures", count Sim.Engine.closure_kind);
    ("all", Sim.Engine.executed engine);
  ]

(* Per packet, a 3-router chain runs exactly 4 deliveries (one per
   link), 3 act steps (one per router) and 1 arrival, and no completion
   while its ports are idle, on VIPER and on XSR alike. The only closure
   events are not per hop: the generator's re-arms and, once routers run
   congestion control, their monitors' ticks, at most one per router per
   [Congestion.check_interval] of traffic. Two runs count the same. *)
let event_kinds_per_packet () =
  let packets = 200 in
  let get counts name = List.assoc name counts in
  List.iter
    (fun xsr ->
      let arm = if xsr then "XSR" else "VIPER" in
      let counts = kind_counts ~xsr ~packets () in
      let expect name n = check_int (arm ^ ": " ^ name) n (get counts name) in
      expect "deliveries" (4 * packets);
      expect "completions" 0;
      expect "act steps" (3 * packets);
      expect "arrivals" packets;
      expect "arrivals at the sender" 0;
      expect "closures" (packets - 1);
      expect "all" (8 * packets + packets - 1);
      Alcotest.(check (list (pair string int)))
        (arm ^ ": a second run counts the same") counts (kind_counts ~xsr ~packets ());
      let config =
        { Sirpent.Router.default_config with
          Sirpent.Router.congestion = Some Sirpent.Congestion.default_config }
      in
      let counts = kind_counts ~config ~xsr ~packets () in
      let ticks = get counts "closures" - (packets - 1) in
      let bound = 3 * ((packets * Sim.Time.ms 1 / Sirpent.Congestion.check_interval) + 2) in
      if ticks < 1 || ticks > bound then
        Alcotest.failf "%s: %d monitor ticks under congestion control (1 to %d expected)" arm
          ticks bound;
      check_int (arm ^ ": per-hop events unchanged under congestion control")
        (8 * packets)
        (get counts "deliveries" + get counts "act steps" + get counts "arrivals"
       + get counts "completions"))
    [ false; true ]

(* What a packet allocates end to end, [Host.send] to the sink's
   receive, over host-R1-R2-R3-host with the fan-in workload's links
   (10^15 b/s, so each frame is whole before its act step and goes on
   in place), 10 000 packets, flight recorder off: minor words per
   delivered packet. Measured (OCaml 5.1): 80.0 words. [Host.send] is
   33.0 of them: the VIPER build with tailroom for three return hops
   (15), the packet's one [Frame.t] (9) and the first link's
   [transmission] record (9). The three routers add a [transmission]
   each (27) and nothing else. The sink's parse of the packet it hands
   to [on_receive], and this test's own boxed floats, are the last 20.
   The per-hop events allocate nothing: a delivery's payload is the
   sending port's id, an act step's a slot in the router's slab, the
   arrival's a slot in the host's. A closure per act step would add
   3 x 12 words, one per delivery 4 x 9, one per arrival 6. The
   ceilings sit a few words above the readings. *)
let chain_packet_allocation () =
  let props = { G.bandwidth_bps = 1_000_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 } in
  let g, engine, world, h1, h2, _ = chain ~props 3 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let received = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let data = Bytes.make 64 'd' in
  let left = ref 0 and send_words = ref 0.0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      let w0 = Gc.minor_words () in
      ignore (Sirpent.Host.send h1 ~route ~data ());
      send_words := !send_words +. (Gc.minor_words () -. w0);
      Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) tick
    end
  in
  (* warm-up: slabs, rings and heaps reach their working size *)
  left := 100;
  tick ();
  run_dry engine world;
  let packets = 10_000 in
  received := 0;
  left := packets;
  send_words := 0.0;
  Sim.Engine.schedule engine ~delay:1 tick;
  let w0 = Gc.minor_words () in
  run_dry engine world;
  let words = Gc.minor_words () -. w0 in
  check_int "every packet delivered" packets !received;
  let per_packet = words /. float_of_int packets in
  let per_send = !send_words /. float_of_int packets in
  if per_send > 35.0 then Alcotest.failf "Host.send allocated %.1f words (ceiling 35)" per_send;
  if per_packet > 84.0 then
    Alcotest.failf "a packet over three routers allocated %.1f words (ceiling 84)" per_packet

(* Nothing keeps a frame alive once its packet has arrived: the routers'
   act slots, the ports' wires and the hosts' arrival slots are cleared
   when their events fire. Weak pointers to every frame the middle
   router saw are all empty after a full collection. *)
let[@inline never] weak_frames_of_a_run () =
  let props = { G.bandwidth_bps = 1_000_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 } in
  let g, engine, world, h1, h2, routers = chain ~props 3 in
  let route = route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  let received = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let packets = 50 in
  let seen = Weak.create packets and n = ref 0 in
  let middle = routers.(1) in
  let handle = Sirpent.Router.handle_frame middle in
  W.set_handler world (Sirpent.Router.node middle) (fun w ~in_port ~frame ~head ~tail ->
      Weak.set seen !n (Some frame);
      incr n;
      handle w ~in_port ~frame ~head ~tail);
  let data = Bytes.make 64 'd' in
  for i = 0 to packets - 1 do
    Sim.Engine.schedule_at engine ~time:(i * Sim.Time.us 3) (fun () ->
        ignore (Sirpent.Host.send h1 ~route ~data ()))
  done;
  run_dry engine world;
  check_int "every packet delivered" packets !received;
  check_int "the middle router saw every frame" packets !n;
  (seen, world)

let frames_released_after_arrival () =
  let seen, world = weak_frames_of_a_run () in
  Gc.full_major ();
  for i = 0 to Weak.length seen - 1 do
    check_bool (Printf.sprintf "frame %d collected" i) false (Weak.check seen i)
  done;
  ignore (Sys.opaque_identity world)

(* ---- drop reasons ---- *)

(* Every fate, one case each: the world's count of that fate moves by
   one; where the fate has a router row, the router's counter moves by
   one, both in [stats] and in its [router_*] row of the world's
   registry; exactly one flight ends, in a drop span carrying the fate at
   the node that lost the packet; and every packet originated is
   delivered or given a fate. Hosts a and b feed router r, whose port 3
   leads to host c. *)
let drop_reasons_match_scoreboard () =
  let module R = Sirpent.Router in
  let module Flight = Telemetry.Flight in
  let route ports =
    {
      Sirpent.Route.first_port = 1;
      segments = List.map (fun port -> Seg.make ~port ()) (ports @ [ Seg.local_port ]);
    }
  in
  let to_c = route [ 3 ] in
  let raw w h payload =
    let flight = W.originate w in
    ignore (W.send w ~node:(Sirpent.Host.node h) ~port:1 (W.fresh_frame w ?flight payload))
  in
  let damaged_xsr () =
    let b = Viper.Xsr.encode ~ports:[ 3 ] ~data:(Bytes.make 8 'x') () in
    Bytes.set b 6 (Char.chr (Char.code (Bytes.get b 6) lxor 1));
    b
  in
  let send h ?priority ?drop_if_blocked ~route n =
    let data = Bytes.make n 'd' in
    ignore (Sirpent.Host.send h ~route ?priority ?drop_if_blocked ~data ())
  in
  let send_xsr h n =
    ignore (Sirpent.Host.send_xsr h ~route:to_c ~data:(Bytes.make n 'x') ())
  in
  let later engine us f = Sim.Engine.schedule engine ~delay:(Sim.Time.us us) f in
  let require_tokens = { R.default_config with R.require_tokens = true } in
  let store_and_forward = { R.default_config with R.store_and_forward = true } in
  let malformed = Some ("dropped_malformed", fun s -> s.R.dropped_malformed) in
  let send_drops = Some ("send_drops", fun s -> s.R.send_drops) in
  (* where the packet is lost: the router, host a or host c *)
  let at_r (_, r, _) = r and at_a (a, _, _) = a and at_c (_, _, c) = c in
  let cases =
    [
      ( "viper malformed", R.default_config, Flight.Malformed, malformed, at_r,
        fun w _ _ a _ -> raw w a (Bytes.of_string "\005") );
      ( "xsr malformed", R.default_config, Flight.Malformed, malformed, at_r,
        fun w _ _ a _ -> raw w a (damaged_xsr ()) );
      ( "xsr over mtu", R.default_config, Flight.Truncated,
        Some ("truncated", fun s -> s.R.truncated), at_r,
        fun _ _ _ a _ -> send_xsr a 1600 );
      ( "xsr without token", require_tokens, Flight.Unauthorized,
        Some ("unauthorized", fun s -> s.R.unauthorized), at_r,
        fun _ _ _ a _ -> send_xsr a 64 );
      ( "router down", R.default_config, Flight.Down,
        Some ("dropped_down", fun s -> s.R.dropped_down), at_r,
        fun _ _ r a _ -> R.crash r; send a ~route:to_c 64 );
      ( "unknown group", R.default_config, Flight.Parse_error,
        Some ("parse_errors", fun s -> s.R.parse_errors), at_r,
        fun _ _ _ a _ -> send a ~route:(route [ 241 ]) 64 );
      ( "blocked", R.default_config, Flight.Send_drop, send_drops, at_r,
        fun _ engine _ a b ->
          send b ~route:to_c 1400;
          later engine 300 (fun () -> send a ~drop_if_blocked:true ~route:to_c 1400) );
      (* a's packet is switched on to c at once; b's priority-7 packet
         preempts it on r's port 3 after its head reached c, so c finds
         a runt at the tail *)
      ( "host aborted", R.default_config, Flight.Aborted, None, at_c,
        fun _ engine _ a b ->
          send a ~route:to_c 1400;
          later engine 300 (fun () -> send b ~priority:7 ~route:to_c 64) );
      ( "misdelivered", R.default_config, Flight.Misdelivered, None, at_c,
        fun _ _ _ a _ -> send a ~route:(route [ 3; 7 ]) 64 );
      ( "host send refused", R.default_config, Flight.Send_drop, None, at_a,
        fun _ _ _ a _ ->
          send a ~route:to_c 1400;
          send a ~drop_if_blocked:true ~route:to_c 64 );
      (* a's own priority-7 packet preempts its first one 1 us in, before
         that one's head crosses the 5 us link *)
      ( "preempted before head", R.default_config, Flight.Preempted, None, at_a,
        fun _ engine _ a _ ->
          send a ~route:to_c 1400;
          later engine 1 (fun () -> send a ~priority:7 ~route:to_c 64) );
      ( "purged", R.default_config, Flight.Purged, None, at_a,
        fun w engine _ a _ ->
          send a ~route:to_c 1400;
          later engine 1 (fun () ->
              ignore (W.purge_node w ~node:(Sirpent.Host.node a))) );
      (* the packet's tail reaches r at ~97 us and r would act 50 us
         later; r crashes in between *)
      ( "crash-voided", store_and_forward, Flight.Purged, None, at_r,
        fun _ engine r a _ ->
          send a ~route:to_c 100;
          later engine 120 (fun () -> R.crash r) );
      (* r's port 1 leads to a; with its other links down, a broadcast
         from a has no port to go to *)
      ( "zero-port broadcast", R.default_config, Flight.Send_drop, send_drops, at_r,
        fun w _ r a _ ->
          List.iter
            (fun (port, l) -> if port <> 1 then W.fail_link w l)
            (G.ports (W.graph w) (R.node r));
          send a ~route:(route [ Seg.broadcast_port ]) 64 );
    ]
  in
  List.iter
    (fun (name, config, fate, row, where, act) ->
      let g = G.create () in
      let ha = G.add_node g G.Host and hb = G.add_node g G.Host in
      let r = G.add_node g G.Router in
      let hc = G.add_node g G.Host in
      ignore (G.connect g ha r props);
      ignore (G.connect g hb r props);
      ignore (G.connect g r hc props);
      let engine = Sim.Engine.create () in
      let w = W.create engine g in
      Flight.set_policy (W.flight w)
        { Flight.sample_every = 1; capture_drops = true; capacity = 64 };
      let router = R.create ~config w ~node:r () in
      let a = Sirpent.Host.create w ~node:ha and b = Sirpent.Host.create w ~node:hb in
      ignore (Sirpent.Host.create w ~node:hc);
      let cell row =
        Telemetry.Merge.counter_value ~labels:[ ("node", string_of_int r) ]
          (Telemetry.Registry.snapshot (W.metrics w))
          ("router_" ^ row)
      in
      let rows_before =
        Option.map (fun (row, counter) -> (counter (R.stats router), cell row)) row
      in
      let fates_before = W.fate_count w fate in
      act w engine router a b;
      Sim.Engine.run engine;
      check_int (name ^ ": fate count +1") (fates_before + 1) (W.fate_count w fate);
      (match (row, rows_before) with
      | Some (row, counter), Some (before, cell_before) ->
        check_int (name ^ ": counter +1") (before + 1) (counter (R.stats router));
        check_int (name ^ ": registry row +1") (cell_before + 1) (cell row)
      | _ -> ());
      check_int (name ^ ": every packet accounted") 0 (W.conservation w);
      let name_of = Option.map Flight.fate_name in
      let expected = Some (Flight.fate_name fate) in
      match List.filter (fun f -> f.Flight.dropped <> None) (Flight.flights (W.flight w)) with
      | [ f ] -> (
        Alcotest.(check (option string)) (name ^ ": flight fate") expected
          (name_of f.Flight.dropped);
        match List.rev f.Flight.spans with
        | last :: _ ->
          Alcotest.(check (option string)) (name ^ ": drop span") expected
            (name_of last.Flight.drop);
          check_int (name ^ ": dropped where it was lost") (where (ha, r, hc))
            last.Flight.node
        | [] -> Alcotest.failf "%s: no spans" name)
      | fs -> Alcotest.failf "%s: %d dropped flights" name (List.length fs))
    cases

(* ---- packets kept past their delivery ---- *)

(* A receiver may keep the packets it is handed — VMTP keeps a request
   to answer a duplicate over its trailer, the fan-in sink replays one
   trailer in 64 — while later traffic reuses the routers that wrote
   them in place. Four feeders send VIPER and XSR packets of random sizes
   through two routers to two sinks; the second sink's link has a 200 B
   MTU, so long VIPER packets arrive truncated, and some packets go to a
   port group that copies them to both sinks. Every sink keeps every
   packet with what it read on arrival; after the run, each must read the
   same, and each complete return route must lead back to its sender. *)
let qcheck_kept_packets_survive =
  let send_gen =
    QCheck.Gen.(
      let* feeder = int_range 0 3 and* xsr = int_range 0 3 in
      let* dest = int_range 0 2 and* size = int_range 4 400 in
      let* gap = int_range 0 3000 in
      return (feeder, xsr = 0, dest, size, gap))
  in
  QCheck.Test.make ~name:"kept packets read the same after later traffic" ~count:25
    (QCheck.make QCheck.Gen.(list_size (int_range 20 120) send_gen))
    (fun sends ->
      let g = G.create () in
      let feeders = Array.init 4 (fun _ -> G.add_node g G.Host) in
      let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
      let sinks = [| G.add_node g G.Host; G.add_node g G.Host |] in
      let first = Array.map (fun f -> fst (G.connect g f r1 props)) feeders in
      let r1_out, _ = G.connect g r1 r2 props in
      let r2_out =
        [|
          fst (G.connect g r2 sinks.(0) props);
          fst (G.connect g r2 sinks.(1) { props with G.mtu = 200 });
        |]
      in
      let engine = Sim.Engine.create () in
      let world = W.create engine g in
      ignore (Sirpent.Router.create world ~node:r1 ());
      let router2 = Sirpent.Router.create world ~node:r2 () in
      Sirpent.Router.set_port router2 ~port:240 (Members (Array.to_list r2_out));
      let hosts = Array.map (fun node -> Sirpent.Host.create world ~node) feeders in
      let kept = ref [] in
      Array.iter
        (fun node ->
          let sink = Sirpent.Host.create world ~node in
          Sirpent.Host.set_receive sink (fun _ ~packet ~in_port ->
              let snapshot =
                ( Bytes.sub packet.Viper.Packet.wire packet.Viper.Packet.off
                    packet.Viper.Packet.len,
                  Bytes.copy packet.Viper.Packet.data,
                  Viper.Packet.return_route_r packet )
              in
              kept := (node, in_port, packet, snapshot) :: !kept))
        sinks;
      let time = ref 0 in
      List.iteri
        (fun n (feeder, xsr, dest, size, gap) ->
          time := !time + gap;
          let data = Bytes.make size 'd' in
          Bytes.set_int32_le data 0 (Int32.of_int n);
          let out = if dest = 2 then 240 else r2_out.(dest) in
          let route =
            {
              Sirpent.Route.first_port = first.(feeder);
              segments =
                [ Seg.make ~port:r1_out (); Seg.make ~port:out (); Seg.make ~port:0 () ];
            }
          in
          ignore
            (Sim.Engine.schedule_at engine ~time:!time (fun () ->
                 if xsr && dest < 2 then
                   ignore (Sirpent.Host.send_xsr hosts.(feeder) ~route ~data ())
                 else ignore (Sirpent.Host.send hosts.(feeder) ~route ~data ()))))
        sends;
      Sim.Engine.run engine;
      List.length !kept > 0
      && List.for_all
           (fun (node, in_port, packet, (wire, data, back)) ->
             let now =
               Bytes.sub packet.Viper.Packet.wire packet.Viper.Packet.off
                 packet.Viper.Packet.len
             in
             let back_now = Viper.Packet.return_route_r packet in
             (* leave the sink by its in-port, then each router by its
                segment's port: the last link reaches the sender *)
             let rec ends_at node port segs =
               match (G.link_via g node port, segs) with
               | None, _ -> -1
               | Some l, [] -> fst (G.peer l node)
               | Some l, seg :: rest -> ends_at (fst (G.peer l node)) seg.Seg.port rest
             in
             let sender, _, _, _, _ = List.nth sends (Int32.to_int (Bytes.get_int32_le data 0)) in
             let leads_home =
               match back_now with
               | Error _ -> Viper.Packet.truncated packet
               | Ok segs -> ends_at node in_port segs = feeders.(sender)
             in
             Bytes.equal wire now
             && Bytes.equal data packet.Viper.Packet.data
             && back = back_now
             && leads_home)
           !kept)

let () =
  Alcotest.run "sirpent"
    [
      ( "forwarding",
        [
          Alcotest.test_case "end-to-end delivery" `Quick delivery_end_to_end;
          Alcotest.test_case "reply via trailer" `Quick reply_via_trailer;
          Alcotest.test_case "reply refuses unanswerable packets" `Quick
            reply_refuses_unanswerable;
          Alcotest.test_case "cut-through beats store-and-forward" `Quick
            cut_through_beats_store_and_forward;
          Alcotest.test_case "rate mismatch falls back" `Quick
            store_and_forward_when_rates_differ;
          Alcotest.test_case "mtu truncation detected" `Quick mtu_truncation_detected;
          Alcotest.test_case "misrouted packet counted" `Quick misrouted_packet_counted;
          Alcotest.test_case "router local delivery" `Quick router_local_delivery;
          Alcotest.test_case "xsr hop allocation" `Quick xsr_hop_allocation;
          Alcotest.test_case "viper hop allocation" `Quick viper_hop_allocation;
          Alcotest.test_case "event kinds per packet" `Quick event_kinds_per_packet;
          Alcotest.test_case "chain packet allocation" `Quick chain_packet_allocation;
          Alcotest.test_case "frames released after arrival" `Quick
            frames_released_after_arrival;
          Alcotest.test_case "multi-homed host survives" `Quick
            multihomed_host_survives_interface_failure;
          Alcotest.test_case "drop reasons match the scoreboard" `Quick
            drop_reasons_match_scoreboard;
        ] );
      ( "tokens",
        [
          Alcotest.test_case "required rejects bare" `Quick token_required_rejects_bare;
          Alcotest.test_case "valid admits and accounts" `Quick
            token_valid_admits_and_accounts;
          Alcotest.test_case "forged blocked after verification" `Quick
            forged_token_blocked_after_verification;
          Alcotest.test_case "block policy defers" `Quick block_policy_defers;
          Alcotest.test_case "verdict matrix" `Quick token_verdict_matrix;
          Alcotest.test_case "failed verification counted" `Quick
            forged_token_failed_verification_counted;
        ] );
      ( "type of service",
        [
          Alcotest.test_case "drop-if-blocked" `Quick dib_dropped_when_blocked;
          Alcotest.test_case "priority 7 preempts" `Quick preemption_by_priority_7;
          Alcotest.test_case "upstream preemption marks only its link" `Quick
            upstream_preemption_marks_only_its_link;
          Alcotest.test_case "delay line recirculates" `Quick delay_line_recirculates;
          Alcotest.test_case "delay line drops after max" `Quick
            delay_line_drops_after_max_circuits;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "broadcast port" `Quick broadcast_port_copies;
          Alcotest.test_case "group port" `Quick group_port_copies;
          Alcotest.test_case "tree multicast" `Quick tree_multicast_splits;
          Alcotest.test_case "multicast agent" `Quick multicast_agent_explodes;
        ] );
      ( "logical links",
        [
          Alcotest.test_case "group balances" `Quick logical_group_balances;
          Alcotest.test_case "splice expands" `Quick logical_splice_expands;
          Alcotest.test_case "four roles on one router" `Quick port_roles_on_one_router;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "backpressure reduces loss" `Slow
            congestion_backpressure_reduces_loss;
          Alcotest.test_case "control messages flow" `Quick congestion_ctl_messages_flow;
        ] );
      ("kept packets", [ Seeded.to_alcotest qcheck_kept_packets_survive ]);
      ("delay oracle", [ Seeded.to_alcotest qcheck_delay_decomposition ]);
    ]
