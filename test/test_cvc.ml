(* Tests for the concatenated-virtual-circuit baseline. *)

module G = Topo.Graph
module W = Netsim.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props

let cvc_world n_switches =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let switches = Array.init n_switches (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 switches.(0) props);
  for i = 0 to n_switches - 2 do
    ignore (G.connect g switches.(i) switches.(i + 1) props)
  done;
  ignore (G.connect g switches.(n_switches - 1) h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let sw = Array.map (fun s -> Cvc.Switch.create world ~node:s) switches in
  let e1 = Cvc.Endpoint.create world ~node:h1 in
  let e2 = Cvc.Endpoint.create world ~node:h2 in
  (g, engine, world, e1, e2, sw)

let setup_connects () =
  let _, engine, _, e1, e2, switches = cvc_world 3 in
  let opened = ref None in
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> opened := Some c)
    ~on_fail:(fun r -> Alcotest.fail ("setup failed: " ^ r))
    ();
  Sim.Engine.run engine;
  check_bool "circuit opened" true (!opened <> None);
  (* each switch holds 2 table entries per circuit *)
  Array.iter
    (fun s -> check_int "entries" 2 (Cvc.Switch.circuit_entries s))
    switches;
  (* setup RTT is a full round trip: > one-way propagation * 2 *)
  match !opened with
  | Some c -> (
    match Cvc.Endpoint.setup_rtt e1 c with
    | Some rtt -> check_bool "rtt positive" true (rtt > 0)
    | None -> Alcotest.fail "rtt")
  | None -> ()

let data_flows_both_ways () =
  let _, engine, _, e1, e2, _ = cvc_world 2 in
  let got_at_2 = ref "" and got_at_1 = ref "" in
  Cvc.Endpoint.set_receive e2 (fun e c data ->
      got_at_2 := Bytes.to_string data;
      ignore (Cvc.Endpoint.send_data e c (Bytes.of_string "reply")));
  Cvc.Endpoint.set_receive e1 (fun _ _ data -> got_at_1 := Bytes.to_string data);
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> ignore (Cvc.Endpoint.send_data e1 c (Bytes.of_string "hello vc")))
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run engine;
  Alcotest.(check string) "forward data" "hello vc" !got_at_2;
  Alcotest.(check string) "reverse data" "reply" !got_at_1

let admission_control_refuses () =
  let _, engine, _, e1, e2, switches = cvc_world 1 in
  (* the h1->s1 link is 10 Mb/s; two 8 Mb/s reservations cannot both fit *)
  let opened = ref 0 and failed = ref 0 in
  let try_open () =
    Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2) ~reserve_bps:8_000_000
      ~on_open:(fun _ -> incr opened)
      ~on_fail:(fun _ -> incr failed)
      ()
  in
  try_open ();
  try_open ();
  Sim.Engine.run engine;
  check_int "one admitted" 1 !opened;
  check_int "one refused" 1 !failed;
  check_bool "reservation recorded" true
    (List.exists
       (fun (p, _) -> Cvc.Switch.reserved_bps switches.(0) ~port:p > 0)
       [ (1, ()); (2, ()) ])

let close_releases_state () =
  let _, engine, _, e1, e2, switches = cvc_world 2 in
  let circuit = ref None in
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> circuit := Some c)
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run engine;
  (match !circuit with
  | Some c -> Cvc.Endpoint.close e1 c
  | None -> Alcotest.fail "never opened");
  Sim.Engine.run engine;
  Array.iter
    (fun s -> check_int "entries freed" 0 (Cvc.Switch.circuit_entries s))
    switches

let data_without_circuit_dropped () =
  let _, engine, world, _, _, switches = cvc_world 1 in
  ignore world;
  (* inject a data frame with an unknown VCI straight at the switch *)
  let g = W.graph world in
  ignore g;
  let frame = W.fresh_frame world (Cvc.Signal.encode_data ~vci:999 (Bytes.of_string "stray")) in
  ignore (W.send world ~node:0 ~port:1 frame);
  Sim.Engine.run engine;
  check_int "no circuit counted" 1 (Cvc.Switch.stats switches.(0)).Cvc.Switch.data_no_circuit

let setup_cost_dominates_small_transfers () =
  (* one-packet transaction over CVC pays setup RTT + processing before any
     data moves: compare time-to-first-data against raw transmission *)
  let _, engine, _, e1, e2, _ = cvc_world 3 in
  let t_data = ref 0 in
  Cvc.Endpoint.set_receive e2 (fun _ _ _ -> t_data := Sim.Engine.now engine);
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> ignore (Cvc.Endpoint.send_data e1 c (Bytes.of_string "txn")))
    ~on_fail:(fun r -> Alcotest.fail r)
    ();
  Sim.Engine.run engine;
  (* 3 switches x 500us setup processing x 2 directions > 3ms *)
  check_bool "setup dominated" true (!t_data > Sim.Time.ms 3)

let circuits_are_isolated () =
  (* two concurrent circuits through the same switches: data stays on its
     own labels *)
  let _, engine, _, e1, e2, _ = cvc_world 2 in
  let got = ref [] in
  Cvc.Endpoint.set_receive e2 (fun _ _ data -> got := Bytes.to_string data :: !got);
  let c1 = ref None and c2 = ref None in
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> c1 := Some c)
    ~on_fail:(fun r -> Alcotest.fail r) ();
  Cvc.Endpoint.open_circuit e1 ~dst:(Cvc.Endpoint.node e2)
    ~on_open:(fun c -> c2 := Some c)
    ~on_fail:(fun r -> Alcotest.fail r) ();
  Sim.Engine.run engine;
  (match !c1, !c2 with
  | Some a, Some b ->
    check_bool "sent on 1" true (Cvc.Endpoint.send_data e1 a (Bytes.of_string "one"));
    check_bool "sent on 2" true (Cvc.Endpoint.send_data e1 b (Bytes.of_string "two"))
  | _ -> Alcotest.fail "circuits");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "both arrive once, in order" [ "one"; "two" ]
    (List.rev !got);
  check_int "two open at e2" 2 (Cvc.Endpoint.open_circuits e2)

let vci_parity_avoids_collision () =
  let lo_counter = ref 0 and hi_counter = ref 0 in
  let vci_lo =
    Cvc.Signal.alloc_vci
      ~counter:(fun () -> incr lo_counter; !lo_counter)
      ~this_node:1 ~peer:2
  in
  let vci_hi =
    Cvc.Signal.alloc_vci
      ~counter:(fun () -> incr hi_counter; !hi_counter)
      ~this_node:2 ~peer:1
  in
  check_bool "even vs odd" true (vci_lo mod 2 = 0 && vci_hi mod 2 = 1)

let () =
  Alcotest.run "cvc"
    [
      ( "signalling",
        [
          Alcotest.test_case "setup connects" `Quick setup_connects;
          Alcotest.test_case "admission refuses" `Quick admission_control_refuses;
          Alcotest.test_case "close releases" `Quick close_releases_state;
          Alcotest.test_case "vci parity" `Quick vci_parity_avoids_collision;
          Alcotest.test_case "circuits isolated" `Quick circuits_are_isolated;
        ] );
      ( "data",
        [
          Alcotest.test_case "both directions" `Quick data_flows_both_ways;
          Alcotest.test_case "unknown vci dropped" `Quick data_without_circuit_dropped;
          Alcotest.test_case "setup cost dominates" `Quick setup_cost_dominates_small_transfers;
        ] );
    ]
