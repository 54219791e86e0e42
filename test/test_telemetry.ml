(* Tests for the telemetry subsystem: registry instruments, typed events,
   the per-packet flight recorder riding real simulations, and exporters. *)

module G = Topo.Graph
module W = Netsim.World
module R = Telemetry.Registry
module Flight = Telemetry.Flight

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- registry --- *)

let registry_idempotent () =
  let reg = R.create () in
  let a = R.counter reg ~labels:[ ("node", "1") ] "router_forwarded" in
  let b = R.counter reg ~labels:[ ("node", "1") ] "router_forwarded" in
  R.Counter.incr a;
  R.Counter.incr b;
  check_int "same handle" 2 (R.Counter.value a);
  check_int "one metric" 1 (R.size reg);
  (* label order must not matter *)
  let c = R.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "x" in
  let d = R.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "x" in
  R.Counter.incr c;
  check_int "canonicalized labels" 1 (R.Counter.value d)

let registry_kind_clash () =
  let reg = R.create () in
  ignore (R.counter reg "m");
  check_bool "kind clash raises" true
    (try
       ignore (R.gauge reg "m");
       false
     with Invalid_argument _ -> true)

let registry_snapshot_order () =
  let reg = R.create () in
  let c = R.counter reg "first" in
  let g = R.gauge reg "second" in
  R.Counter.add c 7;
  R.Gauge.set g 1.5;
  match R.snapshot reg with
  | [ r1; r2 ] ->
    check_string "order" "first" r1.R.row_name;
    check_string "order" "second" r2.R.row_name;
    (match r1.R.row_sample, r2.R.row_sample with
    | R.Counter_sample v, R.Gauge_sample f ->
      check_int "counter" 7 v;
      check_bool "gauge" true (abs_float (f -. 1.5) < 1e-9)
    | _ -> Alcotest.fail "sample kinds")
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

let hist_bounded_error () =
  let reg = R.create () in
  let h = R.histogram reg "lat" in
  (* log-linear with 16 sub-buckets: every percentile answer must be
     within ~6.25% above the true value it brackets *)
  let vals = [ 1; 17; 100; 1_000; 65_536; 1_000_000; 123_456_789 ] in
  List.iter (R.Hist.observe h) vals;
  check_int "count" (List.length vals) (R.Hist.count h);
  check_int "sum" (List.fold_left ( + ) 0 vals) (R.Hist.sum h);
  check_int "min exact" 1 (R.Hist.min h);
  check_int "max" 123_456_789 (R.Hist.max h);
  let p100 = R.Hist.percentile h 1.0 in
  check_bool "p100 >= max" true (p100 >= 123_456_789);
  check_bool "p100 within 7%" true
    (float_of_int p100 <= 1.07 *. 123_456_789.0);
  let p0 = R.Hist.percentile h 0.0 in
  check_bool "p0 brackets min" true (p0 >= 1 && p0 <= 2);
  check_int "empty percentile" 0 (R.Hist.percentile (R.histogram reg "e") 0.5)

(* --- events --- *)

let events_ring () =
  let ev = Telemetry.Events.create ~capacity:2 () in
  Telemetry.Events.emit ev ~time:1
    (Telemetry.Events.Link_failed { link_id = 9 });
  Telemetry.Events.emit ev ~time:2
    (Telemetry.Events.Router_crashed { node = 3; frames_lost = 5 });
  Telemetry.Events.emit ev ~time:3
    (Telemetry.Events.Router_restarted { node = 3 });
  check_int "total" 3 (Telemetry.Events.total ev);
  check_int "retained" 2 (Telemetry.Events.size ev);
  match Telemetry.Events.entries ev with
  | [ (2, Telemetry.Events.Router_crashed { node = 3; frames_lost = 5 }); (3, e) ]
    ->
    check_string "kind" "router_restarted" (Telemetry.Events.kind_name e)
  | _ -> Alcotest.fail "ring contents"

(* --- flight recorder on a live simulation --- *)

let props = G.default_props

let chain ?config n_routers =
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

let metric (_ : G.link) = 1.0

let route_between g ~src ~dst =
  match G.shortest_path g ~metric ~src ~dst with
  | Some hops -> Sirpent.Route.of_hops g ~src hops
  | None -> Alcotest.fail "no path"

let sample_all w =
  Flight.set_policy (W.flight w)
    { Flight.sample_every = 1; capture_drops = true; capacity = 64 }

let flight_one_span_per_router () =
  let n_routers = 4 in
  let g, engine, w, h1, h2, routers = chain n_routers in
  sample_all w;
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 64 'f') ());
  Sim.Engine.run engine;
  check_int "one flight recorded" 1 (Flight.recorded (W.flight w));
  match Flight.flights (W.flight w) with
  | [ f ] ->
    check_bool "delivered" true (f.Flight.dropped = None);
    check_int "exactly one span per router" n_routers
      (List.length f.Flight.spans);
    List.iteri
      (fun i span ->
        check_int "spans in route order"
          (Sirpent.Router.node routers.(i))
          span.Flight.node;
        check_bool "forwarding span" true
          (span.Flight.handling = Flight.Cut_through
          || span.Flight.handling = Flight.Store_forward);
        check_bool "non-negative queue wait" true (span.Flight.queue_wait >= 0))
      f.Flight.spans;
    (* equal link rates end to end: the default config cuts through *)
    List.iter
      (fun span ->
        check_bool "cut-through" true (span.Flight.handling = Flight.Cut_through))
      f.Flight.spans
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 flight, got %d" (List.length fs))

let flight_drop_reason_matches_scoreboard () =
  let config =
    { Sirpent.Router.default_config with Sirpent.Router.require_tokens = true }
  in
  let g, engine, w, h1, h2, routers = chain ~config 2 in
  sample_all w;
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  (* no tokens on the route: the first router must reject it *)
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 32 'd') ());
  Sim.Engine.run engine;
  let st = Sirpent.Router.stats routers.(0) in
  check_int "scoreboard counted the reject" 1 st.Sirpent.Router.unauthorized;
  match Flight.flights (W.flight w) with
  | [ f ] -> (
    Alcotest.(check (option string))
      "flight carries the scoreboard reason" (Some "unauthorized")
      (Option.map Flight.fate_name f.Flight.dropped);
    match List.rev f.Flight.spans with
    | last :: _ ->
      Alcotest.(check (option string))
        "drop span reason" (Some "unauthorized")
        (Option.map Flight.fate_name last.Flight.drop);
      check_int "dropped at the rejecting router"
        (Sirpent.Router.node routers.(0))
        last.Flight.node;
      check_bool "token verdict recorded" true (last.Flight.token = Flight.Denied)
    | [] -> Alcotest.fail "no spans")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 flight, got %d" (List.length fs))

let flight_sampling_exact_counts () =
  let n_packets = 10 in
  let g, engine, w, h1, h2, routers = chain 3 in
  Flight.set_policy (W.flight w)
    { Flight.sample_every = 3; capture_drops = true; capacity = 64 };
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  for _ = 1 to n_packets do
    ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 64 's') ())
  done;
  Sim.Engine.run engine;
  let fl = W.flight w in
  check_int "every packet got a context" n_packets (Flight.started fl);
  (* packets 1, 4, 7, 10 *)
  check_int "1-in-3 sampled" 4 (Flight.sampled_count fl);
  check_int "only sampled flights stored" 4 (Flight.recorded fl);
  check_int "all contexts completed" n_packets (Flight.completed fl);
  check_int "no drops" 0 (Flight.dropped fl);
  (* the metric counters are exact regardless of sampling *)
  Array.iter
    (fun r ->
      check_int "router counters unsampled" n_packets
        (Sirpent.Router.stats r).Sirpent.Router.forwarded)
    routers;
  check_int "host received all" n_packets (Sirpent.Host.received h2)

let flight_disabled_allocates_nothing () =
  let g, engine, w, h1, h2, _ = chain 2 in
  (* default policy: sample_every = 0, recorder off *)
  check_bool "disabled by default" false (Flight.enabled (W.flight w));
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 64 'o') ());
  Sim.Engine.run engine;
  check_int "no contexts" 0 (Flight.started (W.flight w));
  check_int "nothing recorded" 0 (Flight.recorded (W.flight w));
  check_int "still delivered" 1 (Sirpent.Host.received h2)

(* --- crash events from a live simulation --- *)

let crash_emits_typed_events () =
  let g, engine, w, h1, h2, routers = chain 2 in
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 64 'c') ());
  Sim.Engine.run engine;
  Sirpent.Router.crash routers.(0);
  Sirpent.Router.restart routers.(0);
  let kinds =
    List.map
      (fun (_, e) -> Telemetry.Events.kind_name e)
      (Telemetry.Events.entries (W.events w))
  in
  check_bool "crash event" true (List.mem "router_crashed" kinds);
  check_bool "restart event" true (List.mem "router_restarted" kinds);
  ignore h2

(* --- exporters --- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let export_snapshot_covers_simulation () =
  let g, engine, w, h1, h2, routers = chain 2 in
  sample_all w;
  let route =
    route_between g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2)
  in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make 64 'j') ());
  Sim.Engine.run engine;
  Sirpent.Router.crash routers.(0);
  let json =
    Telemetry.Export.json ~events:(W.events w) ~flights:(W.flight w)
      (W.metrics w)
  in
  (* one call covers world counters, router scoreboards, events, flights *)
  List.iter
    (fun needle -> check_bool needle true (contains ~needle json))
    [
      "\"metrics\"";
      "\"netsim_sent_frames\"";
      "\"router_forwarded\"";
      "\"host_received\"";
      "\"congestion_ctl_sent\"";
      "\"events\"";
      "router_crashed";
      "\"flights\"";
      "cut_through";
    ];
  let prom = Telemetry.Export.prometheus (W.metrics w) in
  check_bool "prometheus TYPE header" true
    (contains ~needle:"# TYPE netsim_sent_frames counter" prom);
  check_bool "prometheus labeled sample" true
    (contains ~needle:"router_forwarded{node=" prom)

let json_escaping () =
  let open Telemetry.Export.Json in
  check_string "escapes" "{\"k\":\"a\\\"b\\n\"}"
    (to_string (Obj [ ("k", String "a\"b\n") ]));
  check_string "nested" "[1,null,true,1.5]"
    (to_string (List [ Int 1; Null; Bool true; Float 1.5 ]))

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "idempotent registration" `Quick registry_idempotent;
          Alcotest.test_case "kind clash rejected" `Quick registry_kind_clash;
          Alcotest.test_case "snapshot order" `Quick registry_snapshot_order;
          Alcotest.test_case "histogram bounded error" `Quick hist_bounded_error;
        ] );
      ("events", [ Alcotest.test_case "bounded ring" `Quick events_ring ]);
      ( "flight recorder",
        [
          Alcotest.test_case "one span per router" `Quick
            flight_one_span_per_router;
          Alcotest.test_case "drop reason matches scoreboard" `Quick
            flight_drop_reason_matches_scoreboard;
          Alcotest.test_case "sampling keeps counts exact" `Quick
            flight_sampling_exact_counts;
          Alcotest.test_case "disabled costs nothing" `Quick
            flight_disabled_allocates_nothing;
          Alcotest.test_case "crash emits typed events" `Quick
            crash_emits_typed_events;
        ] );
      ( "export",
        [
          Alcotest.test_case "one call snapshots the world" `Quick
            export_snapshot_covers_simulation;
          Alcotest.test_case "json escaping" `Quick json_escaping;
        ] );
    ]
