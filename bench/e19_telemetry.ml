(* E19 — telemetry: per-hop latency breakdown from the flight recorder and
   the runtime cost of the recorder itself.

   Part 1 drives a bursty workload through a 100 Mb/s access link into a
   10 Mb/s router chain with every packet sampled, crashes the last
   router briefly mid-run, then folds the recorded hop spans into
   per-route-position latency histograms in the world's metrics registry.
   The access/trunk rate mismatch makes position 0 a store-and-forward
   hop with a deep output queue, while the downstream cut-through hops
   cost a nearly constant header time — the claim of §6.1, read here
   directly off flight spans rather than end-to-end arithmetic.

   Part 2 times the identical workload with the recorder off
   (sample_every = 0, the shipping default), sampling 1-in-64, and
   recording every packet. The off configuration is timed twice: its
   spread is the measurement noise that "telemetry off" must hide in. *)

module G = Topo.Graph
module W = Netsim.World
module Flight = Telemetry.Flight
module Reg = Telemetry.Registry
module J = Telemetry.Export.Json

let pf = Printf.printf
let packet_bytes = 633
let burst = 8
let burst_gap = Sim.Time.ms 8

(* h1 -(100 Mb/s)- r0 -(10 Mb/s)- ... - r(n-1) -(10 Mb/s)- h2 *)
let build_chain ~n_routers =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  let fast = { G.default_props with G.bandwidth_bps = 100_000_000 } in
  ignore (G.connect g h1 routers.(0) fast);
  for k = 0 to n_routers - 2 do
    ignore (G.connect g routers.(k) routers.(k + 1) G.default_props)
  done;
  ignore (G.connect g routers.(n_routers - 1) h2 G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let robjs = Array.map (fun r -> Sirpent.Router.create world ~node:r ()) routers in
  (g, engine, world, h1, h2, robjs)

let run_chain ~n_routers ~packets ~policy ~crash () =
  let g, engine, world, h1, h2, robjs = build_chain ~n_routers in
  Flight.set_policy (W.flight world) policy;
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  let received = ref 0 in
  Sirpent.Host.set_receive host2 (fun _ ~packet:_ ~in_port:_ -> incr received);
  let route = Util.route_of g ~src:h1 ~dst:h2 in
  let rec pump sent t =
    if sent < packets then begin
      let n = min burst (packets - sent) in
      Sim.Engine.schedule_at engine ~time:t (fun () ->
          for _ = 1 to n do
            ignore
              (Sirpent.Host.send host1 ~route
                 ~data:(Bytes.make packet_bytes 'p') ())
          done);
      pump (sent + n) (t + burst_gap)
    end
  in
  pump 0 (Sim.Time.ms 1);
  let span = burst_gap * ((packets + burst - 1) / burst) in
  if crash then begin
    let victim = robjs.(n_routers - 1) in
    Sim.Engine.schedule_at engine ~time:(span / 2) (fun () ->
        Sirpent.Router.crash victim);
    Sim.Engine.schedule_at engine
      ~time:((span / 2) + Sim.Time.ms 40)
      (fun () -> Sirpent.Router.restart victim)
  end;
  Sim.Engine.run engine;
  (world, !received)

(* Part 1: fold recorded spans into per-position histograms. Position i's
   latency is arrival at hop i to arrival at hop i+1 (delivery time for
   the last hop) — output-port queueing, transmission and propagation all
   land in the position that caused them. *)
let breakdown ~n_routers ~packets =
  Util.subheading
    (Printf.sprintf
       "per-hop latency by route position (%d routers, %d packets, all sampled)"
       n_routers packets);
  let policy = { Flight.sample_every = 1; capture_drops = true; capacity = packets } in
  let world, received = run_chain ~n_routers ~packets ~policy ~crash:true () in
  let reg = W.metrics world in
  let hist pos =
    Reg.histogram reg ~help:"arrival-to-arrival latency at route position"
      ~labels:[ ("position", string_of_int pos) ]
      "bench_hop_latency_ns"
  in
  let flights = Flight.flights (W.flight world) in
  let delivered = List.filter (fun f -> f.Flight.dropped = None) flights in
  let samples = Array.make n_routers 0 in
  let wait_us = Array.make n_routers 0.0 in
  let nodes = Array.make n_routers (-1) in
  let handling = Array.make n_routers "" in
  List.iter
    (fun f ->
      let spans = Array.of_list f.Flight.spans in
      Array.iteri
        (fun i s ->
          if i < n_routers then begin
            let next_arrival =
              if i + 1 < Array.length spans then spans.(i + 1).Flight.arrival
              else f.Flight.completed_at
            in
            Reg.Hist.observe (hist i) (next_arrival - s.Flight.arrival);
            samples.(i) <- samples.(i) + 1;
            wait_us.(i) <- wait_us.(i) +. Sim.Time.to_us s.Flight.queue_wait;
            nodes.(i) <- s.Flight.node;
            handling.(i) <- Flight.handling_name s.Flight.handling
          end)
        spans)
    delivered;
  let pus ns = Util.f1 (float_of_int ns /. 1e3) in
  let json_positions = ref [] in
  let rows =
    List.init n_routers (fun i ->
        let h = hist i in
        json_positions :=
          J.Obj
            [
              ("position", J.Int i);
              ("node", J.Int nodes.(i));
              ("handling", J.String handling.(i));
              ("samples", J.Int samples.(i));
              ( "residency_us_mean",
                J.Float (wait_us.(i) /. float_of_int (max 1 samples.(i))) );
              ("latency_p50_us", J.Float (float_of_int (Reg.Hist.percentile h 0.5) /. 1e3));
              ("latency_p90_us", J.Float (float_of_int (Reg.Hist.percentile h 0.9) /. 1e3));
              ("latency_p99_us", J.Float (float_of_int (Reg.Hist.percentile h 0.99) /. 1e3));
            ]
          :: !json_positions;
        [
          Util.i i;
          Util.i nodes.(i);
          handling.(i);
          Util.i samples.(i);
          Util.f1 (wait_us.(i) /. float_of_int (max 1 samples.(i)));
          pus (Reg.Hist.percentile h 0.5);
          pus (Reg.Hist.percentile h 0.9);
          pus (Reg.Hist.percentile h 0.99);
        ])
  in
  Util.table
    ~header:
      [
        "pos"; "node"; "handling"; "samples"; "residency (us)"; "p50 (us)";
        "p90 (us)"; "p99 (us)";
      ]
    rows;
  let f = W.flight world in
  let drop_counts = Hashtbl.create 4 in
  List.iter
    (fun fl ->
      match fl.Flight.dropped with
      | Some fate ->
        let reason = Flight.fate_name fate in
        Hashtbl.replace drop_counts reason
          (1 + Option.value ~default:0 (Hashtbl.find_opt drop_counts reason))
      | None -> ())
    flights;
  pf "\nsent %d, delivered %d; recorder: %d started, %d completed, %d dropped\n"
    packets received (Flight.started f) (Flight.completed f) (Flight.dropped f);
  Hashtbl.iter (fun reason n -> pf "  drop %-10s %d flights recorded\n" reason n)
    drop_counts;
  pf "typed events during the run:\n";
  List.iter
    (fun (time, e) ->
      pf "  [%s] %s\n"
        (Format.asprintf "%a" Sim.Time.pp time)
        (Telemetry.Events.to_string e))
    (Telemetry.Events.entries (W.events world));
  pf "\npaper check: position 0 (rate-mismatched, store-and-forward) absorbs the\n";
  pf "burst queueing while every cut-through position downstream costs a nearly\n";
  pf "constant header-time — the per-hop shape \xc2\xa76.1 predicts, read directly\n";
  pf "from flight spans.\n";
  (world, List.rev !json_positions)

(* Part 2: wall-clock cost of the recorder on the identical workload.
   Each mode is one sweep task timed inside its own domain; with --jobs 1
   the modes run back-to-back exactly as before, while wider pools trade
   some timing noise (cache and memory-bandwidth contention between
   concurrent modes) for elapsed time — the off/off-repeat spread reports
   whichever noise floor applies. *)
let overhead ~n_routers ~packets ~reps =
  Util.subheading
    (Printf.sprintf "recorder overhead (%d packets x %d runs per mode)" packets reps);
  let off = { Flight.sample_every = 0; capture_drops = true; capacity = 1024 } in
  let modes =
    [
      ("off", off);
      ("off (repeat)", off);
      ("1-in-64", { Flight.sample_every = 64; capture_drops = true; capacity = 256 });
      ("every packet", { Flight.sample_every = 1; capture_drops = true; capacity = 256 });
    ]
  in
  let _, sw =
    Util.sweep modes ~f:(fun ~rng:_ ~index:_ (_name, policy) ->
        for _ = 1 to reps do
          ignore (run_chain ~n_routers ~packets ~policy ~crash:false ())
        done)
  in
  let timed =
    List.mapi
      (fun i (name, _) ->
        (name, sw.Parallel.Sweep.task_times_s.(i) /. float_of_int reps))
      modes
  in
  let base = List.assoc "off" timed in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (name, secs) ->
        let ns_pkt = secs *. 1e9 /. float_of_int packets in
        let vs = if base > 0.0 then (secs -. base) /. base *. 100.0 else 0.0 in
        json_rows :=
          J.Obj
            [
              ("mode", J.String name);
              ("seconds_per_run", J.Float secs);
              ("ns_per_packet", J.Float ns_pkt);
              ("overhead_vs_off_pct", J.Float vs);
            ]
          :: !json_rows;
        [ name; Printf.sprintf "%.1f" (secs *. 1e3); Util.f1 ns_pkt; Util.f1 vs ])
      timed
  in
  Util.table ~header:[ "recorder"; "ms/run"; "ns/packet"; "vs off (%)" ] rows;
  pf "\npaper check: with the recorder off the only per-packet cost is one branch,\n";
  pf "so the off row and its repeat should differ by no more than run-to-run\n";
  pf "noise; sampling keeps full tracing available at a bounded fraction of that.\n";
  (List.rev !json_rows, sw)

let run () =
  Util.heading "E19 telemetry: hop-latency breakdown and recorder overhead";
  let n_routers = Util.scaled ~full:6 ~smoke:4 in
  let packets = Util.scaled ~full:2000 ~smoke:400 in
  let reps = Util.scaled ~full:3 ~smoke:2 in
  let world, json_positions = breakdown ~n_routers ~packets in
  let json_overhead, sw = overhead ~n_routers ~packets ~reps in
  (* One Export call dumps the whole simulation: every router_*/host_*/
     netsim_* counter, the bench histograms above, the typed event log and
     the recorded flights. *)
  let snapshot =
    Telemetry.Export.json_value ~events:(W.events world) ~flights:(W.flight world)
      (W.metrics world)
  in
  pf "\nfull snapshot via Telemetry.Export.json: %d metrics, %d bytes of JSON\n"
    (Reg.size (W.metrics world))
    (String.length (J.to_string snapshot));
  Util.write_json ~exp:"e19"
    (J.Obj
       ([
          ("experiment", J.String "e19");
          ("description", J.String "telemetry: hop-latency breakdown and overhead");
          ("positions", J.List json_positions);
          ("overhead", J.List json_overhead);
          ("snapshot", snapshot);
        ]
       @ Util.sweep_fields sw))
