(* E6 — §2.2/§6.3 rate-based congestion control: offered load sweep over a
   2 Mb/s trunk with and without hop-by-hop backpressure. Reports loss,
   goodput, trunk utilization and mean queue — the stability the paper's
   feedback scheme is meant to buy without circuits. *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let trunk_bps = 2_000_000
let packet_bytes = 1000

let run_once ~horizon ~offered_ratio ~with_control =
  let g = G.create () in
  let sources = Array.init 3 (fun _ -> G.add_node g G.Host) in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let sink = G.add_node g G.Host in
  Array.iter (fun s -> ignore (G.connect g s r1 G.default_props)) sources;
  let trunk_port = fst (G.connect g r1 r2 { G.default_props with G.bandwidth_bps = trunk_bps }) in
  ignore (G.connect g r2 sink G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  W.set_buffer_bytes world ~node:r1 ~port:trunk_port (24 * 1024);
  let congestion = if with_control then Some Sirpent.Congestion.default_config else None in
  let config = { Sirpent.Router.default_config with Sirpent.Router.congestion } in
  ignore (Sirpent.Router.create ~config world ~node:r1 ());
  ignore (Sirpent.Router.create ~config world ~node:r2 ());
  let h_sink = Sirpent.Host.create world ~node:sink in
  Sirpent.Host.set_receive h_sink (fun _ ~packet:_ ~in_port:_ -> ());
  let per_source_bps = float_of_int trunk_bps *. offered_ratio /. 3.0 in
  let gap = Sim.Time.of_seconds (float_of_int (8 * packet_bytes) /. per_source_bps) in
  Array.iter
    (fun s ->
      let h = Sirpent.Host.create world ~node:s in
      let route = Util.route_of g ~src:s ~dst:sink in
      let rec blast t =
        if t < horizon then
          Sim.Engine.schedule_at engine ~time:t (fun () ->
              ignore (Sirpent.Host.send h ~route ~data:(Bytes.make packet_bytes 'c') ());
              blast (t + gap))
      in
      blast (Sim.Time.ms 1))
    sources;
  Sim.Engine.run ~until:horizon engine;
  let st = W.port_stats world ~node:r1 ~port:trunk_port in
  let util = W.utilization world ~node:r1 ~port:trunk_port in
  ( st.W.dropped_overflow,
    Sirpent.Host.received h_sink,
    util,
    st.W.mean_queue,
    Telemetry.Registry.snapshot (W.metrics world) )

let run () =
  Util.heading "E6  \xc2\xa72.2 rate-based congestion control under overload";
  let horizon = Util.scaled ~full:(Sim.Time.s 4) ~smoke:(Sim.Time.s 1) in
  pf "3 sources -> 2 Mb/s trunk, 24 KB output buffer, %.0f s simulated.\n\n"
    (Sim.Time.to_seconds horizon);
  let ratios = Util.scaled ~full:[ 0.8; 1.2; 2.0; 3.0 ] ~smoke:[ 0.8; 2.0 ] in
  (* One independent world per (offered load, control) cell, sharded over
     the domain pool; merged output is identical for any --jobs. *)
  let grid =
    List.concat_map (fun ratio -> [ (ratio, false); (ratio, true) ]) ratios
  in
  let cells, sw =
    Util.sweep grid ~f:(fun ~rng:_ ~index:_ (ratio, with_control) ->
        (ratio, with_control, run_once ~horizon ~offered_ratio:ratio ~with_control))
  in
  let merged =
    Telemetry.Merge.rows
      (Array.to_list (Array.map (fun (_, _, (_, _, _, _, snap)) -> snap) cells))
  in
  let json_rows = ref [] in
  let rows =
    Array.to_list cells
    |> List.map (fun (ratio, with_control, (d, g, u, q, _)) ->
           json_rows :=
             Util.J.Obj
               [
                 ("offered_ratio", Util.J.Float ratio);
                 ("control", Util.J.Bool with_control);
                 ("dropped_overflow", Util.J.Int d);
                 ("delivered", Util.J.Int g);
                 ("trunk_utilization", Util.J.Float u);
                 ("mean_queue", Util.J.Float q);
               ]
             :: !json_rows;
           [
             Util.f1 ratio;
             (if with_control then "on" else "off");
             Util.i d; Util.i g; Util.pct u; Util.f1 q;
           ])
  in
  Util.table
    ~header:[ "offered/capacity"; "control"; "drops"; "delivered"; "trunk util"; "mean Q" ]
    rows;
  Util.write_json ~exp:"e06"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e06");
          ("description", Util.J.String "rate-based congestion control under overload");
          ("horizon_s", Util.J.Float (Sim.Time.to_seconds horizon));
          ("rows", Util.J.List (List.rev !json_rows));
          ( "merged",
            Util.J.Obj
              [
                ( "netsim_sent_frames",
                  Util.J.Int (Telemetry.Merge.counter_value merged "netsim_sent_frames") );
                ( "netsim_dropped_overflow",
                  Util.J.Int
                    (Telemetry.Merge.counter_value merged "netsim_dropped_overflow") );
              ] );
        ]
       @ Util.sweep_fields sw));
  pf "\npaper check: below capacity the two behave alike; past capacity the\n";
  pf "uncontrolled trunk overflows its buffer while backpressure holds packets\n";
  pf "at the sources, eliminating loss at equal-or-better delivered volume.\n"
