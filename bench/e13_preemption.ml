(* E13 — §5/§2.1 type of service: delay of priority traffic under
   increasing low-priority background load, with and without preemptive
   priority. "If a packet can be routed immediately out its outgoing port
   with no contention ... there is no need to examine its type of service
   field. With contention, the type of service field provides for
   preemption of interfering packets as well as prioritized queuing." *)

module G = Topo.Graph
module W = Netsim.World

let pf = Printf.printf

let probe_count = 50

(* mean delay of priority-[prio] probes while background load [bg_ratio]
   of the trunk flows at sub-normal priority *)
let measure ~prio ~bg_ratio =
  let g = G.create () in
  let probe_src = G.add_node g G.Host and bg_src = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let dst = G.add_node g G.Host in
  ignore (G.connect g probe_src r1 G.default_props);
  ignore (G.connect g bg_src r1 G.default_props);
  ignore (G.connect g r1 r2 G.default_props);
  ignore (G.connect g r2 dst G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  ignore (Sirpent.Router.create world ~node:r1 ());
  ignore (Sirpent.Router.create world ~node:r2 ());
  let h_probe = Sirpent.Host.create world ~node:probe_src in
  let h_bg = Sirpent.Host.create world ~node:bg_src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let delays = Sim.Stats.Summary.create () in
  let sent_at = Hashtbl.create 64 in
  Sirpent.Host.set_receive h_dst (fun _ ~packet ~in_port:_ ->
      let payload = packet.Viper.Packet.data in
      if Bytes.length payload >= 4 && Bytes.get payload 0 = 'P' then begin
        let idx = Bytes.get_uint16_be payload 2 in
        match Hashtbl.find_opt sent_at idx with
        | Some t0 ->
          Sim.Stats.Summary.add delays (Sim.Time.to_ms (Sim.Engine.now engine - t0))
        | None -> ()
      end);
  let probe_route = Util.route_of g ~src:probe_src ~dst in
  let bg_route = Util.route_of g ~src:bg_src ~dst in
  (* background: 1400 B packets at bg_ratio of the 10 Mb/s trunk *)
  let horizon = Sim.Time.s 3 in
  if bg_ratio > 0.0 then begin
    let gap = Sim.Time.of_seconds (8.0 *. 1400.0 /. (1e7 *. bg_ratio)) in
    let rec bg t =
      if t < horizon then
        Sim.Engine.schedule_at engine ~time:t (fun () ->
            ignore
              (Sirpent.Host.send h_bg ~route:bg_route ~priority:0xF
                 ~data:(Bytes.make 1400 'b') ());
            bg (t + gap))
    in
    bg (Sim.Time.us 137)
  end;
  (* probes: small packets every 50 ms *)
  for k = 0 to probe_count - 1 do
    let t = Sim.Time.ms (10 + (k * 50)) in
    Sim.Engine.schedule_at engine ~time:t (fun () ->
        let payload = Bytes.make 200 'P' in
        Bytes.set_uint16_be payload 2 k;
        Hashtbl.replace sent_at k (Sim.Engine.now engine);
        ignore (Sirpent.Host.send h_probe ~route:probe_route ~priority:prio ~data:payload ()))
  done;
  Sim.Engine.run ~until:horizon engine;
  (Sim.Stats.Summary.mean delays, Sim.Stats.Summary.max delays, Sim.Stats.Summary.count delays)

let run () =
  Util.heading "E13  \xc2\xa75 type of service: priority and preemption under load";
  pf "200 B probes vs sub-normal 1400 B background on a 10 Mb/s trunk.\n";
  pf "probe delay in ms (one way); priority 5 queues ahead, priority 7 preempts.\n\n";
  let rows =
    List.concat_map
      (fun bg ->
        List.map
          (fun (label, prio) ->
            let mean, mx, n = measure ~prio ~bg_ratio:bg in
            [ Util.f1 bg; label; Util.f3 mean; Util.f3 mx; Util.i n ])
          [ ("normal (0)", 0); ("high (5)", 5); ("preemptive (7)", 7) ])
      [ 0.0; 0.5; 0.95 ]
  in
  Util.table
    ~header:[ "bg load"; "probe priority"; "mean delay"; "max delay"; "received" ]
    rows;
  pf "\npaper check: with no contention all priorities see the same bare delay;\n";
  pf "under load, priority 5 still waits behind the packet in service while\n";
  pf "priority 7 preempts mid-transmission and holds its delay nearly flat.\n"
