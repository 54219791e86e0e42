(* E8 — §2.2 logical links: a replicated trunk behind one logical port.
   The router late-binds each packet to the least-loaded physical link.
   Compare against static assignment (all traffic pinned to one link) for
   burst completion time and per-link utilization. *)

module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment

let pf = Printf.printf

let n_packets = 60
let packet_bytes = 1200

let build ~n_trunks =
  let g = G.create () in
  let src = G.add_node g G.Host in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let dst = G.add_node g G.Host in
  ignore (G.connect g src r1 { G.default_props with G.bandwidth_bps = 100_000_000 });
  let trunks = List.init n_trunks (fun _ -> fst (G.connect g r1 r2 G.default_props)) in
  let out = fst (G.connect g r2 dst { G.default_props with G.bandwidth_bps = 100_000_000 }) in
  (g, src, r1, r2, dst, trunks, out)

let run_case ~n_trunks ~use_logical =
  let g, src, r1, _r2, dst, trunks, out_port = build ~n_trunks in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router1 = Sirpent.Router.create world ~node:r1 () in
  ignore (Sirpent.Router.create world ~node:_r2 ());
  let logical_port = 100 in
  if use_logical then
    Sirpent.Router.set_port router1 ~port:logical_port (Group trunks);
  let h_src = Sirpent.Host.create world ~node:src in
  let h_dst = Sirpent.Host.create world ~node:dst in
  let finish = ref 0 in
  Sirpent.Host.set_receive h_dst (fun _ ~packet:_ ~in_port:_ -> finish := Sim.Engine.now engine);
  let trunk_seg_port = if use_logical then logical_port else List.hd trunks in
  let route =
    {
      Sirpent.Route.first_port = 1;
      segments =
        [
          Seg.make ~port:trunk_seg_port ();
          Seg.make ~port:out_port ();
          Seg.make ~port:Seg.local_port ();
        ];
    }
  in
  for _ = 1 to n_packets do
    ignore (Sirpent.Host.send h_src ~route ~data:(Bytes.make packet_bytes 'l') ())
  done;
  Sim.Engine.run engine;
  let utils = List.map (fun p -> W.utilization world ~node:r1 ~port:p) trunks in
  (!finish, utils, Sirpent.Host.received h_dst)

let run () =
  Util.heading "E8  \xc2\xa72.2 logical links: replicated-trunk load balancing";
  pf "%d back-to-back %d B packets across 10 Mb/s trunks.\n\n" n_packets packet_bytes;
  let rows =
    List.concat_map
      (fun n_trunks ->
        let t_static, u_static, n1 = run_case ~n_trunks ~use_logical:false in
        let t_logical, u_logical, n2 = run_case ~n_trunks ~use_logical:true in
        let fmt_utils us = String.concat "/" (List.map (fun u -> Util.f2 u) us) in
        [
          [ Util.i n_trunks; "static pin"; Util.ms t_static; fmt_utils u_static; Util.i n1 ];
          [ Util.i n_trunks; "logical port"; Util.ms t_logical; fmt_utils u_logical; Util.i n2 ];
        ])
      [ 1; 2; 4 ]
  in
  Util.table
    ~header:[ "trunks"; "binding"; "burst completion (ms)"; "per-trunk util"; "delivered" ]
    rows;
  pf "\npaper check: with k replicated trunks the logical port spreads the burst and\n";
  pf "finishes ~k x faster, while the source remains oblivious to the replication.\n"
