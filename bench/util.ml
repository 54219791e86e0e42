(* Shared helpers for the experiment harness: table rendering and common
   world-building. *)

module G = Topo.Graph
module W = Netsim.World
module J = Telemetry.Export.Json

let pf = Printf.printf

(* Harness modes, set by Main before any experiment runs. [--smoke] asks
   experiments for a shrunk parameter grid (CI-friendly runtimes);
   [--json] makes wired experiments dump machine-readable results next to
   their tables; [--jobs n] sets the domain-pool width for grid-shaped
   experiments (1 = today's serial path, bit-for-bit). *)
let smoke_mode = ref false
let json_mode = ref false
let jobs = ref (Parallel.Pool.default_jobs ())

(* [--shards n] sets the widest width E20 drives the region-parallel
   cluster at. Fixed default (not core count) so the baseline JSON has
   a stable shape across machines. *)
let shards = ref 4

(* [--rebalance] turns on epoch-based load-adaptive re-balancing in the
   region-parallel experiments (e20 parks at quiescent points and
   re-packs shard ownership from executed-event deltas; e25 always runs
   its re-balanced arms and ignores the flag). Merged telemetry is
   bit-identical with or without it — only wall clock may change. *)
let rebalance = ref false

let rebalance_epoch = Sim.Time.ms 5

(* [--xsr] narrows E24 to its constant-header arm for quick looks. CI
   runs both arms (no flag) so the gated JSON keys are always present
   there. *)
let xsr = ref false

let scaled ~full ~smoke = if !smoke_mode then smoke else full

(* One sweep seed for the whole harness: every grid point derives its RNG
   stream from (seed, grid index), so results are independent of --jobs. *)
let sweep_seed = 0x512EA7_0001L

let sweep ~f grid =
  Parallel.Sweep.map ~jobs:!jobs ~seed:sweep_seed ~f (Array.of_list grid)

let sweep_fields (sw : Parallel.Sweep.stats) = Parallel.Sweep.json_fields sw

let write_json ~exp (doc : J.t) =
  if !json_mode then begin
    let file = Printf.sprintf "BENCH_%s.json" exp in
    let oc = open_out file in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    pf "[--json] wrote %s\n" file
  end

let heading title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title = pf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* Render a table: columns right-aligned to the widest cell. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%*s" (List.nth widths i) cell) row)
  in
  pf "%s\n" (render header);
  pf "%s\n" (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> pf "%s\n" (render row)) rows

let ms t = Printf.sprintf "%.3f" (Sim.Time.to_ms t)
let us t = Printf.sprintf "%.1f" (Sim.Time.to_us t)
let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let i = string_of_int

(* host - r1 - ... - rn - host chain with Sirpent routers *)
let sirpent_chain ?(props = G.default_props) ?config n_routers =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 routers.(0) props);
  for k = 0 to n_routers - 2 do
    ignore (G.connect g routers.(k) routers.(k + 1) props)
  done;
  ignore (G.connect g routers.(n_routers - 1) h2 props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let robjs = Array.map (fun r -> Sirpent.Router.create ?config world ~node:r ()) routers in
  let host1 = Sirpent.Host.create world ~node:h1 in
  let host2 = Sirpent.Host.create world ~node:h2 in
  (g, engine, world, host1, host2, robjs)

let hop_metric (_ : G.link) = 1.0

let route_of g ~src ~dst =
  Sirpent.Route.of_hops g ~src
    (Option.get (G.shortest_path g ~metric:hop_metric ~src ~dst))

(* one-way delay of a single packet of [bytes] over an n-router chain *)
let one_way_sirpent ?config ~n_routers ~bytes () =
  let g, engine, _w, h1, h2, _ = sirpent_chain ?config n_routers in
  let arrival = ref 0 in
  Sirpent.Host.set_receive h2 (fun _ ~packet:_ ~in_port:_ -> arrival := Sim.Engine.now engine);
  let route = route_of g ~src:(Sirpent.Host.node h1) ~dst:(Sirpent.Host.node h2) in
  ignore (Sirpent.Host.send h1 ~route ~data:(Bytes.make bytes 'x') ());
  Sim.Engine.run engine;
  !arrival

let one_way_ip ~n_routers ~bytes () =
  let g = G.create () in
  let h1 = G.add_node g G.Host in
  let routers = Array.init n_routers (fun _ -> G.add_node g G.Router) in
  let h2 = G.add_node g G.Host in
  ignore (G.connect g h1 routers.(0) G.default_props);
  for k = 0 to n_routers - 2 do
    ignore (G.connect g routers.(k) routers.(k + 1) G.default_props)
  done;
  ignore (G.connect g routers.(n_routers - 1) h2 G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Array.iter (fun r -> ignore (Ipbase.Router.create world ~node:r ())) routers;
  let i1 = Ipbase.Host.create world ~node:h1 in
  let i2 = Ipbase.Host.create world ~node:h2 in
  let arrival = ref 0 in
  Ipbase.Host.set_receive i2 (fun _ ~header:_ ~data:_ -> arrival := Sim.Engine.now engine);
  ignore (Ipbase.Host.send i1 ~dst:h2 ~data:(Bytes.make bytes 'x') ());
  Sim.Engine.run engine;
  !arrival
