(* E22 — adversarial congestion hardening: worst-case (w,ρ) injection,
   flash-crowd and incast scenarios against the §2.2 rate-based controller,
   plus a closed-loop auto-tuner that searches the congestion-config space
   for constants holding trunk utilization >= 95% with zero overflow drops
   at steady 1-4x overload. The winning constants are the repo's
   Congestion.default_config; the untuned seed constants ride along as the
   comparison point for the hostile scenarios. *)

module G = Topo.Graph
module W = Netsim.World
module C = Sirpent.Congestion
module A = Workload.Adversary

let pf = Printf.printf

let trunk_bps = 2_000_000
let packet_bytes = 1000
let capacity_pps = float_of_int trunk_bps /. float_of_int (8 * packet_bytes)
let buffer_bytes = 24 * 1024

(* hierarchical scenarios: host access links are G.default_props (10 Mb/s) *)
let access_pps = 10_000_000.0 /. float_of_int (8 * packet_bytes)

(* ---------- worlds ---------- *)

type env = {
  g : G.t;
  engine : Sim.Engine.t;
  world : W.t;
  hosts : (G.node_id, Sirpent.Host.t) Hashtbl.t;
  routers : Sirpent.Router.t list;
  watch : (G.node_id * G.port) list;
      (* bottleneck output ports: buffer-capped and depth-sampled *)
}

let router_config config =
  { Sirpent.Router.default_config with Sirpent.Router.congestion = Some config }

(* 4 source hosts -> r1 -> 2 Mb/s trunk -> r2 -> sink: the E6 bottleneck,
   one more source so the adversary has more feeders to implicate. *)
let bottleneck ~config =
  let g = G.create () in
  let sources = Array.init 4 (fun _ -> G.add_node g G.Host) in
  let r1 = G.add_node g G.Router and r2 = G.add_node g G.Router in
  let sink = G.add_node g G.Host in
  Array.iter (fun s -> ignore (G.connect g s r1 G.default_props)) sources;
  let trunk_port =
    fst (G.connect g r1 r2 { G.default_props with G.bandwidth_bps = trunk_bps })
  in
  ignore (G.connect g r2 sink G.default_props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  W.set_buffer_bytes world ~node:r1 ~port:trunk_port buffer_bytes;
  let rc = router_config config in
  let routers =
    [
      Sirpent.Router.create ~config:rc world ~node:r1 ();
      Sirpent.Router.create ~config:rc world ~node:r2 ();
    ]
  in
  let hosts = Hashtbl.create 8 in
  Array.iter
    (fun s -> Hashtbl.replace hosts s (Sirpent.Host.create ~congestion:config world ~node:s))
    sources;
  Hashtbl.replace hosts sink (Sirpent.Host.create ~congestion:config world ~node:sink);
  let env =
    { g; engine; world; hosts; routers; watch = [ (r1, trunk_port) ] }
  in
  (env, sources, sink, (r1, trunk_port))

(* the access port (on the leaf router) feeding host [h] *)
let access_port g h =
  match G.ports g h with
  | (_, link) :: _ -> G.peer link h
  | [] -> invalid_arg "host has no link"

(* 3-ary, depth-2 region hierarchy, 24 hosts dealt over 9 leaf regions.
   [hot] names the hosts whose access links are the measured bottlenecks. *)
let hierarchical ~rng ~config ~hot_of =
  let g, _leaves, all =
    G.hierarchical_internet ~rng ~branching:3 ~depth:2 ~hosts:24 ()
  in
  let hot = hot_of all in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let rc = router_config config in
  let routers = ref [] in
  G.iter_nodes g (fun n ->
      if G.kind g n = G.Router then
        routers := Sirpent.Router.create ~config:rc world ~node:n () :: !routers);
  let hosts = Hashtbl.create 32 in
  Array.iter
    (fun h -> Hashtbl.replace hosts h (Sirpent.Host.create ~congestion:config world ~node:h))
    all;
  let watch =
    Array.to_list (Array.map (fun h -> access_port g h) hot)
  in
  List.iter (fun (n, p) -> W.set_buffer_bytes world ~node:n ~port:p buffer_bytes) watch;
  ({ g; engine; world; hosts; routers = !routers; watch }, all, hot)

(* ---------- cell machinery ---------- *)

type cell = {
  util : float;  (* max utilization over the watched bottleneck ports *)
  overflow : int;  (* world-wide netsim_dropped_overflow *)
  goodput : int;  (* packets delivered at the scenario's destinations *)
  sent : int;  (* injections attempted *)
  osc : int;  (* congestion_oscillations summed over all nodes *)
  p99_q : int;  (* p99 of the 1 ms-sampled max watched-queue depth *)
  max_q : int;
  backlog_end : int;  (* limiter-held packets at the horizon *)
}

let replay env injections =
  let routes = Hashtbl.create 32 in
  List.iter
    (fun { A.at; A.src; A.dst; A.bytes } ->
      let route =
        match Hashtbl.find_opt routes (src, dst) with
        | Some r -> r
        | None ->
          let r = Util.route_of env.g ~src ~dst in
          Hashtbl.replace routes (src, dst) r;
          r
      in
      let h = Hashtbl.find env.hosts src in
      Sim.Engine.schedule_at env.engine ~time:at (fun () ->
          ignore
            (Sirpent.Host.send h ~route ~data:(Bytes.make bytes 'a') ())))
    injections

(* sample the max queue depth across the watched ports every 1 ms *)
let depth_sampler env ~horizon =
  let samples = ref [] in
  let rec tick t =
    if t < horizon then
      Sim.Engine.schedule_at env.engine ~time:t (fun () ->
          let d =
            List.fold_left
              (fun acc (n, p) -> max acc (W.queue_length env.world ~node:n ~port:p))
              0 env.watch
          in
          samples := d :: !samples;
          tick (t + Sim.Time.ms 1))
  in
  tick Sim.Time.zero;
  samples

let percentile samples q =
  match samples with
  | [] -> 0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let idx = min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1) in
    a.(max 0 idx)

let finish env ~samples ~sent ~dests ~horizon =
  Sim.Engine.run ~until:horizon env.engine;
  let util =
    List.fold_left
      (fun acc (n, p) -> Float.max acc (W.utilization env.world ~node:n ~port:p))
      0.0 env.watch
  in
  let snap = Telemetry.Registry.snapshot (W.metrics env.world) in
  let overflow = Telemetry.Merge.counter_value snap "netsim_dropped_overflow" in
  let osc = Telemetry.Merge.counter_value snap "congestion_oscillations" in
  let goodput =
    List.fold_left
      (fun acc d -> acc + Sirpent.Host.received (Hashtbl.find env.hosts d))
      0 dests
  in
  let backlog_end =
    Hashtbl.fold
      (fun _ h acc -> acc + C.backlog (Sirpent.Host.limiter h))
      env.hosts 0
    + List.fold_left
        (fun acc r ->
          match Sirpent.Router.congestion r with
          | Some c -> acc + C.backlog c
          | None -> acc)
        0 env.routers
  in
  {
    util;
    overflow;
    goodput;
    sent;
    osc;
    p99_q = percentile !samples 0.99;
    max_q = (match !samples with [] -> 0 | l -> List.fold_left max 0 l);
    backlog_end;
  }

(* ---------- scenarios ---------- *)

(* steady overload: 4 periodic sources sharing ratio x trunk capacity,
   start phases jittered by the cell rng *)
let steady_cell ~rng ~config ~ratio ~horizon =
  let env, sources, sink, _ = bottleneck ~config in
  let per_source = ratio *. capacity_pps /. float_of_int (Array.length sources) in
  let gap = max 1 (Sim.Time.of_seconds (1.0 /. per_source)) in
  let injections = ref [] in
  Array.iter
    (fun s ->
      let t = ref (Sim.Time.ms 1 + Sim.Rng.int rng gap) in
      while !t < horizon do
        injections := { A.at = !t; A.src = s; A.dst = sink; A.bytes = packet_bytes } :: !injections;
        t := !t + gap
      done)
    sources;
  let injections = List.rev !injections in
  replay env injections;
  let samples = depth_sampler env ~horizon in
  finish env ~samples ~sent:(List.length injections) ~dests:[ sink ] ~horizon

(* Two (w,ρ)-constrained worst cases against the trunk queue, both spread
   over every crossing feeder. "Sustained": a leading burst of w then a
   steady stream at exactly ρ = ratio x capacity — maximal sustained
   occupancy, scaling with offered load. "Volley": periodic back-to-back
   bursts timed just past the untuned limiter expiry — the pattern that
   maximises backpressure on/off oscillation; here the load ratio scales
   the adversary's burst allowance w. *)
let adv_period = Sim.Time.ms 150

let adversarial_common ~env ~sink ~injections ~w ~rho ~horizon =
  let excess = A.max_burst_excess injections ~w ~rho_pps:rho in
  if excess > 1e-6 then begin
    pf "FAIL: adversarial schedule violates its own (w,rho) envelope by %g\n" excess;
    exit 1
  end;
  replay env injections;
  let samples = depth_sampler env ~horizon in
  finish env ~samples ~sent:(List.length injections) ~dests:[ sink ] ~horizon

let adv_sustained_cell ~rng ~config ~ratio ~horizon =
  let env, sources, sink, target = bottleneck ~config in
  let rho = ratio *. capacity_pps in
  let w = 24 in
  let injections =
    A.adversarial rng env.g ~target ~sources ~sinks:[| sink |] ~w ~rho_pps:rho
      ~start:(Sim.Time.ms 1) ~bytes:packet_bytes ~horizon ()
  in
  adversarial_common ~env ~sink ~injections ~w ~rho ~horizon

let adv_volley_cell ~rng ~config ~ratio ~horizon =
  let env, sources, sink, target = bottleneck ~config in
  let rho = ratio *. capacity_pps in
  let w = int_of_float (12.0 *. ratio) in
  let injections =
    A.adversarial rng env.g ~target ~sources ~sinks:[| sink |] ~w ~rho_pps:rho
      ~burst_period:adv_period ~start:(Sim.Time.ms 1) ~bytes:packet_bytes
      ~horizon ()
  in
  adversarial_common ~env ~sink ~injections ~w ~rho ~horizon

(* flash crowd: zipf-skewed demand from every other region spikes onto the
   three hosts of region 0; bottlenecks are their 10 Mb/s access links *)
let flash_cell ~rng ~config ~ratio ~horizon =
  let env, _all, hot =
    hierarchical ~rng ~config ~hot_of:(fun all ->
        Array.of_list
          (List.filter_map
             (fun i -> if i mod 9 = 0 then Some all.(i) else None)
             (List.init (Array.length all) Fun.id)))
  in
  let sources =
    Array.of_list
      (Hashtbl.fold
         (fun n _ acc -> if Array.exists (( = ) n) hot then acc else n :: acc)
         env.hosts [])
  in
  Array.sort compare sources;
  let spike = ratio *. access_pps *. float_of_int (Array.length hot) in
  let injections =
    A.flash_crowd rng ~sources ~hotspots:hot ~s:1.1 ~baseline_pps:100.0
      ~spike_pps:spike ~spike_start:(Sim.Time.ms 500) ~spike_len:(Sim.Time.s 1)
      ~start:(Sim.Time.ms 1) ~bytes:packet_bytes ~horizon ()
  in
  replay env injections;
  let samples = depth_sampler env ~horizon in
  finish env ~samples ~sent:(List.length injections)
    ~dests:(Array.to_list hot) ~horizon

(* incast: 16 sources spread over the other regions fan in to one host in
   synchronized rounds; bottleneck is the sink's access link *)
let incast_cell ~rng ~config ~ratio ~horizon =
  let round_gap = Sim.Time.ms 50 in
  let env, all, hot =
    hierarchical ~rng ~config ~hot_of:(fun all -> [| all.(0) |])
  in
  let sink = hot.(0) in
  let sources =
    Array.of_list
      (List.filter_map
         (fun i -> if i mod 9 = 0 || i > 17 then None else Some all.(i))
         (List.init (Array.length all) Fun.id))
  in
  let round_capacity = access_pps *. Sim.Time.to_seconds round_gap in
  let per_source =
    max 1
      (int_of_float (ratio *. round_capacity /. float_of_int (Array.length sources)))
  in
  let injections =
    A.incast rng ~sources ~sink ~round_gap ~per_source ~start:(Sim.Time.ms 1)
      ~bytes:packet_bytes ~horizon ()
  in
  replay env injections;
  let samples = depth_sampler env ~horizon in
  finish env ~samples ~sent:(List.length injections) ~dests:[ sink ] ~horizon

(* ---------- the closed-loop auto-tuner ---------- *)

(* Every candidate is judged on the steady-overload grid (the CI contract:
   utilization >= the target, zero overflow) plus one worst-case volley
   cell. The steady contract is a constraint, not an objective: past the
   bar, extra hundredths of a point of utilization must not buy back
   hostile-workload flaps or loss. Among feasible configs the climb
   minimizes oscillations, then hostile loss, then queue depth. *)
type agg = {
  min_util : float;  (* over steady cells *)
  steady_overflow : int;
  hostile_overflow : int;
  hostile_osc : int;
  max_p99 : int;  (* over all cells *)
}

let aggregate ~steady ~hostile =
  let base =
    List.fold_left
      (fun a c ->
        {
          a with
          min_util = Float.min a.min_util c.util;
          steady_overflow = a.steady_overflow + c.overflow;
          max_p99 = max a.max_p99 c.p99_q;
        })
      {
        min_util = infinity;
        steady_overflow = 0;
        hostile_overflow = 0;
        hostile_osc = 0;
        max_p99 = 0;
      }
      steady
  in
  List.fold_left
    (fun a c ->
      {
        a with
        hostile_overflow = a.hostile_overflow + c.overflow;
        hostile_osc = a.hostile_osc + c.osc;
        max_p99 = max a.max_p99 c.p99_q;
      })
    base hostile

let target_util = 0.95

let score a =
  let feasible = a.steady_overflow = 0 && a.min_util >= target_util in
  ( (if feasible then 1 else 0),
    (* infeasible candidates rank by how badly they miss the bar *)
    (if feasible then 0.0
     else Float.min a.min_util target_util -. float_of_int a.steady_overflow),
    -a.hostile_osc,
    -a.hostile_overflow,
    -a.max_p99,
    a.min_util )

let clamp_config (c : C.config) =
  let queue_threshold = max 2 (min 32 c.C.queue_threshold) in
  {
    c with
    C.queue_threshold;
    C.release_threshold = max 0 (min c.C.release_threshold (queue_threshold - 1));
    C.feeder_share = Float.min 1.0 (Float.max 0.5 c.C.feeder_share);
    C.ramp_factor = Float.min 3.0 (Float.max 1.05 c.C.ramp_factor);
    C.limiter_expiry = max (Sim.Time.ms 25) (min (Sim.Time.s 1) c.C.limiter_expiry);
    C.ramp_after = max C.check_interval (min (Sim.Time.ms 100) c.C.ramp_after);
  }

let neighbors (c : C.config) =
  List.map clamp_config
    [
      { c with C.feeder_share = c.C.feeder_share +. 0.02 };
      { c with C.feeder_share = c.C.feeder_share -. 0.02 };
      { c with C.release_threshold = c.C.release_threshold + 2 };
      { c with C.release_threshold = c.C.release_threshold - 2 };
      { c with C.limiter_expiry = c.C.limiter_expiry * 2 };
      { c with C.limiter_expiry = c.C.limiter_expiry / 2 };
      { c with C.queue_threshold = c.C.queue_threshold + 4 };
      { c with C.queue_threshold = c.C.queue_threshold - 4 };
      { c with C.ramp_factor = c.C.ramp_factor +. 0.25 };
      { c with C.ramp_factor = c.C.ramp_factor -. 0.25 };
      { c with C.ramp_after = c.C.ramp_after * 2 };
      { c with C.ramp_after = c.C.ramp_after / 2 };
    ]

let tune ~loads ~rounds ~horizon =
  let max_load = List.fold_left Float.max 1.0 loads in
  let evaluated = ref [] in
  let eval cands =
    let fresh =
      List.filter (fun c -> not (List.exists (fun (c', _) -> c' = c) !evaluated)) cands
    in
    let fresh = List.sort_uniq compare fresh in
    if fresh <> [] then begin
      let grid =
        List.concat_map
          (fun c ->
            (c, `Volley) :: List.map (fun r -> (c, `Steady r)) loads)
          fresh
      in
      let cells, _ =
        Util.sweep grid ~f:(fun ~rng ~index:_ (c, kind) ->
            match kind with
            | `Steady r -> (c, kind, steady_cell ~rng ~config:c ~ratio:r ~horizon)
            | `Volley ->
              (c, kind, adv_volley_cell ~rng ~config:c ~ratio:max_load ~horizon))
      in
      List.iter
        (fun c ->
          let steady =
            Array.to_list cells
            |> List.filter_map (fun (c', k, cell) ->
                   match k with `Steady _ when c' = c -> Some cell | _ -> None)
          and hostile =
            Array.to_list cells
            |> List.filter_map (fun (c', k, cell) ->
                   match k with `Volley when c' = c -> Some cell | _ -> None)
          in
          evaluated := (c, aggregate ~steady ~hostile) :: !evaluated)
        fresh
    end
  in
  let best () =
    List.fold_left
      (fun acc (c, a) ->
        match acc with
        | Some (_, a') when score a' >= score a -> acc
        | _ -> Some (c, a))
      None !evaluated
    |> Option.get
  in
  eval [ clamp_config C.default_config; clamp_config C.untuned_config ];
  let rec climb round =
    if round < rounds then begin
      let b, ba = best () in
      eval (neighbors b);
      let b', _ = best () in
      if b' <> b then climb (round + 1)
      else pf "  tuner converged after round %d (score stable at util %.3f)\n" (round + 1) ba.min_util
    end
  in
  climb 0;
  (best (), List.rev !evaluated)

(* Pareto frontier over (max steady util, min total overflow, min flaps) *)
let pareto evaluated =
  let overflow a = a.steady_overflow + a.hostile_overflow in
  let dominates (_, a) (_, b) =
    a.min_util >= b.min_util && overflow a <= overflow b
    && a.hostile_osc <= b.hostile_osc
    && (a.min_util > b.min_util || overflow a < overflow b
       || a.hostile_osc < b.hostile_osc)
  in
  List.filter
    (fun p -> not (List.exists (fun q -> dominates q p) evaluated))
    evaluated

(* ---------- reporting ---------- *)

let config_json (c : C.config) =
  Util.J.Obj
    [
      ("check_interval_ms", Util.J.Float (Sim.Time.to_ms C.check_interval));
      ("queue_threshold", Util.J.Int c.C.queue_threshold);
      ("release_threshold", Util.J.Int c.C.release_threshold);
      ("feeder_share", Util.J.Float c.C.feeder_share);
      ("limiter_expiry_ms", Util.J.Float (Sim.Time.to_ms c.C.limiter_expiry));
      ("ramp_factor", Util.J.Float c.C.ramp_factor);
      ("ramp_after_ms", Util.J.Float (Sim.Time.to_ms c.C.ramp_after));
      ( "max_rate_factor",
        if Float.is_finite c.C.max_rate_factor then Util.J.Float c.C.max_rate_factor
        else Util.J.String "inf" );
      ("min_rate_bps", Util.J.Float C.min_rate_bps);
    ]

let cell_json ~scenario ~ratio ~label c =
  Util.J.Obj
    [
      ("scenario", Util.J.String scenario);
      ("offered_ratio", Util.J.Float ratio);
      ("config", Util.J.String label);
      ("utilization", Util.J.Float c.util);
      ("dropped_overflow", Util.J.Int c.overflow);
      ("goodput", Util.J.Int c.goodput);
      ("sent", Util.J.Int c.sent);
      ("oscillations", Util.J.Int c.osc);
      ("p99_queue", Util.J.Int c.p99_q);
      ("max_queue", Util.J.Int c.max_q);
      ("backlog_end", Util.J.Int c.backlog_end);
    ]

let run () =
  Util.heading "E22 adversarial congestion: worst-case workloads + auto-tuner";
  let horizon = Util.scaled ~full:(Sim.Time.s 4) ~smoke:(Sim.Time.ms 1500) in
  let loads = Util.scaled ~full:[ 1.0; 2.0; 4.0 ] ~smoke:[ 1.0; 4.0 ] in
  let rounds = Util.scaled ~full:3 ~smoke:1 in
  pf "bottleneck: 4 sources -> 2 Mb/s trunk, %d B buffer; hierarchy: 3-ary\n"
    buffer_bytes;
  pf "depth-2, 24 hosts; %.1f s simulated per cell.\n" (Sim.Time.to_seconds horizon);

  Util.subheading "closed-loop tuner (steady overload, hill-climb)";
  let (winner, wagg), evaluated = tune ~loads ~rounds ~horizon in
  pf "evaluated %d configs over loads {%s}\n" (List.length evaluated)
    (String.concat ", " (List.map Util.f1 loads));
  pf "winner: share %.2f  threshold %d/%d  expiry %.0f ms  ramp %.2f after %.0f ms  clamp %s\n"
    winner.C.feeder_share winner.C.queue_threshold winner.C.release_threshold
    (Sim.Time.to_ms winner.C.limiter_expiry)
    winner.C.ramp_factor
    (Sim.Time.to_ms winner.C.ramp_after)
    (if Float.is_finite winner.C.max_rate_factor then
       Printf.sprintf "%.1fx" winner.C.max_rate_factor
     else "off");
  pf "  steady: min util %.3f, overflow %d | volley: overflow %d, flaps %d | p99 queue %d\n"
    wagg.min_util wagg.steady_overflow wagg.hostile_overflow wagg.hostile_osc
    wagg.max_p99;
  let front = pareto evaluated in
  pf "pareto frontier: %d of %d evaluated configs\n" (List.length front)
    (List.length evaluated);

  Util.subheading "scenario grid (untuned seed constants vs tuned winner)";
  let scenarios =
    [
      ("steady", steady_cell);
      ("adv_sustained", adv_sustained_cell);
      ("adv_volley", adv_volley_cell);
      ("flash_crowd", flash_cell);
      ("incast", incast_cell);
    ]
  in
  let configs = [ ("untuned", C.untuned_config); ("tuned", winner) ] in
  let grid =
    List.concat_map
      (fun (sname, f) ->
        List.concat_map
          (fun ratio ->
            List.map (fun (label, cfg) -> (sname, f, ratio, label, cfg)) configs)
          loads)
      scenarios
  in
  let cells, sw =
    Util.sweep grid ~f:(fun ~rng ~index:_ (sname, f, ratio, label, cfg) ->
        (sname, ratio, label, f ~rng ~config:cfg ~ratio ~horizon))
  in
  let rows =
    Array.to_list cells
    |> List.map (fun (sname, ratio, label, c) ->
           [
             sname; Util.f1 ratio; label; Util.pct c.util; Util.i c.overflow;
             Util.i c.goodput; Util.i c.sent; Util.i c.osc; Util.i c.p99_q;
             Util.i c.backlog_end;
           ])
  in
  Util.table
    ~header:
      [
        "scenario"; "load"; "config"; "util"; "drops"; "goodput"; "sent";
        "flaps"; "p99 Q"; "backlog";
      ]
    rows;

  (* acceptance: tuned steady holds the floor with zero overflow; hostile
     cells degrade boundedly and oscillate strictly less than untuned *)
  let pick sname label =
    Array.to_list cells
    |> List.filter_map (fun (s, _, l, c) ->
           if s = sname && l = label then Some c else None)
  in
  let tuned_steady = pick "steady" "tuned" in
  let min_util =
    List.fold_left (fun a c -> Float.min a c.util) infinity tuned_steady
  in
  let steady_overflow =
    List.fold_left (fun a c -> a + c.overflow) 0 tuned_steady
  in
  let hostile = [ "adv_sustained"; "adv_volley"; "flash_crowd"; "incast" ] in
  let osc_of label =
    List.fold_left
      (fun a s -> a + List.fold_left (fun a c -> a + c.osc) 0 (pick s label))
      0 hostile
  in
  let osc_untuned = osc_of "untuned" and osc_tuned = osc_of "tuned" in
  let goodput_floor =
    List.fold_left
      (fun a s ->
        List.fold_left (fun a c -> min a c.goodput) a (pick s "tuned"))
      max_int hostile
  in
  pf "\ntuned steady: min util %s, overflow %d | hostile flaps %d vs %d untuned,\n"
    (Util.pct min_util) steady_overflow osc_tuned osc_untuned;
  pf "goodput floor %d\n" goodput_floor;
  let fail = ref false in
  if min_util < 0.95 then begin
    pf "FAIL: tuned steady utilization %s < 95%%\n" (Util.pct min_util);
    fail := true
  end;
  if steady_overflow > 0 then begin
    pf "FAIL: tuned steady dropped %d packets to overflow\n" steady_overflow;
    fail := true
  end;
  if osc_tuned >= osc_untuned then begin
    pf "FAIL: tuned config flaps (%d) not strictly below untuned (%d)\n" osc_tuned
      osc_untuned;
    fail := true
  end;
  if goodput_floor <= 0 then begin
    pf "FAIL: a tuned hostile cell delivered nothing\n";
    fail := true
  end;
  if !fail then exit 1;

  Util.write_json ~exp:"e22"
    (Util.J.Obj
       ([
          ("experiment", Util.J.String "e22");
          ( "description",
            Util.J.String
              "adversarial congestion: (w,rho) worst case, flash crowd, incast, auto-tuner" );
          ("horizon_s", Util.J.Float (Sim.Time.to_seconds horizon));
          ("utilization", Util.J.Float min_util);
          ("dropped_overflow_tuned_steady", Util.J.Int steady_overflow);
          ("oscillation_advantage", Util.J.Int (osc_untuned - osc_tuned));
          ("goodput_floor", Util.J.Int goodput_floor);
          ( "tuner",
            Util.J.Obj
              [
                ("evaluated", Util.J.Int (List.length evaluated));
                ("winner", config_json winner);
                ("winner_min_util", Util.J.Float wagg.min_util);
                ("winner_volley_flaps", Util.J.Int wagg.hostile_osc);
              ] );
          ( "pareto",
            Util.J.List
              (List.map
                 (fun (c, a) ->
                   Util.J.Obj
                     [
                       ("config", config_json c);
                       ("min_util", Util.J.Float a.min_util);
                       ("overflow", Util.J.Int (a.steady_overflow + a.hostile_overflow));
                       ("oscillations", Util.J.Int a.hostile_osc);
                       ("p99_queue", Util.J.Int a.max_p99);
                     ])
                 front) );
          ( "rows",
            Util.J.List
              (Array.to_list cells
              |> List.map (fun (sname, ratio, label, c) ->
                     cell_json ~scenario:sname ~ratio ~label c)) );
        ]
       @ Util.sweep_fields sw));

  pf "\npaper check: the constants the paper leaves open (\"part of on-going\n";
  pf "research\") do matter: the tuned hysteresis/share/expiry point rides the\n";
  pf "trunk at >=95%% with zero overflow under steady 1-4x overload, and holds\n";
  pf "goodput with strictly fewer backpressure flaps than the seed constants\n";
  pf "under (w,rho) worst-case, flash-crowd and incast attack.\n"
