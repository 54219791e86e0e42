(* dir_zipf: the routing directory alone, with no packet layer.

   A depth-3 hierarchical internet with 20 000 named hosts; 8 client
   hosts ask a zipf(s = 1.1) stream of k = 1 route queries, 50 000 per
   pass. Every 10 000 queries a changed load report bumps the route
   epoch, so the pass mixes read-mostly memo hits with periodic
   invalidation and recomputation. s = 1.1 because at s = 0.6 short runs
   swing by half. Packet-path changes must leave this workload flat. *)

module G = Topo.Graph
module D = Dirsvc.Directory

let clients = 8
let zipf_s = 1.1

let sizes (cfg : Pass.config) =
  (* names, queries per pass, queries per epoch, queries per checked sample *)
  if cfg.Pass.smoke then (2_000, 2_000, 500, 500) else (20_000, 50_000, 10_000, 5_000)

(* depth-3 tree sized so no leaf region exceeds ~200 hosts *)
let branching_for names =
  let rec grow b = if b * b * b * 200 >= names then b else grow (b + 1) in
  grow 2

(* Route answers compared on what routing decides: hops and attributes.
   Tokens differ by design (a memo hit keeps its original nonces). *)
let strip answers = List.map (fun (r : D.route_info) -> (r.D.hops, r.D.attrs)) answers

type net = {
  graph : G.t;
  dir : D.t;
  names : Dirsvc.Name.t array;
  hosts : G.node_id array;
  target : int array;  (** per query: index of the host asked for *)
  client : G.node_id array;  (** per query: the host asking *)
  load_link : int;  (** the link whose changing load bumps the epoch *)
  sample : int;  (** queries with [q mod every = sample] are checked *)
}

let setup ~seed ~names ~queries =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let graph, _, hosts =
    G.hierarchical_internet ~rng ~branching:(branching_for names) ~depth:3 ~hosts:names ()
  in
  let dir = D.create graph in
  let name_of =
    Array.map
      (fun h ->
        let name = Dirsvc.Name.of_string (G.name graph h) in
        D.register dir ~name ~node:h;
        name)
      hosts
  in
  (* popularity rank -> host through a shuffle, so popularity is
     unrelated to position in the tree *)
  let rank_of = Array.init names Fun.id in
  Sim.Rng.shuffle rng rank_of;
  let order = Array.init names Fun.id in
  Sim.Rng.shuffle rng order;
  let askers = Array.init clients (fun i -> hosts.(order.(i))) in
  let zipf = Workload.Zipf.create rng ~n:names ~s:zipf_s in
  let target = Array.init queries (fun _ -> rank_of.(Workload.Zipf.draw zipf)) in
  (* a host asking for itself gets no route; its neighbour client asks *)
  let client =
    Array.init queries (fun q ->
        let c = askers.(q mod clients) in
        if c = hosts.(target.(q)) then askers.((q + 1) mod clients) else c)
  in
  let links = Array.of_list (G.links graph) in
  let load_link = links.(Sim.Rng.int rng (Array.length links)).G.link_id in
  { graph; dir; names = name_of; hosts; target; client; load_link; sample = Sim.Rng.int rng 5_000 }

(* a different utilization at every epoch, so every report changes it *)
let load epoch = 0.05 +. (0.01 *. float_of_int epoch)

type trace = { hit : Probe.span; miss : Probe.span }

type run = {
  queries : int;
  answered : int;
  wall_ns : int;
  words : float;
  setup_s : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  hits : int;
  misses : int;
  spt_builds : int;
  first_answer : D.route_info;
}

let pass (cfg : Pass.config) ~queries ?trace () =
  let names, _, epoch_every, sample_every = sizes cfg in
  let t_setup = Probe.now_ns () in
  let net = setup ~seed:cfg.Pass.seed ~names ~queries in
  let setup_s = Probe.seconds_since t_setup in
  (* the reference answers every sampled query the slow way: no memo,
     one early-exit Dijkstra per query *)
  let reference = D.create ~answer_cache:0 ~spt_cache:0 net.graph in
  Array.iteri (fun i h -> D.register reference ~name:net.names.(i) ~node:h) net.hosts;
  let latency = Array.make queries 0 in
  let answered = ref 0 in
  let wall_ns = ref 0 and words = ref 0.0 in
  let first = ref None in
  Gc.full_major ();
  let epochs = (queries + epoch_every - 1) / epoch_every in
  for epoch = 0 to epochs - 1 do
    let lo = epoch * epoch_every and hi = min queries ((epoch + 1) * epoch_every) in
    let checked = ref [] in
    let w0 = Probe.words () in
    let t0 = Probe.now_ns () in
    if epoch > 0 then D.report_load net.dir ~link_id:net.load_link ~utilization:(load epoch);
    for q = lo to hi - 1 do
      let target = net.names.(net.target.(q)) and client = net.client.(q) in
      let answer =
        match trace with
        | None ->
          let t = Probe.now_ns () in
          let a = D.query net.dir ~client ~target ~k:1 () in
          latency.(q) <- Probe.now_ns () - t;
          a
        | Some tr ->
          let h0 = D.cache_hits net.dir in
          let t = Probe.now_ns () in
          let w = Probe.minor () in
          let a = D.query net.dir ~client ~target ~k:1 () in
          let w' = Probe.minor () in
          let t' = Probe.now_ns () in
          latency.(q) <- t' - t;
          Probe.record
            (if D.cache_hits net.dir > h0 then tr.hit else tr.miss)
            ~ns:(t' - t) ~words:(w' - w);
          a
      in
      (match answer with [] -> () | _ :: _ -> incr answered);
      if q mod sample_every = net.sample mod sample_every then checked := (q, answer) :: !checked
    done;
    wall_ns := !wall_ns + (Probe.now_ns () - t0);
    words := !words +. (Probe.words () -. w0);
    (* untimed: the same queries against the reference at the same epoch *)
    if epoch > 0 then D.report_load reference ~link_id:net.load_link ~utilization:(load epoch);
    List.iter
      (fun (q, answer) ->
        if !first = None then first := List.nth_opt answer 0;
        let cold =
          D.query reference ~client:net.client.(q) ~target:net.names.(net.target.(q)) ~k:1 ()
        in
        if strip cold <> strip answer then
          Report.fail "query %d: memoized answer differs from the cold reference" q)
      !checked
  done;
  Report.tally ~attempted:queries ~failed:(queries - !answered);
  let p50, p90, p99 = Pass.latency_us latency queries in
  let first_answer =
    match !first with Some a -> a | None -> Report.fail "no sampled query was answered"
  in
  {
    queries;
    answered = !answered;
    wall_ns = !wall_ns;
    words = !words;
    setup_s;
    p50_us = p50;
    p90_us = p90;
    p99_us = p99;
    hits = D.cache_hits net.dir;
    misses = D.cache_misses net.dir;
    spt_builds = D.spt_builds net.dir;
    first_answer;
  }

let rate r = Stats.ratio (float_of_int r.queries) (float_of_int r.wall_ns *. 1e-9)

let full_queries cfg =
  let _, queries, _, _ = sizes cfg in
  queries

let warmup cfg = ignore (pass cfg ~queries:(Pass.warmup_size (full_queries cfg)) ())

let timed cfg =
  let r = pass cfg ~queries:(full_queries cfg) () in
  {
    Pass.rate = rate r;
    serial_rate = rate r;
    words_per_op = r.words /. float_of_int r.queries;
    p50_us = r.p50_us;
    p90_us = r.p90_us;
    p99_us = r.p99_us;
    samples = r.queries;
    setups = [ r.setup_s ];
  }

(* Untraced and traced passes, alternated; the hit and miss spans
   accumulate over the traced passes. *)
let layers cfg =
  let queries = full_queries cfg in
  let cost = Probe.calibrate () in
  let tr = { hit = Probe.span (); miss = Probe.span () } in
  let runs =
    Pass.alternate cfg (fun () -> pass cfg ~queries ()) (fun () -> pass cfg ~queries ~trace:tr ())
  in
  let plain, traced = List.hd runs in
  let median_rate side = Stats.median (List.map (fun run -> rate (side run)) runs) in
  let answer = plain.first_answer in
  let first_router =
    match answer.D.hops with
    | _ :: { G.at; _ } :: _ -> at
    | _ -> Report.fail "the sampled answer crosses no router"
  in
  let ops =
    Ops.measure ~smoke:cfg.Pass.smoke
      { Ops.route = answer.D.route; first_router; data_len = 64; depth = 0 }
  in
  [
    ( "dirsvc.hit_ratio",
      Stats.ratio (float_of_int traced.hits) (float_of_int (traced.hits + traced.misses)) );
    ("dirsvc.hit_ns_mean", Probe.ns_per_call cost tr.hit);
    ("dirsvc.miss_ns_mean", Probe.ns_per_call cost tr.miss);
    ("dirsvc.spt_builds", float_of_int traced.spt_builds);
    ( "dirsvc.words_per_query",
      Stats.ratio
        (Probe.net_words cost tr.hit +. Probe.net_words cost tr.miss)
        (float_of_int (tr.hit.Probe.count + tr.miss.Probe.count)) );
    ("trace.overhead_ratio", Stats.ratio (median_rate snd) (median_rate fst));
    ( "ledger.loss_ratio",
      Stats.ratio (float_of_int (plain.queries - plain.answered)) (float_of_int plain.queries) );
  ]
  @ Ops.metrics ops
