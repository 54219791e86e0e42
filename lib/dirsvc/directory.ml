module G = Topo.Graph
module C = Telemetry.Registry.Counter
module Gauge = Telemetry.Registry.Gauge
module H = Telemetry.Registry.Hist

type selector = Lowest_delay | Highest_bandwidth | Lowest_cost | Secure

type attributes = {
  mtu : int;
  bandwidth_bps : int;
  propagation : Sim.Time.t;
  hop_count : int;
  rtt_estimate : Sim.Time.t;
  cost : float;
}

type route_info = {
  hops : G.hop list;
  route : Sirpent.Route.t;
  attrs : attributes;
}

(* Cached values carry the epoch they were computed under; an entry whose
   epoch no longer matches is a miss (except while frozen, when staleness
   is the point). *)
type answer_entry = { a_epoch : int; a_answer : route_info list }
type spt_entry = { s_epoch : int; s_spt : G.spt }

(* answers key: (client, target id, selector index, k) — all ints, no
   string formatting on the query path *)
type answer_key = int * int * int * int

type t = {
  graph : G.t;
  names : Name_store.t;
  by_node : (G.node_id, Name.t) Hashtbl.t;
  secure_links : (int, unit) Hashtbl.t;
  link_costs : (int, float) Hashtbl.t;
  load : (int, float) Hashtbl.t;
  answers : (answer_key, answer_entry) Lru.t;
      (** memo of the last answer per query key: the zipf fast path, and
          what frozen-directory staleness replays *)
  spts : (int * int, spt_entry) Lru.t;
      (** one shortest-path tree per (src, selector): N queries from one
          busy client cost 1 Dijkstra, not N *)
  mutable dirty : int;
      (** local epoch half: load / cost / security changes. The effective
          epoch adds the graph's topology version. *)
  mutable frozen : bool;
  mutable nonce : int;
  mutable keys : Token.Cipher.key array;
      (** each router's token key, by node id: [no_key] until first minted *)
  queries_served : C.t;
  tokens_minted : C.t;
  stale_served : C.t;
  cache_hits : C.t;
  cache_misses : C.t;
  cache_evictions : C.t;
  spt_builds : C.t;
  dropped_candidates : C.t;
  cache_entries : Gauge.t;
  query_us : H.t;
}

(* a placeholder compared by address, never minted with *)
let no_key = Token.Cipher.key_of_int64 0L

(* the price of each hierarchy level a resolution walks *)
let per_level_rtt = Sim.Time.ms 2

let default_answer_cache = 4096
let default_spt_cache = 64

let create ?telemetry ?(answer_cache = default_answer_cache) ?(spt_cache = default_spt_cache)
    graph =
  (* The directory is not a node in the simulated world, so it has no world
     registry of its own; pass [telemetry] (e.g. [Netsim.World.metrics w])
     to fold its counters into a simulation snapshot. *)
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let cnt ?help name =
    Telemetry.Registry.counter registry ?help ("dirsvc_" ^ name)
  in
  let evictions = cnt "cache_evictions" ~help:"LRU evictions (answers + SPTs)" in
  let on_evict _ _ = C.incr evictions in
  {
    graph;
    names = Name_store.create ();
    by_node = Hashtbl.create 64;
    secure_links = Hashtbl.create 16;
    link_costs = Hashtbl.create 16;
    load = Hashtbl.create 16;
    answers = Lru.create ~on_evict ~cap:answer_cache ();
    spts = Lru.create ~on_evict ~cap:spt_cache ();
    dirty = 0;
    frozen = false;
    nonce = 0;
    keys = [||];
    queries_served = cnt "queries_served";
    tokens_minted = cnt "tokens_minted";
    stale_served = cnt "stale_served" ~help:"answers replayed from cache while frozen";
    cache_hits = cnt "cache_hits" ~help:"queries answered from the memoized answer table";
    cache_misses = cnt "cache_misses" ~help:"queries that ran route computation";
    cache_evictions = evictions;
    spt_builds = cnt "spt_builds" ~help:"full Dijkstra runs (SPT constructions)";
    dropped_candidates =
      cnt "dropped_candidates"
        ~help:"candidate paths dropped because a link vanished mid-query";
    cache_entries =
      Telemetry.Registry.gauge registry "dirsvc_cache_entries"
        ~help:"resident cached entries (answers + SPTs)";
    query_us =
      Telemetry.Registry.histogram registry "dirsvc_query_us"
        ~help:"host wall time per directory query, microseconds";
  }

(* Effective epoch: both halves are monotone, so the sum changes whenever
   load/cost/security reports change (dirty) or links come and go (the
   graph's version). *)
let epoch t = t.dirty + G.version t.graph

let graph t = t.graph

let invalidate_routes t = t.dirty <- t.dirty + 1

let register t ~name ~node =
  let id = Name_store.intern t.names name in
  Name_store.bind t.names id node;
  Hashtbl.replace t.by_node node name

let intern_name t name = Name_store.intern t.names name
let registered_names t = Name_store.size t.names
let lookup_name t name = Name_store.find_node t.names name
let name_of_node t node = Hashtbl.find_opt t.by_node node

let enumerate_region t prefix =
  List.filter_map
    (fun id ->
      match Name_store.node_of_id t.names id with
      | Some node -> Some (Name_store.name_of_id t.names id, node)
      | None -> None)
    (Name_store.subtree t.names prefix)

let set_link_secure t ~link_id secure =
  let was = Hashtbl.mem t.secure_links link_id in
  if secure <> was then begin
    if secure then Hashtbl.replace t.secure_links link_id ()
    else Hashtbl.remove t.secure_links link_id;
    invalidate_routes t
  end

let load_of t link_id = Option.value ~default:0.0 (Hashtbl.find_opt t.load link_id)

let admin_cost t link_id =
  Option.value ~default:1.0 (Hashtbl.find_opt t.link_costs link_id)

let set_link_cost t ~link_id c =
  if admin_cost t link_id <> c then begin
    Hashtbl.replace t.link_costs link_id c;
    invalidate_routes t
  end

let report_load t ~link_id ~utilization =
  (* only a changed report dirties the epoch: idle links re-reporting 0.0
     (including the first report of an idle link) must not flush warm caches *)
  if load_of t link_id <> utilization then begin
    Hashtbl.replace t.load link_id utilization;
    invalidate_routes t
  end

let is_secure t link_id = Hashtbl.mem t.secure_links link_id

let insecure_penalty = 1e7

let delay_metric t (l : G.link) =
  (* One-way latency for a representative 512-byte packet, loaded links
     penalized so advisories steer around congestion. *)
  let tx = Sim.Time.transmission ~bits:4096 ~rate_bps:l.G.props.G.bandwidth_bps in
  let base = Sim.Time.to_seconds (l.G.props.G.propagation + tx) in
  base *. (1.0 +. (4.0 *. load_of t l.G.link_id)) +. 1e-9

let metric_for t selector (l : G.link) =
  match selector with
  | Lowest_delay -> delay_metric t l
  | Highest_bandwidth ->
    (* Shortest path under inverse bandwidth approximates widest-path for
       tree-like internets; documented approximation. *)
    1e9 /. float_of_int l.G.props.G.bandwidth_bps
  | Lowest_cost -> admin_cost t l.G.link_id
  | Secure ->
    if is_secure t l.G.link_id then delay_metric t l
    else insecure_penalty +. delay_metric t l

let route_metric t selector l = metric_for t selector l

(* Resolve a candidate path's links once; a vanished link drops the
   candidate (counted) instead of raising into the client callback. *)
let resolve_links t hops =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | { G.at; out } :: rest -> (
      match G.link_via t.graph at out with
      | Some l -> go (l :: acc) rest
      | None ->
        C.incr t.dropped_candidates;
        None)
  in
  go [] hops

let attributes_of_links t selector links =
  let mtu = List.fold_left (fun acc l -> min acc l.G.props.G.mtu) max_int links in
  let bandwidth_bps =
    List.fold_left (fun acc l -> min acc l.G.props.G.bandwidth_bps) max_int links
  in
  let propagation =
    List.fold_left (fun acc l -> acc + l.G.props.G.propagation) 0 links
  in
  let hop_count = max 0 (List.length links - 1) in
  let tx_full = Sim.Time.transmission ~bits:(8 * mtu) ~rate_bps:bandwidth_bps in
  let per_hop = Sim.Time.us 1 in
  let rtt_estimate = 2 * (propagation + tx_full + (hop_count * per_hop)) in
  let cost =
    List.fold_left (fun acc l -> acc +. metric_for t selector l) 0.0 links
  in
  { mtu; bandwidth_bps; propagation; hop_count; rtt_estimate; cost }

(* Router [at]'s token key, derived on its first token only. *)
let router_key t at =
  let n = Array.length t.keys in
  if at >= n then begin
    let keys = Array.make (max (at + 1) (max 64 (2 * n))) no_key in
    Array.blit t.keys 0 keys 0 n;
    t.keys <- keys
  end;
  let k = t.keys.(at) in
  if k != no_key then k
  else begin
    let k = Token.Cipher.random_looking_key at in
    t.keys.(at) <- k;
    k
  end

let mint_tokens t ~client ~priority hops =
  (* One token per router hop (hops after the client's own first hop). *)
  match hops with
  | [] -> []
  | _ :: router_hops ->
    List.map
      (fun { G.at; out } ->
        t.nonce <- (t.nonce + 1) land 0xFF;
        C.incr t.tokens_minted;
        let grant =
          {
            Token.Capability.router_id = at;
            port = out;
            max_priority = priority;
            reverse_ok = true;
            account = client;
            packet_limit = 0;
            expiry_ms = 0;
          }
        in
        (Token.Capability.mint (router_key t at) ~nonce:t.nonce grant :> bytes))
      router_hops

let all_secure t links = List.for_all (fun l -> is_secure t l.G.link_id) links

let selector_index = function
  | Lowest_delay -> 0
  | Highest_bandwidth -> 1
  | Lowest_cost -> 2
  | Secure -> 3

let set_frozen t frozen = t.frozen <- frozen

let update_entries_gauge t =
  Gauge.set t.cache_entries (float_of_int (Lru.length t.answers + Lru.length t.spts))

(* The memoized shortest-path tree for (src, selector) at the current
   epoch, building (and counting) one if absent or stale. *)
let spt_for t ~src ~selector ~epoch =
  let key = (src, selector_index selector) in
  match Lru.find t.spts key with
  | Some e when e.s_epoch = epoch -> e.s_spt
  | _ ->
    C.incr t.spt_builds;
    let spt = G.shortest_path_tree t.graph ~metric:(metric_for t selector) ~src in
    Lru.set t.spts key { s_epoch = epoch; s_spt = spt };
    spt

(* Candidate hop lists, best first. k = 1 answers from the memoized SPT
   (bit-identical to a fresh Dijkstra — see Topo.Graph.spt_path); the
   k-alternates keep Yen's machinery and are only paid on a memo miss.
   With the SPT cache disabled, k = 1 takes the per-query Dijkstra path —
   the "cold" reference configuration. *)
let candidate_paths t ~client ~dst ~selector ~k ~epoch =
  if k = 1 && Lru.enabled t.spts then
    match G.spt_path (spt_for t ~src:client ~selector ~epoch) ~dst with
    | None | Some [] -> []
    | Some hops -> [ hops ]
  else
    G.k_shortest_paths t.graph ~metric:(metric_for t selector) ~src:client ~dst ~k

let compute_answer t ~client ~dst ~selector ~k ~priority ~epoch =
  let paths = candidate_paths t ~client ~dst ~selector ~k ~epoch in
  List.filter_map
    (fun hops ->
      match hops with
      | [] -> None
      | _ -> (
        match resolve_links t hops with
        | None -> None
        | Some links ->
          if selector = Secure && not (all_secure t links) then None
          else begin
            let tokens = mint_tokens t ~client ~priority hops in
            let route =
              Sirpent.Route.of_hops ~priority ~tokens t.graph ~src:client hops
            in
            Some { hops; route; attrs = attributes_of_links t selector links }
          end))
    paths

let query t ~client ~target ?(selector = Lowest_delay) ?(k = 2)
    ?(priority = Token.Priority.highest) () =
  let t0 = Unix.gettimeofday () in
  C.incr t.queries_served;
  let epoch = epoch t in
  let answer =
    match Name_store.find t.names target with
    | None -> []
    | Some target_id -> (
      let key = (client, target_id, selector_index selector, k) in
      match Lru.find t.answers key with
      | Some entry when t.frozen ->
        (* a frozen directory replays its memo even over dead links:
           clients must discover route death on use (§3 fault model) *)
        C.incr t.stale_served;
        entry.a_answer
      | Some entry when entry.a_epoch = epoch ->
        C.incr t.cache_hits;
        entry.a_answer
      | Some _ | None -> (
        match Name_store.node_of_id t.names target_id with
        | None -> []
        | Some dst ->
          if dst = client then []
          else begin
            C.incr t.cache_misses;
            let answer = compute_answer t ~client ~dst ~selector ~k ~priority ~epoch in
            Lru.set t.answers key { a_epoch = epoch; a_answer = answer };
            update_entries_gauge t;
            answer
          end))
  in
  H.observe t.query_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  answer

let query_latency t ~client ~target =
  let levels =
    match name_of_node t client with
    | Some client_name -> Name.hierarchy_distance client_name target + 1
    | None -> Name.depth (Name.region target) + 1
  in
  levels * per_level_rtt

let queries_served t = C.value t.queries_served
let stale_served t = C.value t.stale_served
let cache_hits t = C.value t.cache_hits
let cache_misses t = C.value t.cache_misses
let cache_evictions t = C.value t.cache_evictions
let spt_builds t = C.value t.spt_builds
let dropped_candidates t = C.value t.dropped_candidates
let cache_entries t = Lru.length t.answers + Lru.length t.spts
let query_percentile_us t p = H.percentile t.query_us p
