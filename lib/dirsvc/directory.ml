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
   is the point). A stale tree is rebuilt in its own arrays. *)
type answer_entry = { a_epoch : int; a_answer : route_info list }
type spt_entry = { mutable s_epoch : int; s_spt : G.spt }

(* what the LRUs return on a miss *)
let no_answer = { a_epoch = -1; a_answer = [] }
let no_spt = { s_epoch = -1; s_spt = G.spt_create () }

type t = {
  graph : G.t;
  names : Name_store.t;
  by_node : (G.node_id, Name.t) Hashtbl.t;
  secure_links : (int, unit) Hashtbl.t;
  link_costs : (int, float) Hashtbl.t;
  load : (int, float) Hashtbl.t;
  answers : answer_entry Lru.t;
      (** memo of the last answer per {!answer_key}: the zipf fast path,
          and what frozen-directory staleness replays *)
  spts : spt_entry Lru.t;
      (** one shortest-path tree per (src, selector): N queries from one
          busy client cost 1 Dijkstra, not N *)
  weights : float array array;
      (** per selector, each link's weight at [weights_epoch]: what the
          trees and Yen's searches read *)
  weights_epoch : int array;
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
    answers = Lru.create ~on_evict ~cap:answer_cache ~absent:no_answer ();
    spts = Lru.create ~on_evict ~cap:spt_cache ~absent:no_spt ();
    weights = Array.make 4 [||];
    weights_epoch = Array.make 4 (-1);
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
let lookup_name t name = Name_store.node_of_id t.names (Name_store.find t.names name)
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

(* read per link as a weight table fills: neither allocates *)
let load_of t link_id = match Hashtbl.find t.load link_id with u -> u | exception Not_found -> 0.0

let admin_cost t link_id =
  match Hashtbl.find t.link_costs link_id with c -> c | exception Not_found -> 1.0

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

(* Inlined, as is [route_metric], and calling no function that returns
   a float, so a weight lands in its table unboxed in any build. *)
let[@inline] delay_metric t (l : G.link) =
  (* One-way latency for a representative 512-byte packet, loaded links
     penalized so advisories steer around congestion. *)
  let tx = Sim.Time.transmission ~bits:4096 ~rate_bps:l.G.props.G.bandwidth_bps in
  let base = float_of_int (l.G.props.G.propagation + tx) /. 1e9 in
  base *. (1.0 +. (4.0 *. load_of t l.G.link_id)) +. 1e-9

let[@inline] route_metric t selector (l : G.link) =
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

let selector_index = function
  | Lowest_delay -> 0
  | Highest_bandwidth -> 1
  | Lowest_cost -> 2
  | Secure -> 3

(* The selector's weight table at [epoch]: refilled in place, link by
   link, the first time it is asked for at a new epoch. *)
let weights_for t selector ~epoch =
  let i = selector_index selector in
  if t.weights_epoch.(i) <> epoch then begin
    G.iter_links t.graph (fun l ->
        let id = l.G.link_id in
        (* the first link is the newest, so this grows the table at most once *)
        if id >= Array.length t.weights.(i) then t.weights.(i) <- Array.make (id + 1) 0.0;
        t.weights.(i).(id) <- route_metric t selector l);
    t.weights_epoch.(i) <- epoch
  end;
  t.weights.(i)

(* One pass over a candidate's hops: the route's attributes, or [None]
   when a link has vanished (counted: the candidate is dropped rather
   than raising into the client callback) or, for [Secure], is not
   secure. [cost] sums the links' weights in hop order. *)
let attributes t selector weights hops =
  let rec go hops mtu bandwidth_bps propagation links cost secure =
    match hops with
    | [] ->
      let hop_count = max 0 (links - 1) in
      let tx_full = Sim.Time.transmission ~bits:(8 * mtu) ~rate_bps:bandwidth_bps in
      let rtt_estimate = 2 * (propagation + tx_full + (hop_count * Sim.Time.us 1)) in
      if secure then Some { mtu; bandwidth_bps; propagation; hop_count; rtt_estimate; cost }
      else None
    | { G.at; out } :: rest -> (
      match G.link_at t.graph at out with
      | exception Not_found ->
        C.incr t.dropped_candidates;
        None
      | { G.link_id; props = p; _ } ->
        go rest (Int.min mtu p.G.mtu) (Int.min bandwidth_bps p.G.bandwidth_bps)
          (propagation + p.G.propagation) (links + 1) (cost +. weights.(link_id))
          (secure && (selector <> Secure || is_secure t link_id)))
  in
  go hops max_int max_int 0 0 0.0 true

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
        (Token.Capability.mint_fields (router_key t at) ~nonce:t.nonce ~router_id:at ~port:out
           ~max_priority:priority ~reverse_ok:true ~account:client ~packet_limit:0 ~expiry_ms:0
          :> bytes))
      router_hops

let set_frozen t frozen = t.frozen <- frozen

(* Answer keys pack (client, target, selector, k) into one int, high to
   low: 26 bits each of client and target, 2 of selector, 8 of k — 62
   bits in all, so every key is a distinct non-negative int. *)
let id_bits = 26
let k_bits = 8

let answer_key ~client ~target ~selector ~k =
  if (client lor target) lsr id_bits <> 0 || k lsr k_bits <> 0 then
    invalid_arg "Directory.answer_key: out of range";
  (((((client lsl id_bits) lor target) lsl 2) lor selector_index selector) lsl k_bits) lor k

(* The memoized shortest-path tree for (src, selector) at the current
   epoch: a stale one is rebuilt in its own arrays, a missing one made
   (each counted as a build). *)
let spt_for t ~src ~selector ~weights ~epoch =
  let key = (src lsl 2) lor selector_index selector in
  let e =
    match Lru.find t.spts key with
    | e when e != no_spt -> e
    | _ ->
      let e = { s_epoch = -1; s_spt = G.spt_create () } in
      Lru.set t.spts key e;
      e
  in
  if e.s_epoch <> epoch then begin
    C.incr t.spt_builds;
    G.spt_rebuild t.graph ~weights e.s_spt ~src;
    e.s_epoch <- epoch
  end;
  e.s_spt

(* Candidate hop lists, best first. k = 1 answers from the memoized SPT
   (bit-identical to a fresh Dijkstra — see Topo.Graph.spt_path); the
   k-alternates keep Yen's machinery and are only paid on a memo miss.
   With the SPT cache disabled, k = 1 takes the per-query Dijkstra path —
   the "cold" reference configuration. *)
let compute_answer t ~client ~dst ~selector ~k ~priority ~epoch =
  let weights = weights_for t selector ~epoch in
  let paths =
    if k = 1 && Lru.enabled t.spts then
      Option.to_list (G.spt_path (spt_for t ~src:client ~selector ~weights ~epoch) ~dst)
    else G.k_shortest_paths_weighted t.graph ~weights ~src:client ~dst ~k
  in
  List.filter_map
    (fun hops ->
      match attributes t selector weights hops with
      | Some attrs when hops <> [] ->
        let tokens = mint_tokens t ~client ~priority hops in
        let route = Sirpent.Route.of_hops ~priority ~tokens t.graph ~src:client hops in
        Some { hops; route; attrs }
      | _ -> None)
    paths

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let query t ~client ~target ?(selector = Lowest_delay) ?(k = 2)
    ?(priority = Token.Priority.highest) () =
  let t0 = now_ns () in
  C.incr t.queries_served;
  let epoch = epoch t in
  let target_id = Name_store.find t.names target in
  let answer =
    if target_id < 0 then []
    else begin
      let key = answer_key ~client ~target:target_id ~selector ~k in
      let entry = Lru.find t.answers key in
      (* a frozen directory replays its memo even over dead links:
         clients must discover route death on use (§3 fault model) *)
      if entry != no_answer && (t.frozen || entry.a_epoch = epoch) then begin
        C.incr (if t.frozen then t.stale_served else t.cache_hits);
        entry.a_answer
      end
      else
        match Name_store.node_of_id t.names target_id with
        | None -> []
        | Some dst ->
          if dst = client then []
          else begin
            C.incr t.cache_misses;
            let answer = compute_answer t ~client ~dst ~selector ~k ~priority ~epoch in
            Lru.set t.answers key { a_epoch = epoch; a_answer = answer };
            Gauge.set t.cache_entries (float_of_int (Lru.length t.answers + Lru.length t.spts));
            answer
          end
    end
  in
  H.observe t.query_us ((now_ns () - t0) / 1000);
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
