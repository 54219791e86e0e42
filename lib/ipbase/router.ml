module G = Topo.Graph
module W = Netsim.World

type routing = Static | Linkstate of Linkstate.config

type config = { routing : routing }

let default_config = { routing = Static }
let process_time = Sim.Time.us 100

type stats = {
  forwarded : int;
  dropped_ttl : int;
  dropped_checksum : int;
  dropped_no_route : int;
  fragments_created : int;
  delivered_local : int;
}

type t = {
  world : W.t;
  node : G.node_id;
  config : config;
  static_table : (G.node_id, G.port) Hashtbl.t;
  linkstate : Linkstate.t option;
  mutable forwarded : int;
  mutable dropped_ttl : int;
  mutable dropped_checksum : int;
  mutable dropped_no_route : int;
  mutable fragments_created : int;
  mutable delivered_local : int;
}

let stats t =
  {
    forwarded = t.forwarded;
    dropped_ttl = t.dropped_ttl;
    dropped_checksum = t.dropped_checksum;
    dropped_no_route = t.dropped_no_route;
    fragments_created = t.fragments_created;
    delivered_local = t.delivered_local;
  }

let linkstate t = t.linkstate

(* static tables from the current global topology: an oracle
   reconvergence *)
let recompute_static t =
  Hashtbl.reset t.static_table;
  let g = W.graph t.world in
  let metric (l : G.link) = 1.0 +. (1e8 /. float_of_int l.G.props.G.bandwidth_bps) in
  G.iter_nodes g (fun dst ->
      if dst <> t.node then
        match G.shortest_path g ~metric ~src:t.node ~dst with
        | Some ({ G.at = _; out } :: _) -> Hashtbl.replace t.static_table dst out
        | Some [] | None -> ())

let next_hop t ~dst =
  match t.linkstate with
  | Some ls -> Linkstate.next_hop ls ~dst
  | None -> Hashtbl.find_opt t.static_table dst

let table_size t =
  match t.linkstate with
  | Some ls -> Linkstate.lsdb_entries ls
  | None -> Hashtbl.length t.static_table

let forward t packet =
  if not (Header.checksum_ok packet) then
    t.dropped_checksum <- t.dropped_checksum + 1
  else begin
    let packet = Bytes.copy packet in
    let ttl = Header.decrement_ttl packet in
    if ttl <= 0 then t.dropped_ttl <- t.dropped_ttl + 1
    else begin
      let h = Header.decode packet in
      let dst_node = Header.node_of_addr h.Header.dst in
      if dst_node = t.node then t.delivered_local <- t.delivered_local + 1
      else
        match next_hop t ~dst:dst_node with
        | None -> t.dropped_no_route <- t.dropped_no_route + 1
        | Some port -> (
          let mtu =
            match G.link_via (W.graph t.world) t.node port with
            | Some l -> l.G.props.G.mtu
            | None -> max_int
          in
          match Frag.fragment packet ~mtu with
          | exception Failure _ -> t.dropped_no_route <- t.dropped_no_route + 1
          | fragments ->
            if List.length fragments > 1 then
              t.fragments_created <- t.fragments_created + List.length fragments;
            List.iter
              (fun fragment_bytes ->
                let frame = W.fresh_frame t.world fragment_bytes in
                (match W.send t.world ~node:t.node ~port frame with
                | W.Started | W.Started_preempting _ | W.Queued ->
                  t.forwarded <- t.forwarded + 1
                | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link -> ()))
              fragments)
    end
  end

let handle t _world ~in_port ~frame ~head:_ ~tail =
  let consumed =
    match t.linkstate, frame.Netsim.Frame.meta with
    | Some ls, Some meta -> Linkstate.handle_meta ls ~in_port meta
    | _, Some _ -> true (* foreign control traffic: ignore *)
    | _, None -> false
  in
  if not consumed then
    Sim.Engine.schedule_at (W.engine t.world)
      ~time:(max (W.now t.world) tail + process_time)
      (fun () -> forward t (Netsim.Frame.contents frame))

let create ?(config = default_config) world ~node () =
  let linkstate =
    match config.routing with
    | Static -> None
    | Linkstate ls_config -> Some (Linkstate.create world ~node ls_config)
  in
  let t =
    {
      world;
      node;
      config;
      static_table = Hashtbl.create 64;
      linkstate;
      forwarded = 0;
      dropped_ttl = 0;
      dropped_checksum = 0;
      dropped_no_route = 0;
      fragments_created = 0;
      delivered_local = 0;
    }
  in
  W.set_handler world node (handle t);
  (match config.routing with
  | Static -> recompute_static t
  | Linkstate _ -> Option.iter Linkstate.start linkstate);
  t
