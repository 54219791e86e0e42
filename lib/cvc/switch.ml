module G = Topo.Graph
module W = Netsim.World

(* call processing per setup *)
let setup_process_time = Sim.Time.us 500

(* label swap + queue *)
let data_process_time = Sim.Time.us 20

type stats = {
  setups_handled : int;
  setups_refused : int;
  data_forwarded : int;
  data_no_circuit : int;
  releases : int;
}

type entry = { out_port : G.port; out_vci : int; call_id : int; reserve_bps : int }

type t = {
  world : W.t;
  node : G.node_id;
  table : (G.port * int, entry) Hashtbl.t;  (* (in_port, in_vci) -> next hop *)
  calls : (int, (G.port * int) list) Hashtbl.t;  (* call_id -> table keys *)
  reserved : (G.port, int) Hashtbl.t;
  route_table : (G.node_id, G.port) Hashtbl.t;
  mutable vci_counter : int;
  mutable setups_handled : int;
  mutable setups_refused : int;
  mutable data_forwarded : int;
  mutable data_no_circuit : int;
  mutable releases : int;
}


let stats t =
  {
    setups_handled = t.setups_handled;
    setups_refused = t.setups_refused;
    data_forwarded = t.data_forwarded;
    data_no_circuit = t.data_no_circuit;
    releases = t.releases;
  }

let circuit_entries t = Hashtbl.length t.table
let reserved_bps t ~port = Option.value ~default:0 (Hashtbl.find_opt t.reserved port)

let recompute_routes t =
  Hashtbl.reset t.route_table;
  let g = W.graph t.world in
  let spt = G.shortest_path_tree g ~metric:G.bandwidth_metric ~src:t.node in
  G.iter_nodes g (fun dst ->
      match G.spt_path spt ~dst with
      | Some ({ G.out; _ } :: _) -> Hashtbl.replace t.route_table dst out
      | Some [] | None -> ())

let capacity t port =
  match G.link_via (W.graph t.world) t.node port with
  | Some l -> l.G.props.G.bandwidth_bps
  | None -> 0

let peer_of t port =
  match G.link_via (W.graph t.world) t.node port with
  | Some l -> Some (fst (G.peer l t.node))
  | None -> None

let send_meta t ~port ~meta =
  let frame =
    W.fresh_frame t.world ~priority:Token.Priority.highest ~meta
      (Bytes.create Signal.setup_bytes)
  in
  ignore (W.send t.world ~node:t.node ~port frame)

let reserve t ~port ~bps =
  Hashtbl.replace t.reserved port (reserved_bps t ~port + bps)

let unreserve t ~port ~bps =
  Hashtbl.replace t.reserved port (max 0 (reserved_bps t ~port - bps))

let remember_call t ~call_id key =
  let keys = Option.value ~default:[] (Hashtbl.find_opt t.calls call_id) in
  Hashtbl.replace t.calls call_id (key :: keys)

let release_call t ~call_id =
  match Hashtbl.find_opt t.calls call_id with
  | None -> ()
  | Some keys ->
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | Some entry ->
          unreserve t ~port:entry.out_port ~bps:entry.reserve_bps;
          Hashtbl.remove t.table key
        | None -> ())
      keys;
    Hashtbl.remove t.calls call_id;
    t.releases <- t.releases + 1

let handle_setup t ~in_port ~call_id ~dst ~reserve_bps ~vci =
  t.setups_handled <- t.setups_handled + 1;
  match Hashtbl.find_opt t.route_table dst with
  | None ->
    t.setups_refused <- t.setups_refused + 1;
    send_meta t ~port:in_port
      ~meta:(Signal.Release { call_id; vci; reason = "no route" })
  | Some out_port ->
    if reserved_bps t ~port:out_port + reserve_bps > capacity t out_port then begin
      t.setups_refused <- t.setups_refused + 1;
      send_meta t ~port:in_port
        ~meta:(Signal.Release { call_id; vci; reason = "admission" })
    end
    else begin
      let peer = Option.value ~default:(-1) (peer_of t out_port) in
      let out_vci =
        Signal.alloc_vci
          ~counter:(fun () ->
            t.vci_counter <- t.vci_counter + 1;
            t.vci_counter)
          ~this_node:t.node ~peer
      in
      reserve t ~port:out_port ~bps:reserve_bps;
      (* Forward and reverse mappings: the circuit is bidirectional. *)
      Hashtbl.replace t.table (in_port, vci)
        { out_port; out_vci; call_id; reserve_bps };
      Hashtbl.replace t.table (out_port, out_vci)
        { out_port = in_port; out_vci = vci; call_id; reserve_bps = 0 };
      remember_call t ~call_id (in_port, vci);
      remember_call t ~call_id (out_port, out_vci);
      send_meta t ~port:out_port
        ~meta:(Signal.Setup { call_id; dst; reserve_bps; vci = out_vci })
    end

let handle_connect t ~in_port ~call_id ~vci =
  match Hashtbl.find_opt t.table (in_port, vci) with
  | None -> ()
  | Some entry ->
    send_meta t ~port:entry.out_port
      ~meta:(Signal.Connect { call_id; vci = entry.out_vci })

let handle_release t ~in_port ~call_id ~vci =
  (* Propagate along whichever direction the circuit still knows. *)
  (match Hashtbl.find_opt t.table (in_port, vci) with
  | Some entry ->
    send_meta t ~port:entry.out_port
      ~meta:(Signal.Release { call_id; vci = entry.out_vci; reason = "propagated" })
  | None -> ());
  release_call t ~call_id

let forward_data t ~in_port ~payload =
  match Signal.decode_data payload with
  | exception Wire.Buf.Underflow -> t.data_no_circuit <- t.data_no_circuit + 1
  | vci, data -> (
    match Hashtbl.find_opt t.table (in_port, vci) with
    | None -> t.data_no_circuit <- t.data_no_circuit + 1
    | Some entry ->
      let frame =
        W.fresh_frame t.world (Signal.encode_data ~vci:entry.out_vci data)
      in
      (match W.send t.world ~node:t.node ~port:entry.out_port frame with
      | W.Started | W.Started_preempting _ | W.Queued ->
        t.data_forwarded <- t.data_forwarded + 1
      | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link -> ()))

let handle t _world ~in_port ~frame ~head:_ ~tail =
  let engine = W.engine t.world in
  let at delay f =
    Sim.Engine.schedule_at engine ~time:(max (W.now t.world) tail + delay) f
  in
  match frame.Netsim.Frame.meta with
  | Some (Signal.Setup { call_id; dst; reserve_bps; vci }) ->
    at setup_process_time (fun () ->
        handle_setup t ~in_port ~call_id ~dst ~reserve_bps ~vci)
  | Some (Signal.Connect { call_id; vci }) ->
    at setup_process_time (fun () -> handle_connect t ~in_port ~call_id ~vci)
  | Some (Signal.Release { call_id; vci; _ }) ->
    at setup_process_time (fun () -> handle_release t ~in_port ~call_id ~vci)
  | Some _ -> ()
  | None ->
    at data_process_time (fun () ->
        forward_data t ~in_port ~payload:(Netsim.Frame.contents frame))

let create world ~node =
  let t =
    {
      world;
      node;
      table = Hashtbl.create 64;
      calls = Hashtbl.create 32;
      reserved = Hashtbl.create 8;
      route_table = Hashtbl.create 64;
      vci_counter = 0;
      setups_handled = 0;
      setups_refused = 0;
      data_forwarded = 0;
      data_no_circuit = 0;
      releases = 0;
    }
  in
  W.set_handler world node (handle t);
  recompute_routes t;
  t
