module G = Topo.Graph
module W = Netsim.World

type state = Opening | Open | Closed

type circuit = {
  call_id : int;
  mutable vci : int;  (** on this host's link *)
  mutable state : state;
  started : Sim.Time.t;
  mutable opened_at : Sim.Time.t option;
}

type t = {
  world : W.t;
  node : G.node_id;
  mutable circuits : circuit list;
  pending : (int, (circuit -> unit) * (string -> unit)) Hashtbl.t;
  mutable on_receive : (t -> circuit -> bytes -> unit) option;
  mutable vci_counter : int;
  mutable call_counter : int;
}

(* Call ids must be unique world-wide (the callee keys its circuit table
   by them) but must not come from a process global: independent worlds
   running on separate domains would race on it and bleed ids across
   simulations. Namespacing a per-endpoint counter by the caller's node id
   keeps ids unique within a world with no shared state. *)
let fresh_call_id t =
  t.call_counter <- t.call_counter + 1;
  (t.node lsl 20) lor t.call_counter

let node t = t.node
let set_receive t f = t.on_receive <- Some f

let open_circuits t =
  List.length (List.filter (fun c -> c.state = Open) t.circuits)

let setup_rtt _t circuit =
  match circuit.opened_at with
  | Some at -> Some (at - circuit.started)
  | None -> None

let host_port t =
  match G.ports (W.graph t.world) t.node with
  | (port, link) :: _ -> Some (port, link)
  | [] -> None

let find_by_vci t vci = List.find_opt (fun c -> c.vci = vci && c.state <> Closed) t.circuits

let handle t _world ~in_port ~frame ~head:_ ~tail:_ =
  match frame.Netsim.Frame.meta with
  | Some (Signal.Setup { call_id; dst; reserve_bps = _; vci }) ->
    if dst = t.node then begin
      (* Accept: remember the circuit and confirm back along it. *)
      let c =
        {
          call_id;
          vci;
          state = Open;
          started = W.now t.world;
          opened_at = Some (W.now t.world);
        }
      in
      t.circuits <- c :: t.circuits;
      let confirm =
        W.fresh_frame t.world ~priority:Token.Priority.highest
          ~meta:(Signal.Connect { call_id; vci })
          (Bytes.create Signal.setup_bytes)
      in
      ignore (W.send t.world ~node:t.node ~port:in_port confirm)
    end
  | Some (Signal.Connect { call_id; vci = _ }) -> (
    match List.find_opt (fun c -> c.call_id = call_id) t.circuits with
    | Some c when c.state = Opening ->
      c.state <- Open;
      c.opened_at <- Some (W.now t.world);
      (match Hashtbl.find_opt t.pending call_id with
      | Some (on_open, _) ->
        Hashtbl.remove t.pending call_id;
        on_open c
      | None -> ())
    | Some _ | None -> ())
  | Some (Signal.Release { call_id; vci = _; reason }) -> (
    match List.find_opt (fun c -> c.call_id = call_id) t.circuits with
    | Some c ->
      c.state <- Closed;
      (match Hashtbl.find_opt t.pending call_id with
      | Some (_, on_fail) ->
        Hashtbl.remove t.pending call_id;
        on_fail reason
      | None -> ())
    | None -> ())
  | Some _ -> ()
  | None -> (
    match Signal.decode_data (Netsim.Frame.contents frame) with
    | exception Wire.Buf.Underflow -> ()
    | vci, data -> (
      match find_by_vci t vci with
      | Some c when c.state = Open -> (
        match t.on_receive with Some f -> f t c data | None -> ())
      | Some _ | None -> ()))

let create world ~node =
  let t =
    {
      world;
      node;
      circuits = [];
      pending = Hashtbl.create 8;
      on_receive = None;
      vci_counter = 0;
      call_counter = 0;
    }
  in
  W.set_handler world node (handle t);
  t

let open_circuit t ~dst ?(reserve_bps = 0) ~on_open ~on_fail () =
  match host_port t with
  | None -> on_fail "host not connected"
  | Some (port, link) ->
    let call_id = fresh_call_id t in
    let peer, _ = G.peer link t.node in
    let vci =
      Signal.alloc_vci
        ~counter:(fun () ->
          t.vci_counter <- t.vci_counter + 1;
          t.vci_counter)
        ~this_node:t.node ~peer
    in
    let c =
      { call_id; vci; state = Opening; started = W.now t.world; opened_at = None }
    in
    t.circuits <- c :: t.circuits;
    Hashtbl.replace t.pending call_id (on_open, on_fail);
    let frame =
      W.fresh_frame t.world ~priority:Token.Priority.highest
        ~meta:(Signal.Setup { call_id; dst; reserve_bps; vci })
        (Bytes.create Signal.setup_bytes)
    in
    ignore (W.send t.world ~node:t.node ~port frame)

let send_data t circuit data =
  if circuit.state <> Open then false
  else
    match host_port t with
    | None -> false
    | Some (port, _) ->
      let frame = W.fresh_frame t.world (Signal.encode_data ~vci:circuit.vci data) in
      (match W.send t.world ~node:t.node ~port frame with
      | W.Started | W.Started_preempting _ | W.Queued -> true
      | W.Dropped_blocked | W.Dropped_overflow | W.Dropped_no_link -> false)

let close t circuit =
  if circuit.state <> Closed then begin
    circuit.state <- Closed;
    match host_port t with
    | None -> ()
    | Some (port, _) ->
      let frame =
        W.fresh_frame t.world ~priority:Token.Priority.highest
          ~meta:
            (Signal.Release
               { call_id = circuit.call_id; vci = circuit.vci; reason = "close" })
          (Bytes.create Signal.setup_bytes)
      in
      ignore (W.send t.world ~node:t.node ~port frame)
  end
