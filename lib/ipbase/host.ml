module G = Topo.Graph
module W = Netsim.World

type t = {
  world : W.t;
  node : G.node_id;
  reassembly : Frag.Reassembly.t;
  mutable on_receive : (t -> header:Header.t -> data:bytes -> unit) option;
  mutable next_ident : int;
  mutable received : int;
}

let node t = t.node
let set_receive t f = t.on_receive <- Some f
let received t = t.received

let accept t packet =
  if Header.checksum_ok packet then begin
    let h = Header.decode packet in
    if Header.node_of_addr h.Header.dst = t.node then
      match Frag.Reassembly.offer t.reassembly ~now:(W.now t.world) packet with
      | None -> ()
      | Some whole ->
        t.received <- t.received + 1;
        let h = Header.decode whole in
        let data = Bytes.sub whole Header.size (Bytes.length whole - Header.size) in
        (match t.on_receive with Some f -> f t ~header:h ~data | None -> ())
  end

let handle t _world ~in_port ~frame ~head:_ ~tail =
  match frame.Netsim.Frame.meta with
  | Some (Linkstate.Hello _) ->
    (* answer so the router's liveness check covers the host link too *)
    let reply =
      W.fresh_frame t.world ~priority:Token.Priority.highest
        ~meta:(Linkstate.Hello t.node) (Bytes.create 20)
    in
    ignore (W.send t.world ~node:t.node ~port:in_port reply)
  | Some (Linkstate.Lsa_flood _) -> ()
  | Some _ -> ()
  | None ->
    Sim.Engine.schedule_at (W.engine t.world) ~time:(max (W.now t.world) tail)
      (fun () -> accept t (Netsim.Frame.contents frame))

let create world ~node =
  let t =
    {
      world;
      node;
      reassembly = Frag.Reassembly.create ();
      on_receive = None;
      next_ident = 1;
      received = 0;
    }
  in
  W.set_handler world node (handle t);
  t

let send t ~dst ?(ttl = 32) ~data () =
  match G.ports (W.graph t.world) t.node with
  | [] -> 0
  | (port, link) :: _ ->
    let ident = t.next_ident in
    t.next_ident <- (t.next_ident + 1) land 0xFFFF;
    let header =
      {
        Header.tos = 0;
        total_length = Header.size + Bytes.length data;
        ident;
        dont_fragment = false;
        more_fragments = false;
        frag_offset = 0;
        ttl;
        protocol = 17;
        src = Header.addr_of_node t.node;
        dst = Header.addr_of_node dst;
      }
    in
    let packet = Bytes.cat (Header.encode header) data in
    let fragments = Frag.fragment packet ~mtu:link.G.props.G.mtu in
    List.iter
      (fun fragment_bytes ->
        let frame = W.fresh_frame t.world fragment_bytes in
        ignore (W.send t.world ~node:t.node ~port frame))
      fragments;
    List.length fragments
