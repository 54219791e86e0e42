module G = Topo.Graph
module W = Netsim.World
module Seg = Viper.Segment
module C = Telemetry.Registry.Counter

(* the IP protocol value reserved for encapsulated Sirpent *)
let protocol_number = 94

(* the TTL of an encapsulating datagram *)
let ttl = 32

(* a tunnel segment's portInfo: the remote gateway's IP address,
   big-endian *)
let tunnel_info ~remote_addr =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_u32_int w (remote_addr land 0xFFFFFFFF);
  Wire.Buf.contents w

let tunnel_segment ?(priority = Token.Priority.normal) ~tunnel_port ~remote_addr () =
  Seg.make ~priority ~info:(tunnel_info ~remote_addr) ~port:tunnel_port ()

type stats = {
  encapsulated : int;
  decapsulated : int;
  bad_tunnel_info : int;
  ip_dropped : int;
}

type t = {
  world : W.t;
  node : G.node_id;
  cloud_port : G.port;
  tunnel_port : int;
  router : Sirpent.Router.t;
  reassembly : Ipbase.Frag.Reassembly.t;
  mutable next_ident : int;
  encapsulated : C.t;
  decapsulated : C.t;
  bad_tunnel_info : C.t;
  ip_dropped : C.t;
}

let addr t = Ipbase.Header.addr_of_node t.node

let stats t : stats =
  {
    encapsulated = C.value t.encapsulated;
    decapsulated = C.value t.decapsulated;
    bad_tunnel_info = C.value t.bad_tunnel_info;
    ip_dropped = C.value t.ip_dropped;
  }

let parse_tunnel_info info =
  if Bytes.length info <> 4 then None
  else Some (Wire.Buf.get_u32_int (Wire.Buf.reader_of_bytes info))

(* Sirpent -> cloud: wrap the remaining VIPER bytes in an IP datagram to the
   remote gateway, fragmenting to the cloud link's MTU at origin. The
   packet is the window [buf.[off] .. buf.[off + len - 1]] whose leading
   [hdr]-byte segment names the tunnel; its remainder and the return
   entry for this hop are written once, straight behind the IP header.
   Answers whether the packet was taken; the router drops one that was
   not. *)
let encapsulate t ~buf ~off ~len ~hdr ~in_port =
  match parse_tunnel_info (Seg.decode_sub buf ~off ~len:hdr).Seg.info with
  | None ->
    C.incr t.bad_tunnel_info;
    false
  | Some remote_addr ->
    (* the return entry for this hop: back out the Sirpent-side arrival
       port (point-to-point; no network-specific info), token kept *)
    let info = Some Bytes.empty in
    match
      let rlen = Seg.return_hop_size buf ~off ~port:in_port ~keep_token:true ~info in
      let packet = Bytes.create (Ipbase.Header.size + len - hdr + rlen + 3) in
      ( packet,
        Viper.Trailer.append_return_hop buf ~off ~len ~pos:hdr ~port:in_port
          ~keep_token:true ~info packet ~at:Ipbase.Header.size )
    with
    | exception (Invalid_argument _ | Failure _ | Wire.Buf.Underflow | Wire.Buf.Overflow)
      ->
      (* trailer damaged in flight: count, don't raise out of the handler *)
      C.incr t.bad_tunnel_info;
      false
    | packet, viper_len ->
    t.next_ident <- (t.next_ident + 1) land 0xFFFF;
    let header =
      {
        Ipbase.Header.tos = 0;
        total_length = Ipbase.Header.size + viper_len;
        ident = t.next_ident;
        dont_fragment = false;
        more_fragments = false;
        frag_offset = 0;
        ttl;
        protocol = protocol_number;
        src = addr t;
        dst = remote_addr;
      }
    in
    Bytes.blit (Ipbase.Header.encode header) 0 packet 0 Ipbase.Header.size;
    let mtu =
      match G.link_via (W.graph t.world) t.node t.cloud_port with
      | Some l -> l.G.props.G.mtu
      | None -> Viper.Packet.max_transmission_unit
    in
    let fragments = Ipbase.Frag.fragment packet ~mtu in
    C.incr t.encapsulated;
    List.iter
      (fun fragment_bytes ->
        let frame = W.fresh_frame t.world fragment_bytes in
        ignore (W.send t.world ~node:t.node ~port:t.cloud_port frame))
      fragments;
    true

(* cloud -> Sirpent: verify, reassemble, decapsulate, inject. *)
let accept_ip t packet =
  if not (Ipbase.Header.checksum_ok packet) then C.incr t.ip_dropped
  else
    match Ipbase.Frag.Reassembly.offer t.reassembly ~now:(W.now t.world) packet with
    | None -> ()
    | Some whole ->
      let h = Ipbase.Header.decode whole in
      if h.Ipbase.Header.protocol <> protocol_number then
        C.incr t.ip_dropped
      else begin
        C.incr t.decapsulated;
        (* Return hop: re-enter the tunnel toward the datagram's source. *)
        Sirpent.Router.inject t.router ~buf:whole ~off:Ipbase.Header.size
          ~len:(Bytes.length whole - Ipbase.Header.size) ~in_port:t.tunnel_port
          ~return_info:(tunnel_info ~remote_addr:h.Ipbase.Header.src)
      end

let handle t world ~in_port ~frame ~head ~tail =
  if in_port = t.cloud_port then
    Sim.Engine.schedule_at (W.engine t.world)
      ~time:(max (W.now t.world) tail)
      (fun () ->
        if not frame.Netsim.Frame.aborted then
          accept_ip t (Netsim.Frame.contents frame))
  else Sirpent.Router.handle_frame t.router world ~in_port ~frame ~head ~tail

let create world ~node ~cloud_port ~tunnel_port =
  let router = Sirpent.Router.create world ~node () in
  let cnt ?help name =
    Telemetry.Registry.counter (W.metrics world) ?help
      ~labels:[ ("node", string_of_int node) ]
      ("gateway_" ^ name)
  in
  let t =
    {
      world;
      node;
      cloud_port;
      tunnel_port;
      router;
      reassembly = Ipbase.Frag.Reassembly.create ();
      next_ident = 0;
      encapsulated = cnt "encapsulated" ~help:"Sirpent packets wrapped into IP datagrams";
      decapsulated = cnt "decapsulated" ~help:"IP datagrams unwrapped and re-injected";
      bad_tunnel_info = cnt "bad_tunnel_info";
      ip_dropped = cnt "ip_dropped" ~help:"cloud arrivals failing checksum or protocol checks";
    }
  in
  Sirpent.Router.set_port router ~port:tunnel_port (Handler (encapsulate t));
  (* Take over the node's handler to split cloud vs Sirpent traffic. *)
  W.set_handler world node (handle t);
  t
