(** Sirpent over IP: the §2.3 interoperation story.

    "A Sirpent packet can view the Internet as providing one logical hop
    across its internetwork. That is, the packet is source routed to an IP
    host or gateway so that the header is now an IP header. The
    host/gateway uses standard IP to route the packet to the specified
    destination host. At this point, the packet is demultiplexed to the
    Sirpent protocol module which interprets the remainder of the packet
    header as a source route on from that point."

    A gateway node sits on both worlds: Sirpent links on its ordinary
    ports, and one port into an IP cloud. A VIPER segment naming the
    gateway's {e tunnel port} carries the remote gateway's 4-byte IP
    address in its portInfo; the gateway strips it, appends the return
    entry, and encapsulates the remaining VIPER bytes in an IP datagram
    (IP protocol 94). The remote gateway reassembles,
    decapsulates, and injects the packet into its Sirpent router with a
    return hop of (tunnel port, source gateway's address) — so replies
    re-enter the tunnel with no extra machinery: the trailer reversal of
    §2 just works across the cloud. *)

val tunnel_segment :
  ?priority:Token.Priority.t -> tunnel_port:int -> remote_addr:int -> unit ->
  Viper.Segment.t
(** The header segment a source route uses to cross the cloud via a
    gateway whose tunnel port is [tunnel_port]. *)

type stats = {
  encapsulated : int;
  decapsulated : int;
  bad_tunnel_info : int;  (** tunnel segments without a valid address *)
  ip_dropped : int;  (** arriving IP datagrams failing checksum *)
}

type t

val create :
  Netsim.World.t -> node:Topo.Graph.node_id -> cloud_port:Topo.Graph.port ->
  tunnel_port:int -> t
(** Install a gateway on [node]: a full Sirpent router (default
    configuration) on every port except [cloud_port], which speaks IP
    into the cloud with a datagram TTL of 32. [tunnel_port]
    (1-239) is the VIPER port value that enters the tunnel. The node's
    IP address is [Ipbase.Header.addr_of_node node]. *)

val stats : t -> stats
