(** An IP-baseline host: sends datagrams toward its attached router,
    fragments at origin when needed, verifies checksums and reassembles on
    receipt. *)

type t

val create : Netsim.World.t -> node:Topo.Graph.node_id -> t
(** Incomplete reassemblies are discarded after {!Frag.Reassembly}'s
    30 s. *)

val node : t -> Topo.Graph.node_id

val send : t -> dst:Topo.Graph.node_id -> ?ttl:int -> data:bytes -> unit -> int
(** Build a UDP datagram (protocol 17, TOS 0, fragmentation allowed),
    fragment it to the first link's MTU, and transmit. Returns the number
    of fragments sent (0 if the host is unconnected). Default TTL 32. *)

val set_receive : t -> (t -> header:Header.t -> data:bytes -> unit) -> unit
(** Called with each complete (reassembled) datagram addressed to this
    host. *)

val received : t -> int
(** Complete datagrams handed up; a bad checksum or someone else's
    destination address is dropped uncounted. *)
