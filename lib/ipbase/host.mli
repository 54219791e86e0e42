(** An IP-baseline host: sends datagrams toward its attached router,
    fragments at origin when needed, verifies checksums and reassembles on
    receipt. *)

type t

val create :
  ?reassembly_timeout:Sim.Time.t -> Netsim.World.t ->
  node:Topo.Graph.node_id -> unit -> t

val node : t -> Topo.Graph.node_id

val send :
  t -> dst:Topo.Graph.node_id -> ?tos:int -> ?ttl:int -> ?protocol:int ->
  ?dont_fragment:bool -> data:bytes -> unit -> int
(** Build, fragment to the first link's MTU, and transmit. Returns the
    number of fragments sent (0 if the host is unconnected or DF forbids
    the required fragmentation). Default TTL 32, protocol 17. *)

val set_receive : t -> (t -> header:Header.t -> data:bytes -> unit) -> unit
(** Called with each complete (reassembled) datagram addressed to this
    host. *)

val received : t -> int
(** Complete datagrams handed up; a bad checksum or someone else's
    destination address is dropped uncounted. *)
