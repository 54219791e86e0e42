(** The IP-baseline store-and-forward router.

    Per packet, exactly the work §1 charges to the datagram model: receive
    and store the whole packet, verify the header checksum, decrement the
    TTL and update the checksum, look up the next hop from the destination
    address, fragment if the next link's MTU requires it, and queue for
    transmission. All of it costs 100 us after full reception. *)

type routing =
  | Static  (** tables computed from global topology (re-run on demand) *)
  | Linkstate of Linkstate.config  (** the distributed protocol *)

type config = { routing : routing }

type stats = {
  forwarded : int;
  dropped_ttl : int;
  dropped_checksum : int;
  dropped_no_route : int;
  fragments_created : int;
  delivered_local : int;
}

type t

val create : ?config:config -> Netsim.World.t -> node:Topo.Graph.node_id -> unit -> t
(** [config] defaults to [Static] routing. *)

val stats : t -> stats

val linkstate : t -> Linkstate.t option

val table_size : t -> int
(** Forwarding-table entries — part of the E12 state comparison. *)
