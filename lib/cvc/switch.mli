(** A virtual-circuit switch.

    Holds per-circuit state — the cost §1 charges to the CVC approach: "a
    significant amount of state in the gateways", bandwidth reservation,
    and call-setup processing on every new connection. Data forwarding is a
    cheap label swap but still store-and-forward: 500 us of call
    processing per signalling message, 20 us of label swap and queueing
    per data frame, each after full reception. *)

type stats = {
  setups_handled : int;
  setups_refused : int;  (** admission failures *)
  data_forwarded : int;
  data_no_circuit : int;
  releases : int;
}

type t

val create : Netsim.World.t -> node:Topo.Graph.node_id -> t
val stats : t -> stats

val circuit_entries : t -> int
(** Live circuit-table entries (two per transit circuit). *)

val reserved_bps : t -> port:Topo.Graph.port -> int
(** Bandwidth currently reserved on a port. *)
