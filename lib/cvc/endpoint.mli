(** A CVC host endpoint: opens circuits (paying the full setup round
    trip), sends labelled data over them, accepts incoming circuits, and
    tears them down. *)

type t

type circuit
(** An open (or opening) circuit as seen from this endpoint. *)

val create : Netsim.World.t -> node:Topo.Graph.node_id -> t
val node : t -> Topo.Graph.node_id

val open_circuit :
  t -> dst:Topo.Graph.node_id -> ?reserve_bps:int ->
  on_open:(circuit -> unit) -> on_fail:(string -> unit) -> unit -> unit
(** Launch a call setup. Exactly one of the callbacks eventually fires. *)

val send_data : t -> circuit -> bytes -> bool
(** False if the circuit is not open. *)

val close : t -> circuit -> unit

val set_receive : t -> (t -> circuit -> bytes -> unit) -> unit
(** Data arriving on any circuit terminated here (including circuits
    opened by a remote caller). *)

val setup_rtt : t -> circuit -> Sim.Time.t option
(** Time from setup launch to connect confirmation, once open. *)

val open_circuits : t -> int
