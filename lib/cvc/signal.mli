(** Signalling for the concatenated-virtual-circuit baseline (X.75 style,
    §1): call setup walks hop-by-hop reserving a VCI and bandwidth at every
    switch, a connect confirmation returns over the installed circuit, and
    releases tear state down. Data packets carry a 2-byte VCI label that
    each switch swaps. *)

type Netsim.Frame.meta +=
  | Setup of { call_id : int; dst : Topo.Graph.node_id; reserve_bps : int; vci : int }
        (** [vci] names the circuit on the link this frame crosses. *)
  | Connect of { call_id : int; vci : int }
  | Release of { call_id : int; vci : int; reason : string }

val setup_bytes : int
(** Simulated size of a signalling frame (40 B). *)

val encode_data : vci:int -> bytes -> bytes
val decode_data : bytes -> int * bytes
(** Raises [Wire.Buf.Underflow] on a short frame. *)

val alloc_vci :
  counter:(unit -> int) -> this_node:Topo.Graph.node_id ->
  peer:Topo.Graph.node_id -> int
(** VCIs on a link are chosen by the side forwarding the setup; the parity
    trick (even for the lower node id, odd for the higher) keeps the two
    directions from colliding without negotiation. *)
