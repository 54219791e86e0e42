(** A Sirpent host endpoint.

    Hosts originate packets (route segments + data + empty trailer), accept
    packets whose leading segment is local delivery, and construct return
    routes from trailers. A host also listens to {!Congestion.Rate_ctl}
    feedback so a rate-based transport above it can adapt — the paper's
    congestion scheme "builds up back from the point of congestion to the
    sources". *)

type t

val create :
  ?congestion:Congestion.config -> Netsim.World.t -> node:Topo.Graph.node_id -> t
(** [create world ~node] attaches a host. [congestion] configures the
    host's own injection limiter (defaults to
    {!Congestion.default_config}) — hosts are rate-based sources, so the
    constants under test in E22 apply at the edge exactly as in the
    routers. *)

val node : t -> Topo.Graph.node_id
val world : t -> Netsim.World.t

val arrival_kind : t -> Sim.Engine.kind
(** The kind of the host's arrivals: one event per data frame that
    reaches it, at its tail, when the host acts on the whole packet.
    Each host registers its own. *)

val limiter : t -> Congestion.t
(** The host's own injection limiter — exposed so benches and tests can
    inspect backlog and token-bucket state at the edge. *)

val set_receive :
  t -> (t -> packet:Viper.Packet.t -> in_port:Topo.Graph.port -> unit) -> unit
(** Delivery callback (after full reception). *)

val send :
  t -> route:Route.t -> ?priority:Token.Priority.t -> ?drop_if_blocked:bool ->
  data:bytes -> unit -> Netsim.World.send_result
(** Build and transmit a packet along [route], in one buffer with room
    for the return hop of every router on the way (see
    {!Netsim.Frame}): no router copies it. {!reserve}, a blit of [data]
    into the frame's window, and {!commit}. *)

val send_xsr :
  t -> route:Route.t -> ?priority:Token.Priority.t -> ?drop_if_blocked:bool ->
  data:bytes -> unit -> Netsim.World.send_result
(** Like {!send}, but fold [route] into a constant-size XSR header
    ({!Viper.Xsr}): bytes-on-wire do not grow with hop count and routers
    forward the buffer in place. The destination receives an ordinary
    {!Viper.Packet.t} whose trailer holds the recorded reverse route, so
    {!reply} works unchanged (the reply rides VIPER). Raises
    [Invalid_argument] if [route] has no router hops or more than
    {!Viper.Xsr.width}. *)

val reply :
  t -> to_packet:Viper.Packet.t -> in_port:Topo.Graph.port ->
  ?priority:Token.Priority.t -> data:bytes -> unit ->
  (Netsim.World.send_result, Viper.Packet.error) result
(** Send [data] back along the route written from [to_packet]'s trailer
    ({!Viper.Packet.reserve_reply}) — the receiver-side reversal of §2.
    [in_port] is where [to_packet] arrived (the reply's first
    transmission port). [Error], with nothing sent, when the packet was
    truncated or its return route would exceed
    {!Viper.Packet.max_route_segments}. {!reserve_reply}, a blit of
    [data] into the frame's window, and {!commit_reply}. *)

(** {2 Writing a packet in its wire buffer}

    A transport with its own encoder writes its packet straight into the
    buffer that goes on the wire, so the packet is never copied. A
    reserve step allocates the buffer, writes the route (or the reversed
    trailer) and the empty trailer, and returns the frame that will
    carry it, not yet on the wire: its window
    [payload.[off] .. payload.[off + len - 1]] is the [len] bytes left
    for the data, which the caller must fill. Until the commit step the
    caller owns the buffer; the commit step widens the window to the
    whole packet, originates it ({!Netsim.World.originate}) and
    transmits it, and from then on the buffer belongs to the network
    (see {!Netsim.Frame}): the caller must not write it again. Commit a
    frame once, with the host and route (or arrival port) it was
    reserved for. Neither step allocates a closure or a tuple. *)

val reserve :
  route:Route.t -> priority:Token.Priority.t -> drop_if_blocked:bool -> len:int ->
  Netsim.Frame.t
(** The frame of a packet along [route] with [len] data bytes, with
    [priority] and [drop_if_blocked] on every segment and on the frame.
    Raises like {!Viper.Packet.build} on an empty or over-long route. *)

val commit : t -> route:Route.t -> Netsim.Frame.t -> Netsim.World.send_result
(** Transmit a frame {!reserve} made for [route], through the host's
    limiter, out [route]'s first port. *)

val reserve_reply :
  to_packet:Viper.Packet.t -> priority:Token.Priority.t -> len:int ->
  (Netsim.Frame.t, Viper.Packet.error) result
(** The frame of the packet answering [to_packet] with [len] data bytes,
    at [priority], over the return route its trailer recorded. [Error]
    where {!reply}'s. *)

val commit_reply :
  t -> in_port:Topo.Graph.port -> Netsim.Frame.t -> Netsim.World.send_result
(** Transmit a frame {!reserve_reply} made out [in_port], where the
    packet it answers arrived. A reply is not paced by the limiter. *)

val explode :
  t -> routes:Route.t list -> ?priority:Token.Priority.t -> data:bytes -> unit -> int
(** Multicast-agent behaviour (§2, third mechanism): re-send [data] along
    each route; returns the number of copies actually handed to the
    network. *)

val received : t -> int
val misdelivered : t -> int
(** Packets that arrived whose leading segment was not local delivery —
    e.g. after header corruption. The transport layer must also defend
    itself (§4.1); the host counts what it can see. *)

