(** A Sirpent router (§2, §2.1).

    Per packet: strip the leading VIPER header segment into the loopback
    register, make the switching decision from the port field (available
    first, while the rest of the segment arrives), check the port token
    against the cache, revise the network-specific info into a return hop,
    append the revised segment to the packet trailer, and switch the packet
    out the named port — cut-through when the input and output data rates
    match, falling back to store-and-forward otherwise.

    Special port values: 0 local delivery, 255 broadcast, 254 tree
    multicast, 240-253 configured multicast groups. A port can be given
    one {!role} ({!set_port}): a trunk group, a spliced transit route, a
    multicast group's members or a custom handler.

    The per-hop costs are fixed: a switching decision of 500 ns
    ("significantly less than a microsecond", §6.1), 50 us of software
    processing on the store-and-forward path and at local delivery, and
    200 us to verify a token, paid off the fast path. A background
    verification that fails is counted on a [router_verify_failures] row. *)

type blocked_handling =
  | Buffer  (** blocked packets wait in the output queue (default) *)
  | Delay_line of { delay : Sim.Time.t; max_circuits : int }
      (** Â§2.1's bufferless alternative (after Blazenet): a blocked
          packet re-circulates through a delay line of the given length up
          to [max_circuits] times, then is dropped. Packets flagged
          drop-if-blocked are dropped on the first block either way. *)

type config = {
  store_and_forward : bool;
      (** disable cut-through entirely (for delay comparisons) *)
  require_tokens : bool;
      (** reject packets carrying no port token; default false
          ("the portToken is optional") *)
  token_policy : Token.Cache.miss_policy;
  congestion : Congestion.config option;  (** [None] disables rate control *)
  blocked : blocked_handling;
}

val default_config : config

type stats = {
  forwarded : int;
  delivered_local : int;
  parse_errors : int;  (** structural errors: splice depth, unknown group *)
  dropped_malformed : int;
      (** frames whose bytes failed to parse — corruption in flight, runt
          frames from preemption. Distinct from congestion drops
          ([send_drops]) so experiments can separate damage from load. *)
  dropped_down : int;  (** frames arriving while the router was crashed *)
  crashes : int;
  unauthorized : int;  (** token denied / required but absent *)
  deferred : int;  (** packets held for token verification *)
  truncated : int;  (** over-MTU packets truncated in flight *)
  multicast_copies : int;
  spliced : int;  (** logical-hop expansions applied *)
  send_drops : int;  (** blocked/overflow/no-link at the output port *)
  cut_throughs : int;
  stored_forwards : int;
  delay_line_circuits : int;  (** re-circulations of blocked packets *)
  inheader_failovers : int;
      (** packets whose addressed link was down but whose leading segment
          carried a branch route the router switched onto locally *)
}

type t

val create :
  ?config:config -> ?key:Token.Cipher.key -> Netsim.World.t ->
  node:Topo.Graph.node_id -> unit -> t
(** Installs the node's frame handler. [key] defaults to a key derived
    from the node id (see {!Token.Cipher.random_looking_key}) — the
    directory service derives the same key when minting tokens. *)

val node : t -> Topo.Graph.node_id
val stats : t -> stats
val cache : t -> Token.Cache.t
val ledger : t -> Token.Account.t
val congestion : t -> Congestion.t option

(** {1 Port roles (§2.2, §2.3)}

    A port identifier can designate "a group of links that are all
    equivalent from the standpoint of the Sirpent source" — either a
    replicated trunk (the router picks a physical link by local load) or a
    multi-hop transit path (the router splices a stored expansion route in
    place of the logical segment, "at the cost of the packet delay of
    adding this routing information"). It can also name a multicast
    group, or hand the packet to a callback: how a gateway claims a
    tunnel port. *)

type role =
  | Group of Topo.Graph.port list
      (** replicated trunk: equivalent physical ports; each packet goes
          out the least-queued one, authorized for the logical port *)
  | Splice of Viper.Segment.t list
      (** logical hop: segments substituted for the logical segment *)
  | Members of Topo.Graph.port list
      (** multicast group (ports 240-253): one copy out each member *)
  | Handler of
      (buf:bytes -> off:int -> len:int -> hdr:int -> in_port:Topo.Graph.port -> bool)
      (** custom port (1-239): packets whose leading segment names it are
          handed to the callback after full reception. The callback gets
          the packet as the window [buf.[off] .. buf.[off + len - 1]],
          whose leading segment (the one naming the port) is [hdr] bytes,
          and answers whether it took the packet: a taken packet is handed
          off ({!Netsim.World.hand_off}), a refused one is a [Malformed]
          drop. A frame preempted upstream before its tail arrived is a
          counted drop instead. *)

val set_port : t -> port:int -> role -> unit
(** Give [port] a role, replacing any it had. Local delivery (0) is
    switched before any role; a role on 254 or 255 takes the place of
    tree multicast or broadcast. Raises [Invalid_argument] for a
    [Handler] outside 1-239, [Members] outside 240-253, an empty [Group]
    or [Splice], or a [Group] or [Splice] outside 1-255. *)

(** {1 Out-of-band arrivals (interop, §2.3)} *)

val inject :
  t -> buf:bytes -> off:int -> len:int -> in_port:Topo.Graph.port ->
  return_info:bytes -> unit
(** Feed a Sirpent packet that arrived out-of-band (e.g. decapsulated from
    an IP tunnel) into the forwarding pipeline as if received now on
    [in_port]. The packet is the window [buf.[off] .. buf.[off + len - 1]].
    [return_info] becomes the appended trailer segment's network-specific
    portInfo, so replies re-enter the tunnel correctly. The router never
    writes [buf] (it forwards a copy of the window) but may read it
    after a delay, so the caller must not reuse it. *)

val handle_frame : t -> Netsim.World.handler
(** The router's frame handler (for wrappers that dispatch between stacks
    on one node). *)

val act_kind : t -> Sim.Engine.kind
(** The kind of the router's act steps: one event per switched frame, at
    the instant it goes out (after its header, or its whole frame, has
    arrived). Each router registers its own. *)

(** {1 Crash and restart (§6.3)}

    "Routers hold only soft state": a crash drops everything queued at the
    node's outports, abandons deferred work (token verifications, pending
    dispatches), and wipes the token cache and congestion limiters. While
    down, arriving frames are counted in [dropped_down] and discarded.
    After {!restart} the state rebuilds from traffic — which the fault
    matrix test verifies. *)

val crash : t -> unit
(** Idempotent while down. *)

val restart : t -> unit
val up : t -> bool
