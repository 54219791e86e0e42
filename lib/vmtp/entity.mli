(** A VMTP-style transport entity bound to a Sirpent host (§4).

    Entities exchange {e message transactions}: a client sends a request as
    a packet group along a directory-supplied source route; the server
    delivers the reassembled message to its handler and sends the response
    group back over the {e return route built from the request's trailer}
    — no routing knowledge at the server. Selective retransmission repairs
    losses inside a group (§4.3); timestamps enforce maximum packet
    lifetime (§4.2); the 64-bit entity pair defends against misdelivery
    with no network checksum (§4.1). Clients hold multiple routes and fail
    over between them when retransmission on the current route is
    exhausted — the §6.3 recovery mechanism.

    The protocol constants are fixed: 1024 data bytes per packet (§5's
    "roughly 1 kilobyte transport packet"), a 100 ms initial RTO adapted
    from measured RTT, 3 retransmission rounds per route before failover,
    20 ms before a receiver nacks a gap, responses held 5 s for replay,
    and a 30 s maximum packet lifetime with 2 s of clock skew allowed.

    {b Who owns which bytes.} A message handed to the entity ([call]'s
    [data], a handler's [reply] argument) is copied once before the call
    returns, and the caller may reuse its buffer at once. The entity
    keeps that private copy, with the group's single creation timestamp,
    for as long as it may resend: a request until its call finishes, a
    response while it is held for replay. Each transmission of a
    packet, first send, retransmission or replay alike, is written
    from it straight into the wire buffer its host reserved
    ({!Sirpent.Host.reserve}, {!Sirpent.Host.reserve_reply}), so a
    resent packet is byte-identical to the first. Acks are written
    straight into their reply's buffer. An arrived packet is kept, not
    copied, until its group is complete; the message a handler or
    [on_reply] receives is a fresh buffer, the receiver's to keep. So
    each data byte is copied twice on the way out (into the private
    copy, then into each transmission's buffer) and twice on the way in
    (out of the arrival window by {!Viper.Packet.of_window}, then into
    the reassembled message). *)

type config = {
  clock_skew_ms : int;  (** artificial offset of this entity's clock *)
  pace_bps : int;  (** rate-based pacing of group packets; 0 = back-to-back *)
}

val default_config : config

type stats = {
  packets_sent : int;
  retransmits : int;
  acks_sent : int;
  rejected_checksum : int;
  rejected_entity : int;  (** wrong destination entity: misdelivery caught *)
  rejected_old : int;  (** MPL rule discards *)
  duplicate_requests : int;  (** replayed from the response hold *)
  route_switches : int;
  branch_arrivals : int;
      (** arrivals whose trailer shows a router failed over in-header —
          recovery that never reached this entity's retry ladder *)
  calls_completed : int;
  calls_failed : int;
}

type t

val create : ?config:config -> Sirpent.Host.t -> id:int64 -> t
(** Takes over the host's receive callback. *)

val stats : t -> stats

val rtt_estimate : t -> Sim.Time.t option
(** Smoothed RTT over completed transactions. *)

val held_responses : t -> int
(** Responses this server holds for replay: each until its completion
    ack arrives, or 5 s after the last request for it. *)

val set_request_handler : t -> (t -> data:bytes -> reply:(bytes -> unit) -> unit) -> unit
(** Server side: called once per complete request; [reply] may be invoked
    (once) now or later. [data] is the handler's to keep; [reply] copies
    the response before it returns. *)

val set_route_switch_hook :
  t -> (failed:Sirpent.Route.t -> route_index:int -> unit) -> unit
(** Called when a call abandons a route for the next alternate; [failed]
    is the route given up on (so a client can demote exactly that route
    for future calls) and [route_index] the index now in use. *)

val call :
  t -> server:int64 -> routes:Sirpent.Route.t list ->
  ?priority:Token.Priority.t -> data:bytes ->
  on_reply:(bytes -> rtt:Sim.Time.t -> unit) -> on_fail:(string -> unit) ->
  unit -> unit
(** Run a message transaction. [routes] are tried in order; exactly one of
    the callbacks eventually fires. [data] is copied before [call]
    returns; [on_reply]'s bytes are the caller's to keep. Raises
    [Invalid_argument] if [data] needs more than 32 packets. *)

val call_compiled :
  t -> server:int64 -> compiled:Policy.Compiler.compiled ->
  ?priority:Token.Priority.t -> data:bytes ->
  on_reply:(bytes -> rtt:Sim.Time.t -> unit) -> on_fail:(string -> unit) ->
  unit -> unit
(** {!call} in policy-route mode: the compiled primary (with any in-header
    branch routes) first, the compiled alternates as the re-query ladder.
    A link failure absorbed by an in-header branch shows up as a
    [branch_arrivals] tick instead of a [route_switches] one. *)
