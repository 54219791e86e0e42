(** Typed simulation events: the state transitions that matter to an
    experiment — crashes, restarts, link failures, backpressure engaging
    and releasing, transport failover — recorded structurally, not as
    free-form strings, in a bounded ring.

    Components emit; exporters and assertions consume without parsing. *)

type event =
  | Router_crashed of { node : int; frames_lost : int }
  | Router_restarted of { node : int }
  | Link_failed of { link_id : int }
  | Link_restored of { link_id : int }
  | Backpressure_on of {
      node : int;
      in_port : int;  (** the feeder-side port being limited *)
      congested_port : int;
      rate_bps : float;
    }
  | Backpressure_off of { node : int; in_port : int; congested_port : int }
  | Backpressure_flap of { node : int; in_port : int; congested_port : int }
      (** backpressure re-engaged on a feeder right after releasing: one
          on/off oscillation of the rate controller *)
  | Route_failover of { entity : int64; route_index : int }
  | Inheader_failover of { node : int; port : int }
      (** a router found the addressed link down and switched the packet
          onto its in-header branch route, without any directory round
          trip — [port] is the dead output port *)
  | Branch_arrival of { entity : int64 }
      (** a VMTP entity received a packet whose trailer shows it took a
          branch route — the in-header counterpart of [Route_failover]'s
          client re-query recovery *)
  | Directory_frozen of { frozen : bool }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1024 entries; 0 disables retention (still counts). *)

val emit : t -> time:Sim.Time.t -> event -> unit

val entries : t -> (Sim.Time.t * event) list
(** Oldest retained first. *)

val total : t -> int
(** Events ever emitted (including overwritten ones). *)

val size : t -> int

val kind_name : event -> string
val to_string : event -> string
