(** Frames in flight on simulated links.

    A frame carries real protocol bytes plus the fields a link scheduler
    needs without parsing them: priority and the drop-if-blocked
    disposition. Protocol stacks attach out-of-band metadata through the
    extensible {!meta} type (used for control messages whose wire format
    the paper leaves open).

    {b The window.} A frame's bytes on the wire are the window
    [payload.[off] .. payload.[off + len - 1]]. A VIPER packet keeps one
    buffer for its whole life: a router strips the leading segment by
    advancing [off] and writes its return hop into the tailroom past the
    window's end, growing [len] (§2: the header moves to the trailer "as
    the bits stream through"). Ownership: the node holding a frame is the
    buffer's only writer, and it writes only past the window's end. Once a
    host has accepted a packet nothing writes its buffer again, so a
    receiver may keep reading it. Anything that hands bytes to another
    owner (a multicast copy, a gateway crossing into another domain)
    copies the window first. *)

type meta = ..

type t = {
  payload : bytes;  (** the buffer the window lies in *)
  mutable off : int;  (** where the wire bytes start *)
  mutable len : int;  (** how many bytes are on the wire *)
  mutable priority : Token.Priority.t;
  mutable drop_if_blocked : bool;
  meta : meta option;
  mutable flight : Telemetry.Flight.ctx option;
      (** flight-recorder trace context riding the packet (see
          {!Telemetry.Flight}); forwarders re-framing the payload carry
          it over so the recorded spans cover the whole route. Set once,
          when the packet is originated: a host reserves a frame before
          it has written the packet, and originates it when it commits
          the frame to the wire ({!Sirpent.Host.commit}) *)
  mutable aborted : bool;
      (** set when the transmission carrying this frame was preempted
          mid-wire (§5: priorities 6-7 "preempt the transmission of lower
          priority packets in mid-transmission"); a receiver that has seen
          the head must discard the runt when the tail never arrives *)
}

val bits : t -> int
(** Wire size in bits (what the link serializes): [8 * len]. *)

val contents : t -> bytes
(** The wire bytes alone: [payload] itself when the window is the whole
    buffer, else a copy of the window. *)

val vacant : t
(** An empty frame that fills the vacant cells of queues and slabs, so a
    cell that holds no frame keeps none alive. Never sent, never
    written. *)
