(** Ethernet II framing.

    The paper uses the Ethernet header as the canonical network-specific
    [portInfo]: two 48-bit addresses plus a 16-bit protocol type that tags
    the format of the rest of the packet (§2). *)

type header = {
  dst : Addr.t;
  src : Addr.t;
  ethertype : int;  (** 16-bit protocol type *)
}

val header_size : int
(** 14 bytes. *)

val ethertype_sirpent : int
(** The value "reserved to designate the Sirpent protocol on the Ethernet"
    (§2). Unassigned in real registries; we use 0x88B5 (IEEE local
    experimental). *)

val ethertype_ip : int
(** 0x0800, for the IP baseline. *)

val ethertype_cvc : int
(** Local experimental value for the CVC baseline signalling. *)

val write_header : Wire.Buf.writer -> header -> unit
val read_header : Wire.Buf.reader -> header

val swap : header -> header
(** Source and destination exchanged — the per-hop field swap a Sirpent
    router applies when moving the header segment to the trailer (§2). *)

val encode : header -> bytes -> bytes
(** Whole frame: header then payload (no FCS; the simulator models
    corruption explicitly). *)

val decode : bytes -> header * bytes
(** Raises [Wire.Buf.Underflow] on a short frame. *)
