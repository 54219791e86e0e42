(** Region-aware frame damage.

    A bit error on a real link does not care which part of the packet it
    lands in, but its consequences differ sharply: header damage misroutes
    or is caught at the next switching decision, trailer damage would
    silently corrupt the {e return} route (§2 builds replies from the
    trailer alone), and payload damage is the transport's problem (VMTP
    checksums). To measure those paths separately, a corruption spec aims
    its bit errors at one region of the VIPER packet layout

    {v  [header segments] [data] [trailer]  v}

    located by parsing the outgoing frame. Frames that do not parse as
    VIPER packets (control frames, already-damaged bytes) are only hit by
    the [Any] region, which needs no parse. *)

type region =
  | Header  (** the remaining source-route segments at the packet front *)
  | Payload  (** the data between header and trailer *)
  | Trailer  (** the accumulated return route at the packet end *)
  | Any  (** the whole frame, no parse required *)

type spec = {
  ber : float;  (** independent flip probability per bit in the region *)
  region : region;
}

val corrupt : Sim.Rng.t -> spec -> bytes -> (bytes * int) option
(** [corrupt rng spec frame] is [Some (damaged_copy, bits_flipped)] when at
    least one bit flips, [None] otherwise (zero BER, region absent, or the
    draw produced no flips). The input frame is never mutated. Sampling is
    geometric, so cost is proportional to the flip count, and every draw
    comes from [rng] — equal seeds give equal damage. *)
