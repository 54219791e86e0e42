(** Bounded byte-buffer reader/writer used by every protocol codec.

    All multi-byte integers are big-endian (network byte order). A writer
    grows its backing store as needed; a reader walks a fixed window and
    raises {!Underflow} past the end. Both keep an explicit cursor so codecs
    can be written as straight-line sequences of [put_*] / [get_*] calls. *)

exception Underflow
(** Raised by any [get_*] that would read past the reader's window. *)

exception Overflow
(** Raised by a writer whose [max_size] would be exceeded. *)

(** {1 Writer} *)

type writer

val create_writer : ?max_size:int -> int -> writer
(** [create_writer n] is an empty writer with initial capacity [n] bytes.
    [max_size] (default 1 MiB) bounds growth; exceeding it raises
    {!Overflow}. *)

val writer_length : writer -> int
(** Number of bytes written so far. *)

val writer_capacity : writer -> int
(** Current backing-store size (grows by doubling up to [max_size]). *)

val writer_onto : bytes -> off:int -> len:int -> writer
(** [writer_onto b ~off ~len] is a fixed-window writer whose [put_*]
    calls land directly in [b.[off .. off+len)] — no growth, no copy;
    exceeding the window raises {!Overflow}. [writer_length] reports the
    absolute end position ([off] + bytes written). Fused codecs use this
    to serialize straight into a buffer they sized themselves: a VIPER
    packet is built this way in one exact-size allocation, with no
    growth and no {!contents} copy. *)

val claim : writer -> int -> int
(** [claim w n] makes room for [n] more bytes and returns where they
    start in {!store}, counting them as written: a codec that knows a
    field's size fills it with direct stores instead of one [put_*] call
    per byte. Raises {!Overflow} like any [put_*]. *)

val store : writer -> bytes
(** The writer's backing store, valid until the writer next grows. *)

val put_u8 : writer -> int -> unit
val put_u16 : writer -> int -> unit
val put_u32 : writer -> int32 -> unit
val put_u32_int : writer -> int -> unit
(** [put_u32_int w v] writes the low 32 bits of non-negative [v]. *)

val put_u64 : writer -> int64 -> unit
val put_bytes : writer -> bytes -> unit
val put_string : writer -> string -> unit
val put_sub : writer -> bytes -> int -> int -> unit
(** [put_sub w b off len] appends [len] bytes of [b] starting at [off]. *)

val put_zeros : writer -> int -> unit
(** [put_zeros w n] appends [n] zero bytes (padding). *)

val contents : writer -> bytes
(** Fresh copy of the bytes written so far. *)

val reset : writer -> unit
(** Empty the writer, keeping its backing store. *)

(** {1 Reader} *)

type reader

val reader_of_bytes : ?off:int -> ?len:int -> bytes -> reader
(** [reader_of_bytes b] reads the window [off, off+len) of [b]
    (default: all of [b]). Raises [Invalid_argument] if the window is out
    of bounds. *)

val reader_window : bytes -> off:int -> len:int -> reader
(** [reader_window b ~off ~len] is [reader_of_bytes ~off ~len b] with
    both bounds required: no option is boxed to build the window, so a
    codec can read a segment in place inside a packet (the trailer walk
    decodes every entry this way). *)

val reader_of_string : string -> reader

val remaining : reader -> int
(** Bytes left between the cursor and the end of the window. *)

val position : reader -> int
(** Cursor offset relative to the start of the window. *)

val seek : reader -> int -> unit
(** [seek r pos] moves the cursor to [pos] (window-relative).
    Raises {!Underflow} if out of range. *)

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int32
val get_u32_int : reader -> int
val get_u64 : reader -> int64
val get_bytes : reader -> int -> bytes
val get_string : reader -> int -> string

val peek_u8 : reader -> int
(** Like [get_u8] without advancing the cursor. *)

val skip : reader -> int -> unit
(** Advance the cursor [n] bytes. Raises {!Underflow} past the window. *)

val take_rest : reader -> bytes
(** All bytes from the cursor to the end of the window; consumes them. *)
