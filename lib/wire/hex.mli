(** Hexadecimal rendering of byte strings, for golden tests and the E1
    figure regeneration. *)

val of_bytes : bytes -> string
(** Lower-case hex, no separators: [of_bytes "\x01\xab"] is ["01ab"]. *)

val of_string : string -> string

val to_bytes : string -> bytes
(** Inverse of {!of_bytes}. Raises [Invalid_argument] on odd length or
    non-hex characters. *)

val dump : bytes -> string
(** Classic offset-prefixed hexdump, 16 bytes per line. *)
