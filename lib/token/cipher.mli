(** 64-bit-block Feistel cipher, built from scratch.

    The paper requires tokens to be "encrypted (difficult-to-forge)
    capabilities" (§2.2). No cryptographic library is available offline, so
    this is a self-contained 16-round Feistel network with a splitmix-style
    key schedule. It is NOT cryptographically strong; the experiments only
    depend on tokens being opaque to non-holders of the key and on the
    relative cost of full verification vs a cache hit. *)

type key
(** A key carries its 16 round keys and, computed once at creation, the
    derived round keys its MAC runs under. *)

val key_of_int64 : int64 -> key
val random_looking_key : int -> key
(** Deterministic key derived from an integer id — handy for giving each
    simulated router a distinct key. *)

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64
(** [decrypt_block k (encrypt_block k v) = v]. *)

(** {1 In place}

    The codec proper: each call rewrites 8-byte big-endian blocks inside
    the caller's buffer and allocates nothing. *)

val encrypt_cbc_in_place : key -> iv:int64 -> bytes -> len:int -> unit
(** CBC-encrypt the buffer's first [len] bytes in place. [len] must be a
    multiple of 8; raises [Invalid_argument] otherwise. *)

val decrypt_cbc_in_place : key -> iv:int64 -> bytes -> len:int -> unit
(** The inverse of {!encrypt_cbc_in_place}. *)

val mac_into : key -> bytes -> len:int -> bytes -> at:int -> unit
(** [mac_into k src ~len dst ~at] writes the CBC-MAC tag of [src]'s first
    [len] bytes (any length; zero-padded internally), big-endian, into
    [dst]'s 8 bytes from [at]. The tag runs under the key's derived MAC
    round keys, so it is not forgeable from CBC ciphertext blocks. [src]
    and [dst] may be the same buffer if the ranges do not overlap. *)
