(** Token cache with optimistic authorization (§2.2).

    Full decryption of a token is too slow for the cut-through path, so a
    router keeps a cache keyed on the encrypted token value. A packet whose
    token is cached is checked "in real time from the cached version". On a
    miss the router applies one of the paper's three policies:

    - {b Optimistic}: let the packet through, verify in the background, and
      cache the verdict so subsequent packets are enforced.
    - {b Block}: treat the packet as blocked (buying time for
      verification).
    - {b Drop}: discard it.

    Cache entries also accumulate the accounting counts charged to the
    token's account.

    The cache is keyed in place: a lookup reads the token where it lies
    in the packet and copies nothing. The token's last 8 bytes (a
    capability's CBC-MAC tag; a fold over the bytes of a shorter token)
    are only the hash. Each entry keeps its own copy of the token, and a
    hit is the whole token compared against the window, so a token that
    shares a cached token's tag but differs elsewhere misses and is
    verified like any other. The verdict a hit returns is built once,
    when the entry is installed. *)

type miss_policy = Optimistic | Block | Drop

type verdict =
  | Admit of Capability.grant  (** forward; charge the grant's account *)
  | Deny  (** known-bad token, or limits exceeded *)
  | Defer  (** miss under [Block]: hold the packet for verification *)
  | Miss_admit  (** miss under [Optimistic]: forwarded unverified *)
  | Miss_drop  (** miss under [Drop] *)

type t

val create :
  key:Cipher.key -> router_id:int -> policy:miss_policy -> ledger:Account.t -> t

val check_window :
  t -> bytes -> off:int -> len:int -> port:int -> priority:int -> now_ms:int ->
  packet_bytes:int -> reverse:bool -> verdict
(** [check_window t b ~off ~len ...] is the real-time path, on the token
    in [b.[off] .. b.[off + len - 1]]; a hit allocates nothing. On a
    hit, validates the cached grant against port / priority / expiry /
    packet budget, charges the account, and decides.
    For a reverse-path packet ([reverse] set, from the RPF flag), [port] is
    the packet's {e arrival} port — a reverse-authorized token admits the
    return trip back through the port it originally named.
    On a miss, applies the policy and (for [Optimistic]) immediately
    admits; call {!complete_verification} afterwards to install the
    verdict (modelling the background decryption). *)

val check :
  t -> token:bytes -> port:int -> priority:int -> now_ms:int ->
  packet_bytes:int -> reverse:bool -> verdict
(** {!check_window} on the whole of [token]. *)

val complete_verification : t -> token:bytes -> now_ms:int -> bool
(** Decrypt and MAC-check [token]; install [Admit]/[Deny] in the cache,
    with a copy of [token]. Returns whether the token verified.
    Idempotent. *)

val entries : t -> int
val hits : t -> int
val misses : t -> int

val flush : t -> unit
(** Drop all cached entries (soft state: safe to discard, §2.2). *)
