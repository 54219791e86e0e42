(** Port tokens: the paper's encrypted capabilities (§2.2).

    A token "identifies the port and type of service that it authorizes,
    the account to which usage is to be charged, optionally a limit on
    resource usage authorized by this token, and whether reverse route
    charging is authorized". Tokens are minted by the administration owning
    a router (in this repo, by the routing directory on its behalf) and are
    opaque 32-byte strings to everyone else. *)

type grant = {
  router_id : int;  (** router this token is for (32-bit) *)
  port : int;  (** output port authorized, 0-255 *)
  max_priority : int;  (** highest VIPER priority allowed, 0-7 *)
  reverse_ok : bool;  (** usable for the return route too *)
  account : int;  (** 32-bit account charged for usage *)
  packet_limit : int;  (** packets authorized; 0 = unlimited *)
  expiry_ms : int;  (** absolute sim time, ms; 0 = never expires *)
}

type t = private bytes
(** The opaque wire form, {!size} bytes. *)

val size : int
(** 32 bytes: 24 encrypted payload + 8 MAC. *)

val mint : Cipher.key -> nonce:int -> grant -> t
(** Encrypt and tag a grant under the router's key. The [nonce]
    (0-255) diversifies otherwise-identical grants. The grant is written
    straight into the token, then encrypted and tagged in place: the
    token's 32 bytes are all a mint allocates. *)

val mint_fields :
  Cipher.key -> nonce:int -> router_id:int -> port:int -> max_priority:int ->
  reverse_ok:bool -> account:int -> packet_limit:int -> expiry_ms:int -> t
(** {!mint} of the grant with these fields, without building the record. *)

val verify : Cipher.key -> t -> grant option
(** Full decryption + MAC check — the "difficult to fully decrypt and check
    in real time" operation the token cache exists to avoid. [None] if the
    MAC fails or the token is malformed. The check and the decryption run
    in place in one scratch buffer; the token is not modified. *)

val of_bytes : bytes -> t option
(** Adopt received bytes as a token if the length is right. No
    authenticity implied. *)

val to_bytes : t -> bytes

val forged : unit -> t
(** An arbitrary token that will not verify under any reasonable key —
    for authorization-failure tests. *)

val permits :
  grant -> port:int -> priority:int -> now_ms:int -> reverse:bool -> bool
(** Does the grant authorize a packet on [port] at [priority] at time
    [now_ms], in the [reverse] direction if set? (Packet-count limits are
    enforced statefully by {!Cache}.) *)
