type grant = {
  router_id : int;
  port : int;
  max_priority : int;
  reverse_ok : bool;
  account : int;
  packet_limit : int;
  expiry_ms : int;
}

type t = bytes

let payload_size = 24
let mac_size = 8
let size = payload_size + mac_size
let magic = 0x53 (* 'S', sanity check surviving decryption *)

let iv = 0x243F6A8885A308D3L

(* The grant's 24 plaintext bytes, big-endian: router id (4), port,
   max priority, reverse flag, nonce, account (4), packet limit (4),
   expiry (4), [magic], three zero bytes. *)
let put32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let get32 b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

(* Writes the grant into [b]'s first 24 bytes, encrypts them in place
   and appends their MAC: the token is the one buffer it returns. *)
let mint_fields key ~nonce ~router_id ~port ~max_priority ~reverse_ok ~account
    ~packet_limit ~expiry_ms =
  let b = Bytes.create size in
  put32 b 0 router_id;
  Bytes.set_uint8 b 4 (port land 0xff);
  Bytes.set_uint8 b 5 (max_priority land 0xf);
  Bytes.set_uint8 b 6 (if reverse_ok then 1 else 0);
  Bytes.set_uint8 b 7 (nonce land 0xff);
  put32 b 8 account;
  put32 b 12 packet_limit;
  put32 b 16 expiry_ms;
  put32 b 20 (magic lsl 24);
  Cipher.encrypt_cbc_in_place key ~iv b ~len:payload_size;
  Cipher.mac_into key b ~len:payload_size b ~at:payload_size;
  b

let mint key ~nonce g =
  let { router_id; port; max_priority; reverse_ok; account; packet_limit; expiry_ms } = g in
  mint_fields key ~nonce ~router_id ~port ~max_priority ~reverse_ok ~account ~packet_limit
    ~expiry_ms

(* The tag is recomputed beside the token's own, and the payload is
   decrypted in the same scratch buffer; the token is not written. *)
let verify key t =
  if Bytes.length t <> size then None
  else begin
    let b = Bytes.create size in
    Cipher.mac_into key t ~len:payload_size b ~at:payload_size;
    if
      get32 b payload_size <> get32 t payload_size
      || get32 b (payload_size + 4) <> get32 t (payload_size + 4)
    then None
    else begin
      Bytes.blit t 0 b 0 payload_size;
      Cipher.decrypt_cbc_in_place key ~iv b ~len:payload_size;
      if Bytes.get_uint8 b 20 <> magic then None
      else
        Some
          {
            router_id = get32 b 0;
            port = Bytes.get_uint8 b 4;
            max_priority = Bytes.get_uint8 b 5;
            reverse_ok = Bytes.get_uint8 b 6 = 1;
            account = get32 b 8;
            packet_limit = get32 b 12;
            expiry_ms = get32 b 16;
          }
    end
  end

let of_bytes b = if Bytes.length b = size then Some b else None
let to_bytes t = Bytes.copy t

let forged () = Bytes.make size '\xA5'

let permits g ~port ~priority ~now_ms ~reverse =
  let priority_rank p =
    (* §5: 0 normal .. 7 highest; high bit set = sub-normal, 0xF lowest. *)
    if p land 0x8 = 0 then p + 8 else 0xF - p
  in
  g.port = port
  && priority_rank priority <= priority_rank g.max_priority
  && (g.expiry_ms = 0 || now_ms <= g.expiry_ms)
  && ((not reverse) || g.reverse_ok)
