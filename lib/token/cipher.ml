(* [rounds]: 16 round keys, 32 bits each. [mac_rounds]: the MAC's round
   keys, derived once here so a tag is not forgeable from CBC ciphertext
   blocks. *)
type key = { rounds : int array; mac_rounds : int array }

let rounds = 16

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let key_of_int64 seed =
  let state = ref seed in
  let round_keys =
    Array.init rounds (fun _ ->
        state := Int64.add !state 0x9E3779B97F4A7C15L;
        Int64.to_int (Int64.logand (mix64 !state) 0xFFFF_FFFFL))
  in
  { rounds = round_keys; mac_rounds = Array.map (fun rk -> rk lxor 0x5C5C5C5C) round_keys }

let random_looking_key id = key_of_int64 (mix64 (Int64.of_int (id + 0x5EED)))

(* Round function on 32-bit halves, kept in OCaml ints. *)
let mask32 = 0xFFFF_FFFF

let rotl32 v n = ((v lsl n) lor (v lsr (32 - n))) land mask32

let feistel_f half rk =
  let x = (half + rk) land mask32 in
  let x = x lxor rotl32 x 7 in
  let x = (x * 0x9E3779B1) land mask32 in
  x lxor rotl32 x 13

(* The in-place codec: an 8-byte big-endian block at [off] is two 32-bit
   halves, read and written as 16-bit pairs so no [int32] is boxed. *)
let get32 b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let set32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let xor_at b off hi lo =
  set32 b off (get32 b off lxor hi);
  set32 b (off + 4) (get32 b (off + 4) lxor lo)

let encrypt_at rk b off =
  let l = ref (get32 b off) and r = ref (get32 b (off + 4)) in
  for i = 0 to rounds - 1 do
    let l' = !r in
    r := !l lxor feistel_f !r rk.(i);
    l := l'
  done;
  set32 b off !l;
  set32 b (off + 4) !r

let decrypt_at rk b off =
  let l = ref (get32 b off) and r = ref (get32 b (off + 4)) in
  for i = rounds - 1 downto 0 do
    let r' = !l in
    l := !r lxor feistel_f !l rk.(i);
    r := r'
  done;
  set32 b off !l;
  set32 b (off + 4) !r

(* The single-block API, through an 8-byte buffer. *)
let on_block f rk v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  f rk b 0;
  Bytes.get_int64_be b 0

let encrypt_block k v = on_block encrypt_at k.rounds v
let decrypt_block k v = on_block decrypt_at k.rounds v

let check_len len = if len mod 8 <> 0 then invalid_arg "Cipher: length not a multiple of 8"
let hi64 v = Int64.to_int (Int64.shift_right_logical v 32) land mask32
let lo64 v = Int64.to_int v land mask32

let encrypt_cbc_in_place k ~iv b ~len =
  check_len len;
  let off = ref 0 in
  while !off < len do
    let o = !off in
    if o = 0 then xor_at b 0 (hi64 iv) (lo64 iv)
    else xor_at b o (get32 b (o - 8)) (get32 b (o - 4));
    encrypt_at k.rounds b o;
    off := o + 8
  done

(* back to front, so each block's predecessor is still ciphertext *)
let decrypt_cbc_in_place k ~iv b ~len =
  check_len len;
  let off = ref (len - 8) in
  while !off >= 0 do
    let o = !off in
    decrypt_at k.rounds b o;
    if o = 0 then xor_at b 0 (hi64 iv) (lo64 iv)
    else xor_at b o (get32 b (o - 8)) (get32 b (o - 4));
    off := o - 8
  done

(* CBC-MAC of [src]'s first [len] bytes, chained through [dst] at [at].
   The input is zero-padded to whole blocks, with one more block when
   it already fills them, and the padding's last byte holds the length,
   so no message extends another across its pad. *)
let mac_into k src ~len dst ~at =
  set32 dst at 0x6A09E667;
  set32 dst (at + 4) 0xF3BCC908;
  let full = len / 8 * 8 in
  let off = ref 0 in
  while !off < full do
    xor_at dst at (get32 src !off) (get32 src (!off + 4));
    encrypt_at k.mac_rounds dst at;
    off := !off + 8
  done;
  let hi = ref 0 and lo = ref (len land 0xFF) in
  for i = full to len - 1 do
    let c = Char.code (Bytes.get src i) and j = i - full in
    if j < 4 then hi := !hi lor (c lsl (8 * (3 - j))) else lo := !lo lor (c lsl (8 * (7 - j)))
  done;
  xor_at dst at !hi !lo;
  encrypt_at k.mac_rounds dst at
