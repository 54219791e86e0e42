(* Tests for the capability token subsystem: cipher, tokens, cache,
   accounting, priorities. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key = Token.Cipher.key_of_int64 0xFEEDFACEL
let other_key = Token.Cipher.key_of_int64 0x0BADF00DL

(* Cipher *)

let block_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int64) "roundtrip" v
        (Token.Cipher.decrypt_block key (Token.Cipher.encrypt_block key v)))
    [ 0L; 1L; -1L; 0x0123456789ABCDEFL; Int64.min_int; Int64.max_int ]

(* Pinned from the 64-bit loop the in-place rounds replaced. *)
let block_known_answers () =
  List.iter
    (fun (v, c) -> Alcotest.(check int64) "known answer" c (Token.Cipher.encrypt_block key v))
    [
      (0L, 0xEE92F097AB21078BL);
      (0x0123456789ABCDEFL, 0xC5B69F37E8698CB6L);
      (-1L, 0xC4BE127A6A954C97L);
    ]

let block_changes_value () =
  check_bool "encryption is not identity" true
    (Token.Cipher.encrypt_block key 42L <> 42L)

let keys_differ () =
  check_bool "different keys, different ciphertext" true
    (Token.Cipher.encrypt_block key 42L <> Token.Cipher.encrypt_block other_key 42L)

(* The CBC-MAC tag of [data], through the in-place writer. *)
let tag key data =
  let t = Bytes.create 8 in
  Token.Cipher.mac_into key data ~len:(Bytes.length data) t ~at:0;
  Bytes.get_int64_be t 0

(* [plain] CBC-encrypted in place, on a copy. *)
let cbc_copy key ~iv plain =
  let b = Bytes.copy plain in
  Token.Cipher.encrypt_cbc_in_place key ~iv b ~len:(Bytes.length b);
  b

let cbc_roundtrip () =
  let plain = Bytes.of_string "0123456789abcdefFEDCBA98" in
  let b = cbc_copy key ~iv:7L plain in
  check_bool "changed" true (not (Bytes.equal b plain));
  Token.Cipher.decrypt_cbc_in_place key ~iv:7L b ~len:(Bytes.length b);
  check_bool "roundtrip" true (Bytes.equal b plain)

let cbc_rejects_unaligned () =
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Cipher: length not a multiple of 8") (fun () ->
      Token.Cipher.encrypt_cbc_in_place key ~iv:0L (Bytes.create 7) ~len:7)

let cbc_iv_matters () =
  let plain = Bytes.make 16 'x' in
  check_bool "iv changes ciphertext" true
    (not (Bytes.equal (cbc_copy key ~iv:1L plain) (cbc_copy key ~iv:2L plain)))

let mac_detects_tamper () =
  let data = Bytes.of_string "account=42;port=3" in
  let t = tag key data in
  let tampered = Bytes.copy data in
  Bytes.set tampered 8 '9';
  check_bool "differs" true (t <> tag key tampered);
  check_bool "key matters" true (t <> tag other_key data)

let qcheck_block_roundtrip =
  QCheck.Test.make ~name:"feistel roundtrip any block" ~count:500 QCheck.int64
    (fun v ->
      Int64.equal v (Token.Cipher.decrypt_block key (Token.Cipher.encrypt_block key v)))

(* Capability *)

let grant =
  {
    Token.Capability.router_id = 17;
    port = 3;
    max_priority = 7;
    reverse_ok = true;
    account = 4242;
    packet_limit = 0;
    expiry_ms = 0;
  }

let mint_verify () =
  let tok = Token.Capability.mint key ~nonce:1 grant in
  match Token.Capability.verify key tok with
  | None -> Alcotest.fail "should verify"
  | Some g ->
    check_int "router" 17 g.Token.Capability.router_id;
    check_int "port" 3 g.Token.Capability.port;
    check_int "account" 4242 g.Token.Capability.account;
    check_bool "reverse" true g.Token.Capability.reverse_ok

let wrong_key_fails () =
  let tok = Token.Capability.mint key ~nonce:1 grant in
  check_bool "other key rejects" true (Token.Capability.verify other_key tok = None)

let forged_fails () =
  check_bool "forged rejects" true
    (Token.Capability.verify key (Token.Capability.forged ()) = None)

let tamper_fails () =
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:1 grant) in
  Bytes.set tok 5 (Char.chr (Char.code (Bytes.get tok 5) lxor 0x40));
  match Token.Capability.of_bytes tok with
  | None -> Alcotest.fail "length unchanged"
  | Some t -> check_bool "tampered rejects" true (Token.Capability.verify key t = None)

let nonce_diversifies () =
  let t1 = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:1 grant) in
  let t2 = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:2 grant) in
  check_bool "distinct wire forms" false (Bytes.equal t1 t2)

let permits_rules () =
  let p g ~port ~priority ~now_ms ~reverse =
    Token.Capability.permits g ~port ~priority ~now_ms ~reverse
  in
  check_bool "right port" true (p grant ~port:3 ~priority:0 ~now_ms:0 ~reverse:false);
  check_bool "wrong port" false (p grant ~port:4 ~priority:0 ~now_ms:0 ~reverse:false);
  check_bool "reverse ok" true (p grant ~port:3 ~priority:0 ~now_ms:0 ~reverse:true);
  let no_reverse = { grant with Token.Capability.reverse_ok = false } in
  check_bool "reverse denied" false
    (p no_reverse ~port:3 ~priority:0 ~now_ms:0 ~reverse:true);
  let low = { grant with Token.Capability.max_priority = 2 } in
  check_bool "priority within" true (p low ~port:3 ~priority:2 ~now_ms:0 ~reverse:false);
  check_bool "priority above" false (p low ~port:3 ~priority:5 ~now_ms:0 ~reverse:false);
  check_bool "subnormal allowed under normal cap" true
    (p { grant with Token.Capability.max_priority = 0 } ~port:3 ~priority:0xF
       ~now_ms:0 ~reverse:false);
  let expiring = { grant with Token.Capability.expiry_ms = 1000 } in
  check_bool "before expiry" true (p expiring ~port:3 ~priority:0 ~now_ms:999 ~reverse:false);
  check_bool "after expiry" false (p expiring ~port:3 ~priority:0 ~now_ms:1001 ~reverse:false)

let size_is_fixed () =
  check_int "32 bytes" 32 Token.Capability.size;
  check_int "wire form" 32
    (Bytes.length (Token.Capability.to_bytes (Token.Capability.mint key ~nonce:0 grant)))

(* Priority *)

let priority_order () =
  check_bool "highest beats normal" true
    (Token.Priority.compare Token.Priority.highest Token.Priority.normal > 0);
  check_bool "normal beats subnormal" true
    (Token.Priority.compare Token.Priority.normal 0x8 > 0);
  check_bool "0xF is lowest" true
    (List.for_all
       (fun p -> Token.Priority.compare Token.Priority.lowest p <= 0)
       (List.init 16 (fun i -> i)));
  check_int "rank of normal" 8 (Token.Priority.rank Token.Priority.normal);
  check_int "rank of highest" 15 (Token.Priority.rank Token.Priority.highest);
  check_int "rank of lowest" 0 (Token.Priority.rank Token.Priority.lowest)

let priority_preemptive () =
  check_bool "6 preempts" true (Token.Priority.preemptive 6);
  check_bool "7 preempts" true (Token.Priority.preemptive 7);
  check_bool "5 does not" false (Token.Priority.preemptive 5);
  check_bool "0xF does not" false (Token.Priority.preemptive 0xF)

let qcheck_priority_total_order =
  QCheck.Test.make ~name:"priority ranks are a bijection on 0..15" ~count:1
    QCheck.unit (fun () ->
      let ranks = List.map Token.Priority.rank (List.init 16 (fun i -> i)) in
      List.sort compare ranks = List.init 16 (fun i -> i))

(* Cache *)

let mk_cache policy =
  let ledger = Token.Account.create () in
  (Token.Cache.create ~key ~router_id:17 ~policy ~ledger, ledger)

let token_bytes = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:9 grant)

let cache_miss_policies () =
  let c_opt, _ = mk_cache Token.Cache.Optimistic in
  check_bool "optimistic admits" true
    (Token.Cache.check c_opt ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:100 ~reverse:false
    = Token.Cache.Miss_admit);
  let c_blk, _ = mk_cache Token.Cache.Block in
  check_bool "block defers" true
    (Token.Cache.check c_blk ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:100 ~reverse:false
    = Token.Cache.Defer);
  let c_drop, _ = mk_cache Token.Cache.Drop in
  check_bool "drop drops" true
    (Token.Cache.check c_drop ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:100 ~reverse:false
    = Token.Cache.Miss_drop)

let cache_hit_after_verification () =
  let c, ledger = mk_cache Token.Cache.Optimistic in
  check_bool "verifies" true (Token.Cache.complete_verification c ~token:token_bytes ~now_ms:0);
  (match
     Token.Cache.check c ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:500 ~reverse:false
   with
  | Token.Cache.Admit g -> check_int "grant account" 4242 g.Token.Capability.account
  | _ -> Alcotest.fail "expected Admit");
  let usage = Token.Account.usage ledger ~account:4242 in
  check_int "charged packets" 1 usage.Token.Account.packets;
  check_int "charged bytes" 500 usage.Token.Account.bytes

let cache_denies_bad_token () =
  let c, _ = mk_cache Token.Cache.Optimistic in
  let bad = Token.Capability.to_bytes (Token.Capability.forged ()) in
  check_bool "bad fails verification" false
    (Token.Cache.complete_verification c ~token:bad ~now_ms:0);
  check_bool "subsequent packets denied" true
    (Token.Cache.check c ~token:bad ~port:3 ~priority:0 ~now_ms:0 ~packet_bytes:1
       ~reverse:false
    = Token.Cache.Deny)

let cache_enforces_packet_limit () =
  let limited = { grant with Token.Capability.packet_limit = 2 } in
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:3 limited) in
  let c, _ = mk_cache Token.Cache.Optimistic in
  ignore (Token.Cache.complete_verification c ~token:tok ~now_ms:0);
  let check_once expected label =
    let v =
      Token.Cache.check c ~token:tok ~port:3 ~priority:0 ~now_ms:0 ~packet_bytes:1
        ~reverse:false
    in
    check_bool label expected
      (match v with Token.Cache.Admit _ -> true | _ -> false)
  in
  check_once true "first";
  check_once true "second";
  check_once false "third (over limit)"

let cache_wrong_router_rejected () =
  (* Token minted for router 99 presented at router 17. *)
  let foreign = { grant with Token.Capability.router_id = 99 } in
  let tok = Token.Capability.to_bytes (Token.Capability.mint key ~nonce:4 foreign) in
  let c, _ = mk_cache Token.Cache.Optimistic in
  check_bool "verification fails" false
    (Token.Cache.complete_verification c ~token:tok ~now_ms:0)

let cache_counts_and_flush () =
  let c, _ = mk_cache Token.Cache.Optimistic in
  ignore
    (Token.Cache.check c ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:1 ~reverse:false);
  check_int "one miss" 1 (Token.Cache.misses c);
  ignore (Token.Cache.complete_verification c ~token:token_bytes ~now_ms:0);
  check_int "one entry" 1 (Token.Cache.entries c);
  ignore
    (Token.Cache.check c ~token:token_bytes ~port:3 ~priority:0 ~now_ms:0
       ~packet_bytes:1 ~reverse:false);
  check_int "one hit" 1 (Token.Cache.hits c);
  Token.Cache.flush c;
  check_int "flushed" 0 (Token.Cache.entries c)

(* Warm hits through the window form, at an odd offset inside a larger
   buffer, allocate nothing: no copy, no key, no option, no verdict. *)
let cache_hit_allocation () =
  let c, ledger = mk_cache Token.Cache.Optimistic in
  ignore (Token.Cache.complete_verification c ~token:token_bytes ~now_ms:0);
  let off = 5 and len = Bytes.length token_bytes in
  let buf = Bytes.make (off + len + 3) 'x' in
  Bytes.blit token_bytes 0 buf off len;
  let hit () =
    Token.Cache.check_window c buf ~off ~len ~port:3 ~priority:0 ~now_ms:0
      ~packet_bytes:100 ~reverse:false
  in
  (match hit () with
  | Token.Cache.Admit _ -> ()
  | _ -> Alcotest.fail "expected Admit");
  let hits = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do
    ignore (Sys.opaque_identity (hit ()))
  done;
  let per_hit = (Gc.minor_words () -. w0) /. float_of_int hits in
  check_int "all hits" (hits + 1) (Token.Cache.hits c);
  check_int "all charged" (hits + 1) (Token.Account.usage ledger ~account:4242).packets;
  if per_hit > 0.01 then Alcotest.failf "%.3f words per hit (> 0.01)" per_hit

(* Account *)

let account_totals () =
  let l = Token.Account.create () in
  Token.Account.charge l ~account:1 ~packets:2 ~bytes:100;
  Token.Account.charge l ~account:2 ~packets:1 ~bytes:50;
  Token.Account.charge l ~account:1 ~packets:1 ~bytes:25;
  let u1 = Token.Account.usage l ~account:1 in
  check_int "acct1 packets" 3 u1.Token.Account.packets;
  check_int "acct1 bytes" 125 u1.Token.Account.bytes;
  Alcotest.(check (list int)) "accounts" [ 1; 2 ] (Token.Account.accounts l);
  let total = Token.Account.total l in
  check_int "total packets" 4 total.Token.Account.packets;
  check_int "total bytes" 175 total.Token.Account.bytes;
  let u3 = Token.Account.usage l ~account:3 in
  check_int "unknown account zero" 0 u3.Token.Account.packets

let qcheck_capability_roundtrip =
  QCheck.Test.make ~name:"capability mint/verify roundtrip" ~count:100
    QCheck.(
      quad (int_range 0 255) (int_range 0 15) bool (int_range 0 1000000))
    (fun (port, prio, rev, account) ->
      let g =
        {
          Token.Capability.router_id = 17;
          port;
          max_priority = prio;
          reverse_ok = rev;
          account;
          packet_limit = 0;
          expiry_ms = 0;
        }
      in
      match Token.Capability.verify key (Token.Capability.mint key ~nonce:0 g) with
      | Some g' -> g' = g
      | None -> false)

(* --- the in-place codec against the compositions it replaced --- *)

(* CBC chaining spelled out over the block cipher. *)
let spec_encrypt_cbc key ~iv plain =
  let out = Bytes.copy plain and prev = ref iv in
  for i = 0 to (Bytes.length plain / 8) - 1 do
    let c = Token.Cipher.encrypt_block key (Int64.logxor (Bytes.get_int64_be plain (8 * i)) !prev) in
    Bytes.set_int64_be out (8 * i) c;
    prev := c
  done;
  out

(* The spec: the grant's encoding through a [Wire.Buf] writer, then
   chained-block CBC and the MAC tag on fresh buffers, tag appended. *)
let spec_iv = 0x243F6A8885A308D3L

let spec_encode_grant ~nonce (g : Token.Capability.grant) =
  let w = Wire.Buf.create_writer 24 in
  Wire.Buf.put_u32_int w (g.router_id land 0xffffffff);
  Wire.Buf.put_u8 w (g.port land 0xff);
  Wire.Buf.put_u8 w (g.max_priority land 0xf);
  Wire.Buf.put_u8 w (if g.reverse_ok then 1 else 0);
  Wire.Buf.put_u8 w (nonce land 0xff);
  Wire.Buf.put_u32_int w (g.account land 0xffffffff);
  Wire.Buf.put_u32_int w (g.packet_limit land 0xffffffff);
  Wire.Buf.put_u32_int w (g.expiry_ms land 0xffffffff);
  Wire.Buf.put_u8 w 0x53;
  Wire.Buf.put_zeros w 3;
  Wire.Buf.contents w

let spec_mint key ~nonce g =
  let cipher = spec_encrypt_cbc key ~iv:spec_iv (spec_encode_grant ~nonce g) in
  let out = Bytes.create 32 in
  Bytes.blit cipher 0 out 0 24;
  Bytes.set_int64_be out 24 (tag key cipher);
  out

(* A random key, grant and nonce from one seed; 32-bit fields span
   their whole range. *)
let random_mint seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let u32 () = (Sim.Rng.int rng 0x10000 lsl 16) lor Sim.Rng.int rng 0x10000 in
  let key =
    if Sim.Rng.int rng 2 = 0 then Token.Cipher.random_looking_key (Sim.Rng.int rng 100_000)
    else Token.Cipher.key_of_int64 (Int64.of_int (u32 () lsl 20 lxor u32 ()))
  in
  let g =
    {
      Token.Capability.router_id = u32 ();
      port = Sim.Rng.int rng 256;
      max_priority = Sim.Rng.int rng 16;
      reverse_ok = Sim.Rng.int rng 2 = 0;
      account = u32 ();
      packet_limit = u32 ();
      expiry_ms = u32 ();
    }
  in
  (key, g, Sim.Rng.int rng 256, rng)

let qcheck_mint_matches_spec =
  QCheck.Test.make ~name:"mint = encode + encrypt_cbc + mac" ~count:2000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let key, g, nonce, _ = random_mint seed in
      Bytes.equal (Token.Capability.mint key ~nonce g :> bytes) (spec_mint key ~nonce g))

let qcheck_verify_inverts_and_rejects_flips =
  QCheck.Test.make ~name:"verify returns the grant, rejects any bit flip" ~count:2000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let key, g, nonce, rng = random_mint seed in
      let tok = Token.Capability.mint key ~nonce g in
      let bit = Sim.Rng.int rng (8 * Token.Capability.size) in
      let flipped = Token.Capability.to_bytes tok in
      Bytes.set flipped (bit / 8)
        (Char.chr (Char.code (Bytes.get flipped (bit / 8)) lxor (1 lsl (bit land 7))));
      Token.Capability.verify key tok = Some g
      && (match Token.Capability.of_bytes flipped with
         | Some t -> Token.Capability.verify key t = None
         | None -> false))

let qcheck_cbc_matches_spec =
  QCheck.Test.make ~name:"in-place cbc = chained blocks, and inverts" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 6))
    (fun (seed, blocks) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let plain = Bytes.init (8 * blocks) (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      let iv = Int64.of_int (Sim.Rng.int rng 0x3FFF_FFFF lsl 30 lxor Sim.Rng.int rng 0x3FFF_FFFF) in
      let b = Bytes.copy plain in
      Token.Cipher.encrypt_cbc_in_place key ~iv b ~len:(8 * blocks);
      let encrypted = Bytes.equal b (spec_encrypt_cbc key ~iv plain) in
      Token.Cipher.decrypt_cbc_in_place key ~iv b ~len:(8 * blocks);
      encrypted && Bytes.equal b plain)

(* Tags pinned from the composition the in-place MAC replaced, across
   the padding's cases: empty, a partial block, exact blocks, seven
   bytes past a block. *)
let mac_known_answers () =
  List.iter
    (fun (s, t) ->
      Alcotest.(check int64) (Printf.sprintf "mac %S" s) t (tag key (Bytes.of_string s)))
    [
      ("", 0x517C284D37F72C49L);
      ("abc", 0x9082618675D20160L);
      ("0123456789abcdef", 0xCBD3DB013C189776L);
      ("0123456789abcdefFEDCBA9", 0xEDF6B811DE5CC2A6L);
    ]

(* The token is the only allocation a mint makes (32 bytes: 5 words). *)
let mint_allocation () =
  let g = grant in
  ignore (Token.Capability.mint key ~nonce:1 g);
  let mints = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to mints do
    ignore (Sys.opaque_identity (Token.Capability.mint key ~nonce:i g))
  done;
  let per_mint = (Gc.minor_words () -. w0) /. float_of_int mints in
  if per_mint > 6.0 then Alcotest.failf "%.2f words per mint (> 6)" per_mint

(* --- the cache against the string-keyed cache it replaced --- *)

(* The cache as it was keyed by a string copy of the token: the
   reference the window-keyed cache must agree with. *)
module Model = struct
  type entry = { grant : Token.Capability.grant option; mutable packets : int }

  type t = {
    policy : Token.Cache.miss_policy;
    ledger : Token.Account.t;
    table : (string, entry) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create policy =
    { policy; ledger = Token.Account.create (); table = Hashtbl.create 8; hits = 0; misses = 0 }

  let check m ~token ~port ~priority ~now_ms ~packet_bytes ~reverse =
    match Hashtbl.find_opt m.table (Bytes.to_string token) with
    | Some entry -> (
      m.hits <- m.hits + 1;
      match entry.grant with
      | None -> Token.Cache.Deny
      | Some g ->
        if
          (g.Token.Capability.packet_limit = 0
          || entry.packets < g.Token.Capability.packet_limit)
          && Token.Capability.permits g ~port ~priority ~now_ms ~reverse
        then begin
          entry.packets <- entry.packets + 1;
          Token.Account.charge m.ledger ~account:g.Token.Capability.account ~packets:1
            ~bytes:packet_bytes;
          Token.Cache.Admit g
        end
        else Token.Cache.Deny)
    | None -> (
      m.misses <- m.misses + 1;
      match m.policy with
      | Token.Cache.Optimistic -> Token.Cache.Miss_admit
      | Token.Cache.Block -> Token.Cache.Defer
      | Token.Cache.Drop -> Token.Cache.Miss_drop)

  let complete_verification m ~token ~now_ms =
    let k = Bytes.to_string token in
    match Hashtbl.find_opt m.table k with
    | Some { grant; _ } -> grant <> None
    | None ->
      let grant =
        match Token.Capability.of_bytes token with
        | None -> None
        | Some cap -> (
          match Token.Capability.verify key cap with
          | Some g
            when g.Token.Capability.router_id = 17
                 && (g.Token.Capability.expiry_ms = 0
                    || now_ms <= g.Token.Capability.expiry_ms) ->
            Some g
          | Some _ | None -> None)
      in
      Hashtbl.replace m.table k { grant; packets = 0 };
      grant <> None
end

(* [tok] with byte [i] flipped: for a capability with [i] < 24, the same
   CBC-MAC tag, so the same hash, on a token that must not verify. *)
let flip tok i =
  let b = Bytes.copy tok in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  b

let mint g ~nonce = Token.Capability.to_bytes (Token.Capability.mint key ~nonce g)

let tok_limited =
  mint { grant with Token.Capability.packet_limit = 2; account = 7 } ~nonce:3

let tok_expiring =
  mint
    { grant with Token.Capability.port = 5; reverse_ok = false; account = 8; expiry_ms = 50 }
    ~nonce:5

(* Minted, forged and wrong-router tokens; tokens that share a valid
   token's last 8 bytes but differ earlier; lengths 1-7, 32 and 40. *)
let model_tokens =
  [|
    token_bytes;
    tok_limited;
    tok_expiring;
    mint { grant with Token.Capability.router_id = 99 } ~nonce:4;
    Token.Capability.to_bytes (Token.Capability.forged ());
    flip token_bytes 0;
    flip token_bytes 23;
    flip tok_limited 10;
    Bytes.cat (Bytes.make 8 '\x11') token_bytes;
    Bytes.cat (Bytes.make 8 '\x22') token_bytes;
    Bytes.of_string "\x01";
    Bytes.of_string "\x00\x01";
    Bytes.of_string "\x01\x00";
    Bytes.of_string "abc";
    Bytes.of_string "abcd";
    Bytes.of_string "\x00\x00\x00\x00\x00";
    Bytes.of_string "tagless";
    Bytes.sub token_bytes 25 7;
  |]

type cache_op =
  | Check of {
      tok : int;
      off : int;
      port : int;
      priority : int;
      now_ms : int;
      reverse : bool;
      bytes : int;
    }
  | Verify of { tok : int; now_ms : int }
  | Flush

let print_cache_op = function
  | Check { tok; off; port; priority; now_ms; reverse; bytes } ->
    Printf.sprintf "check %d @%d port %d prio %d t %d rev %b %dB" tok off port priority
      now_ms reverse bytes
  | Verify { tok; now_ms } -> Printf.sprintf "verify %d t %d" tok now_ms
  | Flush -> "flush"

let cache_op_gen =
  let open QCheck.Gen in
  let tok = int_bound (Array.length model_tokens - 1) in
  let now_ms = oneofl [ 0; 40; 60 ] in
  frequency
    [
      ( 6,
        map
          (fun ((tok, off, port, priority), (now_ms, reverse, bytes)) ->
            Check { tok; off; port; priority; now_ms; reverse; bytes })
          (pair
             (quad tok (oneofl [ 0; 1; 3; 7; 13 ]) (oneofl [ 3; 4; 5 ]) (oneofl [ 0; 7; 8; 0xF ]))
             (triple now_ms bool (int_range 1 1500))) );
      (3, map2 (fun tok now_ms -> Verify { tok; now_ms }) tok now_ms);
      (1, return Flush);
    ]

(* The token [tok] as the window [buf.[off] .. buf.[off + len - 1]] of a
   buffer with other bytes on both sides. *)
let window tok ~off =
  let len = Bytes.length tok in
  let buf = Bytes.init (off + len + 5) (fun i -> Char.chr ((i * 37) land 0xFF)) in
  Bytes.blit tok 0 buf off len;
  buf

let qcheck_cache_matches_model =
  QCheck.Test.make ~name:"window-keyed cache = string-keyed cache" ~count:300
    (QCheck.make
       ~print:(fun (policy, ops) ->
         Printf.sprintf "policy %d: %s" policy (String.concat "; " (List.map print_cache_op ops)))
       QCheck.Gen.(pair (int_bound 2) (list_size (int_range 1 60) cache_op_gen)))
    (fun (policy, ops) ->
      let policy = [| Token.Cache.Optimistic; Token.Cache.Block; Token.Cache.Drop |].(policy) in
      let ledger = Token.Account.create () in
      let c = Token.Cache.create ~key ~router_id:17 ~policy ~ledger in
      let m = Model.create policy in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Check { tok; off; port; priority; now_ms; reverse; bytes } ->
              let token = model_tokens.(tok) in
              Token.Cache.check_window c (window token ~off) ~off ~len:(Bytes.length token)
                ~port ~priority ~now_ms ~packet_bytes:bytes ~reverse
              = Model.check m ~token ~port ~priority ~now_ms ~packet_bytes:bytes ~reverse
            | Verify { tok; now_ms } ->
              let token = model_tokens.(tok) in
              Token.Cache.complete_verification c ~token ~now_ms
              = Model.complete_verification m ~token ~now_ms
            | Flush ->
              Token.Cache.flush c;
              Hashtbl.reset m.Model.table;
              true
          in
          same_result
          && Token.Cache.hits c = m.Model.hits
          && Token.Cache.misses c = m.Model.misses
          && Token.Cache.entries c = Hashtbl.length m.Model.table
          && List.for_all
               (fun account ->
                 Token.Account.usage ledger ~account
                 = Token.Account.usage m.Model.ledger ~account)
               [ 4242; 7; 8 ])
        ops)

let () =
  Alcotest.run "token"
    [
      ( "cipher",
        [
          Alcotest.test_case "block roundtrip" `Quick block_roundtrip;
          Alcotest.test_case "known answers" `Quick block_known_answers;
          Alcotest.test_case "not identity" `Quick block_changes_value;
          Alcotest.test_case "keys differ" `Quick keys_differ;
          Alcotest.test_case "cbc roundtrip" `Quick cbc_roundtrip;
          Alcotest.test_case "cbc alignment" `Quick cbc_rejects_unaligned;
          Alcotest.test_case "cbc iv matters" `Quick cbc_iv_matters;
          Alcotest.test_case "mac detects tamper" `Quick mac_detects_tamper;
        ] );
      ( "capability",
        [
          Alcotest.test_case "mint/verify" `Quick mint_verify;
          Alcotest.test_case "wrong key fails" `Quick wrong_key_fails;
          Alcotest.test_case "forged fails" `Quick forged_fails;
          Alcotest.test_case "tamper fails" `Quick tamper_fails;
          Alcotest.test_case "nonce diversifies" `Quick nonce_diversifies;
          Alcotest.test_case "permits rules" `Quick permits_rules;
          Alcotest.test_case "fixed size" `Quick size_is_fixed;
          Alcotest.test_case "mac known answers" `Quick mac_known_answers;
          Alcotest.test_case "mint allocation" `Quick mint_allocation;
        ] );
      ( "priority",
        [
          Alcotest.test_case "ordering" `Quick priority_order;
          Alcotest.test_case "preemptive levels" `Quick priority_preemptive;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss policies" `Quick cache_miss_policies;
          Alcotest.test_case "hit after verification" `Quick cache_hit_after_verification;
          Alcotest.test_case "denies bad token" `Quick cache_denies_bad_token;
          Alcotest.test_case "packet limit" `Quick cache_enforces_packet_limit;
          Alcotest.test_case "wrong router" `Quick cache_wrong_router_rejected;
          Alcotest.test_case "counters and flush" `Quick cache_counts_and_flush;
          Alcotest.test_case "hit allocation" `Quick cache_hit_allocation;
        ] );
      ("account", [ Alcotest.test_case "totals" `Quick account_totals ]);
      ( "properties",
        List.map Seeded.to_alcotest
          [
            qcheck_block_roundtrip;
            qcheck_priority_total_order;
            qcheck_capability_roundtrip;
            qcheck_mint_matches_spec;
            qcheck_verify_inverts_and_rejects_flips;
            qcheck_cbc_matches_spec;
            qcheck_cache_matches_model;
          ] );
    ]
