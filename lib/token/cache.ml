type miss_policy = Optimistic | Block | Drop

type verdict =
  | Admit of Capability.grant
  | Deny
  | Defer
  | Miss_admit
  | Miss_drop

type entry = {
  token : bytes;  (* the entry's own copy, compared in full on a hit *)
  verdict : verdict;  (* [Admit g], or [Deny] for a known-bad token *)
  mutable packets : int;
}

type t = {
  key : Cipher.key;
  router_id : int;
  policy : miss_policy;
  ledger : Account.t;
  table : (int, entry) Hashtbl.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~key ~router_id ~policy ~ledger =
  {
    key;
    router_id;
    policy;
    ledger;
    table = Hashtbl.create 64;
    hit_count = 0;
    miss_count = 0;
  }

(* The hash of the token in [b.[off] .. b.[off + len - 1]]: its last 8
   bytes, which are a capability's CBC-MAC tag, or a fold over a shorter
   token's bytes. A hash only picks the bucket: a hit is the whole
   token. *)
let hash_of b ~off ~len =
  if len >= 8 then Int64.to_int (Bytes.get_int64_ne b (off + len - 8))
  else begin
    let h = ref len in
    for i = off to off + len - 1 do
      h := (!h lsl 8) lor Bytes.get_uint8 b i
    done;
    !h
  end

(* [tok] from byte [i] on equals the window's bytes from [off + i] on,
   compared 8 bytes at a time. *)
let rec same_from tok b ~off ~len i =
  if i + 8 <= len then
    (Bytes.get_int64_ne tok i : int64) = Bytes.get_int64_ne b (off + i)
    && same_from tok b ~off ~len (i + 8)
  else
    i = len
    || (Bytes.get tok i = Bytes.get b (off + i) && same_from tok b ~off ~len (i + 1))

let same tok b ~off ~len = Bytes.length tok = len && same_from tok b ~off ~len 0

let rec find_among entries b ~off ~len =
  match entries with
  | [] -> raise Not_found
  | e :: rest -> if same e.token b ~off ~len then e else find_among rest b ~off ~len

(* The entry for the window's token: the bucket's latest binding, and
   the rest of the bucket only when that one is another token with the
   same hash. Raises [Not_found]. *)
let find t b ~off ~len =
  let h = hash_of b ~off ~len in
  let e = Hashtbl.find t.table h in
  if same e.token b ~off ~len then e
  else find_among (Hashtbl.find_all t.table h) b ~off ~len

let check_window t b ~off ~len ~port ~priority ~now_ms ~packet_bytes ~reverse =
  match find t b ~off ~len with
  | entry -> (
    t.hit_count <- t.hit_count + 1;
    match entry.verdict with
    | Admit g
      when (g.Capability.packet_limit = 0 || entry.packets < g.Capability.packet_limit)
           && Capability.permits g ~port ~priority ~now_ms ~reverse ->
      entry.packets <- entry.packets + 1;
      Account.charge t.ledger ~account:g.Capability.account ~packets:1
        ~bytes:packet_bytes;
      entry.verdict
    | Admit _ | Deny | Defer | Miss_admit | Miss_drop -> Deny)
  | exception Not_found -> (
    t.miss_count <- t.miss_count + 1;
    match t.policy with
    | Optimistic -> Miss_admit
    | Block -> Defer
    | Drop -> Miss_drop)

let check t ~token ~port ~priority ~now_ms ~packet_bytes ~reverse =
  check_window t token ~off:0 ~len:(Bytes.length token) ~port ~priority ~now_ms
    ~packet_bytes ~reverse

let complete_verification t ~token ~now_ms =
  let verdict =
    match find t token ~off:0 ~len:(Bytes.length token) with
    | { verdict; _ } -> verdict
    | exception Not_found ->
      let verdict =
        match Option.bind (Capability.of_bytes token) (Capability.verify t.key) with
        | Some g
          when g.Capability.router_id = t.router_id
               && (g.Capability.expiry_ms = 0 || now_ms <= g.Capability.expiry_ms) ->
          Admit g
        | Some _ | None -> Deny
      in
      Hashtbl.add t.table
        (hash_of token ~off:0 ~len:(Bytes.length token))
        { token = Bytes.copy token; verdict; packets = 0 };
      verdict
  in
  match verdict with Admit _ -> true | Deny | Defer | Miss_admit | Miss_drop -> false

let entries t = Hashtbl.length t.table
let hits t = t.hit_count
let misses t = t.miss_count
let flush t = Hashtbl.reset t.table
