type miss_policy = Optimistic | Block | Drop

type verdict =
  | Admit of Capability.grant
  | Deny
  | Defer
  | Miss_admit
  | Miss_drop

type entry = {
  grant : Capability.grant option; (* None = known bad *)
  mutable packets : int;
}

type t = {
  key : Cipher.key;
  router_id : int;
  policy : miss_policy;
  ledger : Account.t;
  table : (string, entry) Hashtbl.t;
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

let key_of token = Bytes.to_string token

let check t ~token ~port ~priority ~now_ms ~packet_bytes ~reverse =
  match Hashtbl.find_opt t.table (key_of token) with
  | Some entry ->
    t.hit_count <- t.hit_count + 1;
    (match entry.grant with
    | None -> Deny
    | Some g ->
      let within_budget =
        g.Capability.packet_limit = 0 || entry.packets < g.Capability.packet_limit
      in
      if
        within_budget
        && Capability.permits g ~port ~priority ~now_ms ~reverse
      then begin
        entry.packets <- entry.packets + 1;
        Account.charge t.ledger ~account:g.Capability.account ~packets:1
          ~bytes:packet_bytes;
        Admit g
      end
      else Deny)
  | None -> (
    t.miss_count <- t.miss_count + 1;
    match t.policy with
    | Optimistic -> Miss_admit
    | Block -> Defer
    | Drop -> Miss_drop)

let complete_verification t ~token ~now_ms =
  let k = key_of token in
  match Hashtbl.find_opt t.table k with
  | Some { grant = Some _; _ } -> true
  | Some { grant = None; _ } -> false
  | None -> (
    match Capability.of_bytes token with
    | None ->
      Hashtbl.replace t.table k { grant = None; packets = 0 };
      false
    | Some cap -> (
      match Capability.verify t.key cap with
      | Some g
        when g.Capability.router_id = t.router_id
             && (g.Capability.expiry_ms = 0 || now_ms <= g.Capability.expiry_ms) ->
        Hashtbl.replace t.table k { grant = Some g; packets = 0 };
        true
      | Some _ | None ->
        Hashtbl.replace t.table k { grant = None; packets = 0 };
        false))

let entries t = Hashtbl.length t.table
let hits t = t.hit_count
let misses t = t.miss_count
let flush t = Hashtbl.reset t.table
