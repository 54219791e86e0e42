module C = Telemetry.Registry.Counter

type cache_entry = {
  answer : Directory.route_info list;
  expires : Sim.Time.t;
  selector : Directory.selector;
  k : int;
}

type t = {
  engine : Sim.Engine.t;
  directory : Directory.t;
  node : Topo.Graph.node_id;
  cache_ttl : Sim.Time.t;
  cache_cap : int;
  cache : (int, cache_entry) Hashtbl.t;  (* keyed on interned name ids *)
  hits : C.t;
  misses : C.t;
}

let create ?(cache_ttl = Sim.Time.s 10) ?(cache_cap = 512) ?telemetry engine
    directory ~node =
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let labels = [ ("node", string_of_int node) ] in
  {
    engine;
    directory;
    node;
    cache_ttl;
    cache_cap;
    cache = Hashtbl.create 16;
    hits =
      Telemetry.Registry.counter registry ~labels "dirsvc_client_hits"
        ~help:"client-cache hits (answered locally)";
    misses =
      Telemetry.Registry.counter registry ~labels "dirsvc_client_misses"
        ~help:"client-cache misses (paid the hierarchy walk)";
  }

let cache_hit_delay = Sim.Time.us 10

(* Keep the cache bounded: inserting a new key past the cap first sweeps
   every expired entry; if the sweep freed nothing, the entry closest to
   expiry makes room. Previously expired entries lingered until the same
   key was re-queried, so a client touching many distinct names grew
   without bound. *)
let insert t key entry =
  if t.cache_cap > 0 && Hashtbl.length t.cache >= t.cache_cap
     && not (Hashtbl.mem t.cache key)
  then begin
    let now = Sim.Engine.now t.engine in
    let expired =
      Hashtbl.fold (fun k e acc -> if e.expires <= now then k :: acc else acc) t.cache []
    in
    List.iter (Hashtbl.remove t.cache) expired;
    if Hashtbl.length t.cache >= t.cache_cap then begin
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best.expires <= e.expires -> acc
            | _ -> Some (k, e))
          t.cache None
      in
      match victim with
      | Some (k, _) -> Hashtbl.remove t.cache k
      | None -> ()
    end
  end;
  Hashtbl.replace t.cache key entry

let routes t ~target ?(selector = Directory.Lowest_delay) ?(k = 2) callback =
  let key = Directory.intern_name t.directory target in
  let now = Sim.Engine.now t.engine in
  match Hashtbl.find_opt t.cache key with
  | Some entry when entry.expires > now && entry.selector = selector && entry.k = k ->
    C.incr t.hits;
    Sim.Engine.schedule t.engine ~delay:cache_hit_delay (fun () ->
        callback entry.answer)
  | Some _ | None ->
    C.incr t.misses;
    let latency = Directory.query_latency t.directory ~client:t.node ~target in
    Sim.Engine.schedule t.engine ~delay:latency (fun () ->
        let answer =
          Directory.query t.directory ~client:t.node ~target ~selector ~k ()
        in
        insert t key
          {
            answer;
            expires = Sim.Engine.now t.engine + t.cache_ttl;
            selector;
            k;
          };
        callback answer)

let invalidate t ~target =
  Hashtbl.remove t.cache (Directory.intern_name t.directory target)

let cached_entries t = Hashtbl.length t.cache
let hits t = C.value t.hits
let misses t = C.value t.misses
