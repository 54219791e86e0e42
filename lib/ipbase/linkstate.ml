module G = Topo.Graph
module W = Netsim.World

type config = { hello_interval : Sim.Time.t }

let default_config = { hello_interval = Sim.Time.s 1 }
let dead_factor = 3

(* settle time between an LSDB change and the recompute *)
let spf_delay = Sim.Time.ms 10

(* simulated sizes: an LSA is a base plus one entry per neighbor *)
let lsa_base_bytes = 24
let lsa_per_neighbor_bytes = 12
let hello_bytes = 20

type lsa = { origin : G.node_id; seq : int; neighbors : (G.node_id * float) list }

type Netsim.Frame.meta += Hello of G.node_id | Lsa_flood of lsa

type neighbor_state = {
  peer : G.node_id;
  mutable last_heard : Sim.Time.t;
  mutable up : bool;
}

type t = {
  world : W.t;
  node : G.node_id;
  config : config;
  lsdb : (G.node_id, lsa) Hashtbl.t;
  neighbors : (G.port, neighbor_state) Hashtbl.t;  (* router neighbors only *)
  mutable table : (G.node_id, G.port) Hashtbl.t;
  mutable seq : int;
  mutable spf_pending : bool;
  mutable started : bool;
}

let create world ~node config =
  {
    world;
    node;
    config;
    lsdb = Hashtbl.create 32;
    neighbors = Hashtbl.create 8;
    table = Hashtbl.create 32;
    seq = 0;
    spf_pending = false;
    started = false;
  }

let now t = W.now t.world

(* All adjacencies — router and host alike — are kept alive by hellos
   (hosts answer hellos but originate no LSAs). *)
let current_neighbors t =
  List.filter_map
    (fun (port, link) ->
      let peer, _ = G.peer link t.node in
      match Hashtbl.find_opt t.neighbors port with
      | Some st when st.up -> Some (peer, G.bandwidth_metric link)
      | Some _ | None -> None)
    (G.ports (W.graph t.world) t.node)

let lsa_bytes (lsa : lsa) =
  lsa_base_bytes + (lsa_per_neighbor_bytes * List.length lsa.neighbors)

let flood t ?(except = -1) lsa =
  List.iter
    (fun (port, link) ->
      let peer, _ = G.peer link t.node in
      if port <> except && G.kind (W.graph t.world) peer = G.Router then begin
        let frame =
          W.fresh_frame t.world ~priority:Token.Priority.highest
            ~meta:(Lsa_flood lsa)
            (Bytes.create (lsa_bytes lsa))
        in
        ignore (W.send t.world ~node:t.node ~port frame)
      end)
    (G.ports (W.graph t.world) t.node)

let rec schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    Sim.Engine.schedule (W.engine t.world) ~delay:spf_delay (fun () ->
        t.spf_pending <- false;
        run_spf t)
  end

and run_spf t =
  (* Dijkstra over the LSDB. Edges are taken as advertised. *)
  let dist : (G.node_id, float) Hashtbl.t = Hashtbl.create 64 in
  let first_hop : (G.node_id, G.node_id) Hashtbl.t = Hashtbl.create 64 in
  let heap = Sim.Heap.create ~dummy:(infinity, -1, -1) in
  let seq = ref 0 in
  let push cost v hop =
    Sim.Heap.push heap ~time:(int_of_float (cost *. 1e6)) ~seq:!seq (cost, v, hop);
    incr seq
  in
  Hashtbl.replace dist t.node 0.0;
  (* Seed with our own live adjacencies so the first hop is a real port. *)
  List.iter (fun (peer, cost) -> push cost peer peer) (current_neighbors t);
  let visited : (G.node_id, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace visited t.node ();
  let continue = ref true in
  while !continue do
    if Sim.Heap.is_empty heap then continue := false
    else
      let cost, v, hop = Sim.Heap.pop_value heap in
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.replace visited v ();
        Hashtbl.replace dist v cost;
        Hashtbl.replace first_hop v hop;
        match Hashtbl.find_opt t.lsdb v with
        | None -> ()
        | Some lsa ->
          List.iter
            (fun (next, edge_cost) ->
              if not (Hashtbl.mem visited next) then
                push (cost +. edge_cost) next hop)
            lsa.neighbors
      end
  done;
  (* first-hop neighbor -> port *)
  let port_of_neighbor =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (port, link) ->
        let peer, _ = G.peer link t.node in
        Hashtbl.replace tbl peer port)
      (G.ports (W.graph t.world) t.node);
    tbl
  in
  let table = Hashtbl.create 64 in
  Hashtbl.iter
    (fun dst hop ->
      match Hashtbl.find_opt port_of_neighbor hop with
      | Some port -> Hashtbl.replace table dst port
      | None -> ())
    first_hop;
  t.table <- table

let originate t =
  t.seq <- t.seq + 1;
  let lsa = { origin = t.node; seq = t.seq; neighbors = current_neighbors t } in
  Hashtbl.replace t.lsdb t.node lsa;
  flood t lsa;
  schedule_spf t

let handle_meta t ~in_port meta =
  match meta with
  | Hello peer ->
    (match Hashtbl.find_opt t.neighbors in_port with
    | Some st ->
      st.last_heard <- now t;
      if not st.up then begin
        st.up <- true;
        originate t
      end
    | None ->
      Hashtbl.replace t.neighbors in_port { peer; last_heard = now t; up = true };
      originate t);
    true
  | Lsa_flood lsa ->
    let fresher =
      match Hashtbl.find_opt t.lsdb lsa.origin with
      | Some stored -> lsa.seq > stored.seq
      | None -> true
    in
    if fresher then begin
      Hashtbl.replace t.lsdb lsa.origin lsa;
      flood t ~except:in_port lsa;
      schedule_spf t
    end;
    true
  | _ -> false

let send_hellos t =
  List.iter
    (fun (port, _link) ->
      let frame =
        W.fresh_frame t.world ~priority:Token.Priority.highest
          ~meta:(Hello t.node)
          (Bytes.create hello_bytes)
      in
      ignore (W.send t.world ~node:t.node ~port frame))
    (G.ports (W.graph t.world) t.node)

let check_liveness t =
  let deadline = t.config.hello_interval * dead_factor in
  let changed = ref false in
  Hashtbl.iter
    (fun _port st ->
      if st.up && now t - st.last_heard > deadline then begin
        st.up <- false;
        changed := true
      end)
    t.neighbors;
  if !changed then originate t

let start t =
  if not t.started then begin
    t.started <- true;
    (* Assume adjacencies up initially; hellos keep them alive. *)
    List.iter
      (fun (port, link) ->
        let peer, _ = G.peer link t.node in
        Hashtbl.replace t.neighbors port { peer; last_heard = now t; up = true })
      (G.ports (W.graph t.world) t.node);
    originate t;
    let rec tick () =
      send_hellos t;
      check_liveness t;
      Sim.Engine.schedule (W.engine t.world) ~delay:t.config.hello_interval tick
    in
    tick ()
  end

let next_hop t ~dst = Hashtbl.find_opt t.table dst
let lsdb_entries t = Hashtbl.length t.lsdb

let lsdb_bytes t =
  Hashtbl.fold (fun _ lsa acc -> acc + lsa_bytes lsa) t.lsdb 0
