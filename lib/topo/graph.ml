type node_id = int
type port = int
type node_kind = Host | Router

type link_props = {
  bandwidth_bps : int;
  propagation : Sim.Time.t;
  mtu : int;
}

type link = {
  link_id : int;
  a : node_id;
  a_port : port;
  b : node_id;
  b_port : port;
  props : link_props;
}

(* A node's attached links, indexed by port: [no_link] marks a free
   port. Every lookup reads this array. [order] holds the same links in
   a hash table whose iteration order is the order Dijkstra relaxes
   them in — simulated results depend on it — built as the links were
   attached, in port order. A node with one port has no order to keep:
   its table is [no_order] until a second port is attached, which saves
   the table on every one-port host. *)
type node = {
  kind : node_kind;
  name : string;
  mutable links : link array;
  mutable order : (port, link) Hashtbl.t;
  mutable next_port : port;
}

let no_link =
  let props = { bandwidth_bps = 0; propagation = 0; mtu = 0 } in
  { link_id = -1; a = -1; a_port = -1; b = -1; b_port = -1; props }

(* shared by every node without a table; never written *)
let no_order : (port, link) Hashtbl.t = Hashtbl.create 1

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable next_link : int;
  mutable all_links : link list;
  by_name : (string, node_id) Hashtbl.t;
  mutable version : int;
      (* bumped on every link attach/detach so route caches (e.g. the
         directory's memoized shortest-path trees) can validate in O(1) *)
}

let create () =
  {
    nodes = [||];
    n = 0;
    next_link = 0;
    all_links = [];
    by_name = Hashtbl.create 64;
    version = 0;
  }

let version g = g.version

let max_ports = 255

let add_node g ?name kind =
  let id = g.n in
  let name =
    match name with
    | Some s -> s
    | None -> (match kind with Host -> "h" | Router -> "r") ^ string_of_int id
  in
  let node =
    {
      kind;
      name;
      (* room for port 1, as a literal: most nodes are one-port hosts,
         and [Array.make] is a C call a large build pays per node *)
      links = [| no_link; no_link |];
      order = no_order;
      next_port = 1;
    }
  in
  if g.n = Array.length g.nodes then begin
    let cap = max 16 (2 * g.n) in
    let fresh = Array.make cap node in
    Array.blit g.nodes 0 fresh 0 g.n;
    g.nodes <- fresh
  end;
  g.nodes.(g.n) <- node;
  g.n <- g.n + 1;
  Hashtbl.replace g.by_name name id;
  id

let node_count g = g.n

let get g id =
  if id < 0 || id >= g.n then invalid_arg "Graph: bad node id";
  g.nodes.(id)

let kind g id = (get g id).kind
let name g id = (get g id).name
let find_by_name g s = Hashtbl.find_opt g.by_name s

let alloc_port node =
  if node.next_port > max_ports then failwith "Graph.connect: node has 255 ports";
  let p = node.next_port in
  node.next_port <- p + 1;
  p

let set_link node p link =
  let n = Array.length node.links in
  if p >= n then begin
    let fresh = Array.make (max (p + 1) (2 * n)) no_link in
    Array.blit node.links 0 fresh 0 n;
    node.links <- fresh
  end;
  node.links.(p) <- link

(* [node]'s order table rebuilt from its link array in port order, as
   a fresh table: the table of a node that attached those links one by
   one (ports are allocated in attach order) and never lost one. *)
let rebuild_order node =
  node.order <- Hashtbl.create 4;
  Array.iteri (fun p l -> if l != no_link then Hashtbl.replace node.order p l) node.links

let attach node p link =
  set_link node p link;
  if node.order != no_order then Hashtbl.replace node.order p link
  else if p > 1 then rebuild_order node

let connect g a b props =
  let na = get g a and nb = get g b in
  let pa = alloc_port na and pb = alloc_port nb in
  let link = { link_id = g.next_link; a; a_port = pa; b; b_port = pb; props } in
  g.next_link <- g.next_link + 1;
  attach na pa link;
  attach nb pb link;
  g.all_links <- link :: g.all_links;
  g.version <- g.version + 1;
  (pa, pb)

let attached node p =
  if p >= 0 && p < Array.length node.links then node.links.(p) else no_link

let link_at g id p =
  let l = attached (get g id) p in
  if l == no_link then raise Not_found else l

let link_via g id p =
  let l = attached (get g id) p in
  if l == no_link then None else Some l

let link_alive g link = (attached (get g link.a) link.a_port).link_id = link.link_id

let detach node p =
  set_link node p no_link;
  if node.order != no_order then Hashtbl.remove node.order p

let disconnect g link =
  detach (get g link.a) link.a_port;
  detach (get g link.b) link.b_port;
  g.all_links <- List.filter (fun l -> l.link_id <> link.link_id) g.all_links;
  g.version <- g.version + 1

(* Re-attach a previously disconnected link on its original ports, and
   back at its link-id position in [all_links] (newest first), so a
   repaired graph is indistinguishable from one never cut: both ends'
   order tables are rebuilt, so Dijkstra's tie order survives the
   repair. A link that was never disconnected (or whose ports were since
   reused) is left alone rather than clobbering another link. *)
let reconnect g link =
  let na = get g link.a and nb = get g link.b in
  if attached na link.a_port == no_link && attached nb link.b_port == no_link then begin
    set_link na link.a_port link;
    set_link nb link.b_port link;
    if na.order != no_order then rebuild_order na;
    if nb.order != no_order then rebuild_order nb;
    let rec insert = function
      | l :: rest when l.link_id > link.link_id -> l :: insert rest
      | l :: _ as all when l.link_id = link.link_id -> all
      | all -> link :: all
    in
    g.all_links <- insert g.all_links;
    g.version <- g.version + 1
  end

let peer link n =
  if n = link.a then (link.b, link.b_port)
  else if n = link.b then (link.a, link.a_port)
  else invalid_arg "Graph.peer"

let ports g id =
  let links = (get g id).links in
  let acc = ref [] in
  for p = Array.length links - 1 downto 0 do
    if links.(p) != no_link then acc := (p, links.(p)) :: !acc
  done;
  !acc

let degree g id =
  Array.fold_left (fun n l -> if l == no_link then n else n + 1) 0 (get g id).links

let links g = List.rev g.all_links
let iter_nodes g f = for id = 0 to g.n - 1 do f id done

type hop = { at : node_id; out : port }

let route_nodes g ~src hops =
  let rec walk node = function
    | [] -> [ node ]
    | { at; out } :: rest ->
      if at <> node then failwith "Graph.route_nodes: route does not chain";
      (match link_via g at out with
      | None -> failwith "Graph.route_nodes: hop over missing link"
      | Some l ->
        let next, _ = peer l at in
        node :: walk next rest)
  in
  walk src hops

(* Dijkstra's frontier: a heap of node ids keyed on
   [(int_of_float (cost *. 1e6), push seq)], with each entry's exact
   float cost in [costs] at its push seq for the staleness test. Each
   domain keeps one and every search reuses its arrays, so a search over
   a large graph leaves no heap arrays behind as garbage; a search that
   finds it taken (a [metric] that itself searches) runs on a fresh
   one. *)
type frontier = { heap : int Sim.Heap.t; mutable costs : float array }

let new_frontier () = { heap = Sim.Heap.create ~dummy:(-1); costs = Array.make 64 0.0 }
let frontier = Domain.DLS.new_key (fun () -> ref (Some (new_frontier ())))

let with_frontier f =
  let slot = Domain.DLS.get frontier in
  match !slot with
  | None -> f (new_frontier ())
  | Some fr ->
    slot := None;
    Fun.protect
      ~finally:(fun () ->
        Sim.Heap.clear fr.heap;
        slot := Some fr)
      (fun () -> f fr)

(* A search's result: [prev.(v)] is [u lsl 8 lor port] for the hop
   [{at = u; out = port}] that reaches [v] ([port <= max_ports]), or -1
   for the source and every unreached node. *)
type spt = { spt_src : node_id; spt_prev : int array; spt_dist : float array }

(* The one Dijkstra behind every search. With [dst >= 0] it stops once
   [dst] is settled; with [dst = -1] it builds the whole tree. A node
   with no order table has at most one link, so it is reached only from
   its one neighbour, at that neighbour's settling: its [prev] is final
   at that one relaxation and popping it later would relax nothing. Such
   a node is settled as it is relaxed and never enters the heap, which
   leaves every other entry's [(key, seq)] order unchanged — results are
   those of the plain algorithm, ties included. *)
let search g ~metric ~src ~dst ~banned_links ~banned_nodes =
  with_frontier @@ fun fr ->
  let n = g.n in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let visited = Bytes.make n '\000' in
  let seq = ref 0 and finished = ref false and u = ref src in
  let push cost v =
    let s = !seq in
    if s = Array.length fr.costs then begin
      let costs = Array.make (2 * s) 0.0 in
      Array.blit fr.costs 0 costs 0 s;
      fr.costs <- costs
    end;
    fr.costs.(s) <- cost;
    Sim.Heap.push fr.heap ~time:(int_of_float (cost *. 1e6)) ~seq:s v;
    seq := s + 1
  in
  (* relax [!u]'s link [l] on port [p] *)
  let relax p l =
    if not (List.mem l.link_id banned_links) then begin
      let u = !u in
      let v = if l.a = u then l.b else l.a in
      if (not (List.mem v banned_nodes)) && Bytes.get visited v = '\000' then begin
        let w = metric l in
        if w <= 0.0 then invalid_arg "Graph: metric must be positive";
        let alt = dist.(u) +. w in
        if alt < dist.(v) then begin
          dist.(v) <- alt;
          prev.(v) <- (u lsl 8) lor p;
          if g.nodes.(v).order == no_order then begin
            Bytes.set visited v '\001';
            if v = dst then finished := true
          end
          else push alt v
        end
      end
    end
  in
  dist.(src) <- 0.0;
  push 0.0 src;
  while not !finished do
    if Sim.Heap.is_empty fr.heap then finished := true
    else begin
      let cost = fr.costs.(Sim.Heap.min_seq fr.heap) in
      let v = Sim.Heap.pop_value fr.heap in
      if Bytes.get visited v = '\000' && cost <= dist.(v) then begin
        Bytes.set visited v '\001';
        if v = dst then finished := true
        else begin
          u := v;
          (* relaxation order: the order table, else the link array *)
          let node = g.nodes.(v) in
          if node.order != no_order then Hashtbl.iter relax node.order
          else
            let links = node.links in
            for p = 0 to Array.length links - 1 do
              if links.(p) != no_link then relax p links.(p)
            done
        end
      end
    end
  done;
  { spt_src = src; spt_prev = prev; spt_dist = dist }

let spt_src spt = spt.spt_src

let spt_path spt ~dst =
  if dst = spt.spt_src then Some []
  else if dst < 0 || dst >= Array.length spt.spt_dist then None
  else if spt.spt_dist.(dst) = infinity then None
  else begin
    let rec build v acc =
      let e = spt.spt_prev.(v) in
      if e < 0 then acc else build (e lsr 8) ({ at = e lsr 8; out = e land 0xff } :: acc)
    in
    Some (build dst [])
  end

let spt_dist spt ~dst =
  if dst = spt.spt_src then 0.0
  else if dst < 0 || dst >= Array.length spt.spt_dist then infinity
  else spt.spt_dist.(dst)

let shortest_path_excluding g ~metric ~src ~dst ~banned_links ~banned_nodes =
  spt_path (search g ~metric ~src ~dst ~banned_links ~banned_nodes) ~dst

let shortest_path g ~metric ~src ~dst =
  if src = dst then Some []
  else shortest_path_excluding g ~metric ~src ~dst ~banned_links:[] ~banned_nodes:[]

let shortest_path_tree g ~metric ~src =
  search g ~metric ~src ~dst:(-1) ~banned_links:[] ~banned_nodes:[]

let path_cost g ~metric hops =
  List.fold_left
    (fun acc { at; out } ->
      match link_via g at out with
      | None -> infinity
      | Some l -> acc +. metric l)
    0.0 hops

(* Yen's k-shortest loop-free paths. *)
let k_shortest_paths g ~metric ~src ~dst ~k =
  if k <= 0 then []
  else
    match shortest_path g ~metric ~src ~dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates = ref [] in
      let path_eq p q =
        List.length p = List.length q
        && List.for_all2 (fun h1 h2 -> h1.at = h2.at && h1.out = h2.out) p q
      in
      let rec take_prefix n l =
        if n = 0 then []
        else match l with [] -> [] | x :: rest -> x :: take_prefix (n - 1) rest
      in
      let round () =
        let last = List.hd !accepted in
        List.iteri
          (fun i spur_hop ->
            let root = take_prefix i last in
            let spur_node = spur_hop.at in
            (* Ban links used by accepted paths sharing this root, and the
               nodes of the root (except the spur node) to keep loop-free. *)
            let banned_links =
              List.filter_map
                (fun p ->
                  if path_eq (take_prefix i p) root then
                    match List.nth_opt p i with
                    | Some h -> (
                      match link_via g h.at h.out with
                      | Some l -> Some l.link_id
                      | None -> None)
                    | None -> None
                  else None)
                (!accepted @ List.map snd !candidates)
            in
            let banned_nodes =
              List.filter (fun n -> n <> spur_node) (route_nodes g ~src root)
            in
            match
              shortest_path_excluding g ~metric ~src:spur_node ~dst ~banned_links
                ~banned_nodes
            with
            | None -> ()
            | Some spur ->
              let candidate = root @ spur in
              let cost = path_cost g ~metric candidate in
              let dominated =
                List.exists (fun (_, p) -> path_eq p candidate) !candidates
                || List.exists (fun p -> path_eq p candidate) !accepted
              in
              if not dominated then candidates := (cost, candidate) :: !candidates)
          last
      in
      let continue = ref true in
      while List.length !accepted < k && !continue do
        round ();
        match List.sort (fun (c1, _) (c2, _) -> compare c1 c2) !candidates with
        | [] -> continue := false
        | (_, best) :: rest ->
          accepted := best :: !accepted;
          candidates := rest
      done;
      List.rev !accepted

(* Builders *)

let default_props =
  { bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }

let line ?(props = default_props) n =
  if n <= 0 then invalid_arg "Graph.line";
  let g = create () in
  let ids = Array.init n (fun _ -> add_node g Router) in
  for i = 0 to n - 2 do
    ignore (connect g ids.(i) ids.(i + 1) props)
  done;
  (g, ids)

let star ?(props = default_props) n =
  let g = create () in
  let hub = add_node g Router in
  let leaves =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g hub h props);
        h)
  in
  (g, hub, leaves)

let dumbbell ?(access = default_props)
    ?(trunk = { default_props with bandwidth_bps = 1_500_000 }) n =
  let g = create () in
  let r1 = add_node g Router and r2 = add_node g Router in
  ignore (connect g r1 r2 trunk);
  let left =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g h r1 access);
        h)
  in
  let right =
    Array.init n (fun _ ->
        let h = add_node g Host in
        ignore (connect g h r2 access);
        h)
  in
  (g, left, right)

let hierarchical_switch ?(props = default_props) g ~leaves =
  if leaves <= 0 then invalid_arg "Graph.hierarchical_switch";
  (* Reserve a few root ports for the switch's own uplinks. *)
  let fan_limit = 250 in
  let root = add_node g Router in
  let rec grow parents remaining =
    (* [parents] are routers with free ports; attach up to fan_limit
       children to each until [remaining] leaves exist. *)
    if remaining <= 0 then []
    else begin
      let stages = List.length parents * fan_limit in
      if remaining <= stages then begin
        (* final stage: children are the leaves *)
        let rec attach parents made =
          if made >= remaining then []
          else
            match parents with
            | [] -> []
            | parent :: rest ->
              let take = min fan_limit (remaining - made) in
              let children =
                List.init take (fun _ ->
                    let c = add_node g Router in
                    ignore (connect g parent c props);
                    c)
              in
              children @ attach rest (made + take)
        in
        attach parents 0
      end
      else begin
        (* intermediate stage: fill every parent, recurse *)
        let next =
          List.concat_map
            (fun parent ->
              List.init fan_limit (fun _ ->
                  let c = add_node g Router in
                  ignore (connect g parent c props);
                  c))
            parents
        in
        grow next remaining
      end
    end
  in
  let leaf_list = grow [ root ] leaves in
  (root, Array.of_list leaf_list)

let hierarchical_internet ~rng ?(branching = 8) ?(depth = 3) ~hosts () =
  if branching < 2 || branching > 250 then
    invalid_arg "Graph.hierarchical_internet: branching must be in [2, 250]";
  if depth < 1 then invalid_arg "Graph.hierarchical_internet: depth must be >= 1";
  if hosts < 1 then invalid_arg "Graph.hierarchical_internet: hosts must be >= 1";
  let leaves = int_of_float (float_of_int branching ** float_of_int depth) in
  let per_leaf = ((hosts - 1) / leaves) + 1 in
  if per_leaf > 250 then
    invalid_arg
      "Graph.hierarchical_internet: too many hosts per leaf region (VIPER's \
       255-port limit); increase branching or depth";
  let g = create () in
  let trunk level =
    (* faster, longer links toward the top of the hierarchy *)
    {
      bandwidth_bps = (if level = 0 then 100_000_000 else 45_000_000);
      propagation = Sim.Time.us (50 + (100 * (depth - level)) + Sim.Rng.int rng 450);
      mtu = 1500;
    }
  in
  let local = { default_props with propagation = Sim.Time.us 5 } in
  let root = add_node g ~name:"top" Router in
  (* depth levels of [branching]-ary region routers below the root; node
     names spell the region path, so a registered name's components mirror
     the topology exactly as §3 prescribes. *)
  let rec grow parent pname level acc =
    if level = depth then (parent, pname) :: acc
    else begin
      let acc = ref acc in
      for i = branching - 1 downto 0 do
        let cname = Printf.sprintf "%s.r%d" pname i in
        let child = add_node g ~name:cname Router in
        ignore (connect g parent child (trunk level));
        acc := grow child cname (level + 1) !acc
      done;
      !acc
    end
  in
  let leaf_regions = Array.of_list (grow root "top" 0 []) in
  let host_ids =
    Array.init hosts (fun i ->
        let leaf, lname = leaf_regions.(i mod Array.length leaf_regions) in
        let h = add_node g ~name:(Printf.sprintf "%s.h%d" lname i) Host in
        ignore (connect g leaf h local);
        h)
  in
  (g, Array.map fst leaf_regions, host_ids)

let campus_internet ~rng ~campuses ~hosts_per_campus =
  if campuses < 2 then invalid_arg "Graph.campus_internet";
  let g = create () in
  let routers =
    Array.init campuses (fun i ->
        add_node g ~name:(Printf.sprintf "campus%d" i) Router)
  in
  let trunk_props () =
    {
      bandwidth_bps = 45_000_000;
      propagation = Sim.Time.us (500 + Sim.Rng.int rng 4500);
      mtu = 1500;
    }
  in
  for i = 0 to campuses - 1 do
    ignore (connect g routers.(i) routers.((i + 1) mod campuses) (trunk_props ()))
  done;
  (* A couple of chords for path diversity on larger rings. *)
  if campuses >= 6 then begin
    ignore (connect g routers.(0) routers.(campuses / 2) (trunk_props ()));
    ignore (connect g routers.(1) routers.((campuses / 2) + 1) (trunk_props ()))
  end;
  let local = { default_props with propagation = Sim.Time.us 5 } in
  let hosts =
    Array.init
      (campuses * hosts_per_campus)
      (fun i ->
        let c = i mod campuses in
        let h = add_node g ~name:(Printf.sprintf "host%d.campus%d" i c) Host in
        ignore (connect g routers.(c) h local);
        h)
  in
  (g, routers, hosts)
