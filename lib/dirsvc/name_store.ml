(* Interned hierarchical name store: a trie keyed on name components.

   Each distinct name gets a dense integer id on first interning; the hot
   paths (directory lookups, cache keys) then work on ints instead of
   [Name.to_string] allocations, and region-level enumeration ("all hosts
   under edu.stanford.*") is a subtree walk instead of a full-table scan. *)

type trie = {
  children : (string, trie) Hashtbl.t;
  mutable id : int;  (* interned id of the name ending here; -1 if none *)
}

type t = {
  root : trie;
  mutable names : Name.t array;  (* id -> full name *)
  mutable nodes : int array;  (* id -> bound graph node, -1 if unbound *)
  mutable count : int;
}

let mk_trie () = { children = Hashtbl.create 4; id = -1 }

let create () =
  { root = mk_trie (); names = [||]; nodes = [||]; count = 0 }

let size t = t.count

let ensure_capacity t =
  if t.count = Array.length t.names then begin
    let cap = max 64 (2 * t.count) in
    let names = Array.make cap [] in
    let nodes = Array.make cap (-1) in
    Array.blit t.names 0 names 0 t.count;
    Array.blit t.nodes 0 nodes 0 t.count;
    t.names <- names;
    t.nodes <- nodes
  end

let intern t (name : Name.t) =
  let rec walk trie = function
    | [] -> trie
    | c :: rest ->
      let child =
        match Hashtbl.find_opt trie.children c with
        | Some n -> n
        | None ->
          let n = mk_trie () in
          Hashtbl.add trie.children c n;
          n
      in
      walk child rest
  in
  let trie = walk t.root name in
  if trie.id >= 0 then trie.id
  else begin
    ensure_capacity t;
    let id = t.count in
    trie.id <- id;
    t.names.(id) <- name;
    t.nodes.(id) <- -1;
    t.count <- id + 1;
    id
  end

let find t (name : Name.t) =
  let rec walk trie = function
    | [] -> trie.id
    | c :: rest -> (
      match Hashtbl.find trie.children c with
      | child -> walk child rest
      | exception Not_found -> -1)
  in
  walk t.root name

let name_of_id t id =
  if id < 0 || id >= t.count then invalid_arg "Name_store.name_of_id";
  t.names.(id)

let bind t id node =
  if id < 0 || id >= t.count then invalid_arg "Name_store.bind";
  t.nodes.(id) <- node

let node_of_id t id =
  if id < 0 || id >= t.count || t.nodes.(id) < 0 then None else Some t.nodes.(id)

let iter_subtree t (prefix : Name.t) ~f =
  let rec visit trie =
    if trie.id >= 0 then f trie.id;
    Hashtbl.iter (fun _ child -> visit child) trie.children
  in
  let rec descend trie = function
    | [] -> visit trie
    | c :: rest -> (
      match Hashtbl.find_opt trie.children c with
      | Some child -> descend child rest
      | None -> ())
  in
  descend t.root prefix

let subtree t prefix =
  let acc = ref [] in
  iter_subtree t prefix ~f:(fun id -> acc := id :: !acc);
  (* trie child tables iterate in insertion-dependent order; sort for a
     deterministic, caller-friendly result *)
  List.sort
    (fun a b -> compare (t.names.(a) : Name.t) t.names.(b))
    !acc
