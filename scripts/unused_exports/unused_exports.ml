(* Module-qualified unused-export scan.

     unused_exports.exe EXPORTS CALLERS...

   An export is a [val] in an .mli under the source directory EXPORTS,
   including those of nested [module M : sig ... end] signatures. A caller
   is an identifier, in a compiled implementation (.cmt) under one of the
   build directories CALLERS, that the type checker resolved to that very
   [val]. The compiler has already followed library paths, [open]s and
   [module X = ...] aliases, so a reference counts only when it reaches the
   export through its module path: a namesake in another module, a record
   field or a comment never does. References inside the declaring module
   resolve to its .ml and do not count either.

   Run from the workspace root after a build; prints one line per export
   with no caller and exits 0. A .cmt whose source file is gone is stale
   and is skipped. *)

let rec files dir suffix acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files path suffix acc
      else if Filename.check_suffix path suffix then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* Every [val] of [mli], as (offset of the item, dotted name). The offset
   is where the compiler's [val_loc] for the declaration starts. *)
let exports mli =
  let ic = open_in_bin mli in
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf mli;
  let signature = Parse.interface lexbuf in
  close_in ic;
  let rec walk prefix acc items =
    List.fold_left
      (fun acc (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
            (item.psig_loc.loc_start.pos_cnum, prefix ^ vd.pval_name.txt) :: acc
        | Psig_module
            {
              pmd_name = { txt = Some m; _ };
              pmd_type = { pmty_desc = Pmty_signature items; _ };
              _;
            } ->
            walk (prefix ^ m ^ ".") acc items
        | _ -> acc)
      acc items
  in
  List.rev (walk "" [] signature)

(* (file, offset) of the declaration of every value some caller names. *)
let called dirs =
  let seen = Hashtbl.create 4096 in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) ->
        let p = vd.val_loc.loc_start in
        Hashtbl.replace seen (p.pos_fname, p.pos_cnum) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun dir ->
      List.iter
        (fun cmt ->
          let info = Cmt_format.read_cmt cmt in
          match (info.cmt_sourcefile, info.cmt_annots) with
          | Some src, Implementation str when Sys.file_exists src ->
              it.structure it str
          | _ -> ())
        (files dir ".cmt" []))
    dirs;
  seen

let () =
  match Array.to_list Sys.argv with
  | _ :: export_dir :: (_ :: _ as caller_dirs) ->
      let seen = called caller_dirs in
      List.iter
        (fun mli ->
          List.iter
            (fun (offset, name) ->
              if not (Hashtbl.mem seen (mli, offset)) then
                Printf.printf "%s: %s has no caller outside its module\n" mli
                  name)
            (exports mli))
        (List.sort compare (files export_dir ".mli" []))
  | _ ->
      prerr_endline "usage: unused_exports.exe EXPORTS CALLERS...";
      exit 2
