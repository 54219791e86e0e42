(* Every property runs on a fixed sample. Its random state is seeded
   from its own name, so a run draws exactly the cases the last run drew,
   a failure comes back until it is fixed, and adding or renaming one
   property does not reshuffle the others. *)

let to_alcotest (QCheck2.Test.Test cell as test) =
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Hashtbl.hash name |]) test
