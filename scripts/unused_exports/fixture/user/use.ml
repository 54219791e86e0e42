module T = Fixture_a.Table

let a () =
  let t = T.create () in
  T.clear t;
  Fixture_a.Table.Sub.current t

open Fixture_b

let b () =
  let t = Other.fresh () in
  t.clear <- true;
  t.clear
