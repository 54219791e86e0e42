type t = { mutable clear : bool }

let create () = { clear = false }
let clear t = t.clear <- true
