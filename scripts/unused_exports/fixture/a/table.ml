type t = int ref

let create () = ref 0
let clear t = t := 0

module Sub = struct
  let current t = !t
end
