type t = int

let normal = 0
let highest = 7
let lowest = 0xF
let valid p = p >= 0 && p <= 0xF
let rank p = if p land 0x8 = 0 then p + 8 else 0xF - p
let compare a b = Int.compare (rank a) (rank b)
let preemptive p = p = 6 || p = 7
