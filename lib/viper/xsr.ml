(* XOR source routing: the whole route folded into one fixed-width
   field (after Lacan & Lochin's XSR), as a constant-size alternative to
   the VIPER segment list.

   Wire layout (header_size = 22 bytes, width = 8 lanes):

     0        magic 0xD5
     1        0xE0 lor version (= 0xE1)
     2        flags:4 | priority:4        (no flag is defined: 0)
     3        hop_count  (1 .. width)
     4        hop_idx    (0 .. hop_count)
     5        check      (seeded XOR over bytes 0-4 and both lane fields)
     6..13    fwd lanes: fwd[i] = port_i lxor fmask(i)
     14..21   rev lanes: rev[i] = in_port_i lxor rmask(i)
     22..     data

   A router's whole forwarding step is: verify the check byte, read one
   lane, XOR out the mask, bump hop_idx, fold its in-port into the rev
   lane — all in place, so the buffer is forwarded without any copy and
   the header never grows or shrinks. The destination unfolds the rev
   lanes into the exact reverse port sequence, mirroring the VIPER
   trailer's return route.

   The per-lane masks keep a damaged header from reading as port 0
   everywhere and de-correlate lanes; they are fixed constants, not
   secrets. The check byte is a seeded XOR over everything except the
   data, so any single-bit flip in the XSR header — lanes included — is
   detected at the next router (XOR is linear), mirroring the trailer's
   cksum guarantee: damage becomes a counted drop, never a misroute. *)

let width = 8
let header_size = 6 + (2 * width)
let magic = 0xD5
let version_byte = 0xE1
let check_seed = 0xB3

let fmask = Array.init width (fun i -> (0x5D * (i + 11)) land 0xFF)
let rmask = Array.init width (fun i -> ((0x35 * (i + 7)) + 0x6B) land 0xFF)

let is_xsr_in b ~off ~len =
  len >= header_size
  && Char.code (Bytes.get b off) = magic
  && Char.code (Bytes.get b (off + 1)) = version_byte

let compute_check b =
  let acc = ref check_seed in
  for i = 0 to 4 do
    acc := !acc lxor Char.code (Bytes.get b i)
  done;
  for i = 6 to header_size - 1 do
    acc := !acc lxor Char.code (Bytes.get b i)
  done;
  !acc

let priority b = Char.code (Bytes.get b 2) land 0xF
let hop_count b = Char.code (Bytes.get b 3)
let hop_idx b = Char.code (Bytes.get b 4)
let data b = Bytes.sub b header_size (Bytes.length b - header_size)

(* A packet with every header byte but the first [k] forward lanes and
   the check byte laid out, and the data in place. *)
let lay_out ~priority ~k ~data =
  let n = header_size + Bytes.length data in
  let b = Bytes.create n in
  Bytes.set b 0 (Char.chr magic);
  Bytes.set b 1 (Char.chr version_byte);
  Bytes.set b 2 (Char.chr priority);
  Bytes.set b 3 (Char.chr k);
  Bytes.set b 4 '\000';
  for i = k to width - 1 do
    Bytes.set b (6 + i) (Char.chr fmask.(i))
  done;
  for i = 0 to width - 1 do
    Bytes.set b (14 + i) (Char.chr rmask.(i))
  done;
  Bytes.blit data 0 b header_size (Bytes.length data);
  b

let check_shape ~k ~priority =
  if k < 1 || k > width then invalid_arg "Xsr.encode: 1..8 ports";
  if not (Token.Priority.valid priority) then invalid_arg "Xsr.encode: priority"

let check_port p = if p < 0 || p > 255 then invalid_arg "Xsr.encode: port"
let set_lane b i p = Bytes.set b (6 + i) (Char.chr (p lxor fmask.(i)))
let seal b = Bytes.set b 5 (Char.chr (compute_check b))

let encode ?(priority = Token.Priority.normal) ~ports ~data () =
  check_shape ~k:(List.length ports) ~priority;
  List.iter check_port ports;
  let b = lay_out ~priority ~k:(List.length ports) ~data in
  List.iteri (set_lane b) ports;
  seal b;
  b

(* The router segments are every segment but the last, local one. *)
let rec check_routers = function
  | [] | [ _ ] -> ()
  | seg :: rest ->
    check_port seg.Segment.port;
    check_routers rest

let rec set_lanes b i = function
  | [] | [ _ ] -> ()
  | seg :: rest ->
    set_lane b i seg.Segment.port;
    set_lanes b (i + 1) rest

let encode_segments ~priority ~segments ~data =
  let k = List.length segments - 1 in
  check_shape ~k ~priority;
  check_routers segments;
  let b = lay_out ~priority ~k ~data in
  set_lanes b 0 segments;
  seal b;
  b

type step = Forward of int | Deliver | Malformed of string

(* The constant-time per-hop operation, mutating [b] in place: the
   caller forwards the same buffer (zero copy). Verify-before-mutate:
   a damaged header is reported untouched so the caller can count and
   drop it. *)
let step b ~in_port =
  if Bytes.length b < header_size then Malformed "Xsr: short header"
  else if Char.code (Bytes.get b 0) <> magic || Char.code (Bytes.get b 1) <> version_byte
  then Malformed "Xsr: bad magic"
  else if Char.code (Bytes.get b 5) <> compute_check b then Malformed "Xsr: check byte"
  else begin
    let count = hop_count b in
    let idx = hop_idx b in
    if count < 1 || count > width then Malformed "Xsr: hop count"
    else if idx > count then Malformed "Xsr: hop index"
    else if in_port < 0 || in_port > 255 then Malformed "Xsr: in-port"
    else if idx = count then Deliver
    else begin
      let port = Char.code (Bytes.get b (6 + idx)) lxor fmask.(idx) in
      let old_rev = Char.code (Bytes.get b (14 + idx)) in
      let new_rev = in_port lxor rmask.(idx) in
      Bytes.set b 4 (Char.chr (idx + 1));
      Bytes.set b (14 + idx) (Char.chr new_rev);
      let check = Char.code (Bytes.get b 5) in
      Bytes.set b 5
        (Char.chr (check lxor idx lxor (idx + 1) lxor old_rev lxor new_rev));
      Forward port
    end
  end

(* Out-port the NEXT router will extract — the congestion-control queue
   key, visible without per-flow state exactly as VIPER's next_port. *)
let next_port b =
  let idx = hop_idx b in
  if idx < hop_count b then Char.code (Bytes.get b (6 + idx)) lxor fmask.(idx) else -1

let reverse_port b j = Char.code (Bytes.get b (14 + j)) lxor rmask.(j)

(* In-ports folded so far, most recent hop first — exactly the port
   sequence a reply must ride (the VIPER return route, reversed). *)
let reverse_ports b =
  let idx = hop_idx b in
  let rec go j acc = if j >= idx then acc else go (j + 1) (reverse_port b j :: acc) in
  go 0 []
