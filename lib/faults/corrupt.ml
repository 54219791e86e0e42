module Pkt = Viper.Packet
module Tr = Viper.Trailer

type region = Header | Payload | Trailer | Any

type spec = { ber : float; region : region }

(* [(offset, length)] of the region within the frame, or [None] when the
   frame has none *)
let region_span bytes region =
  let len = Bytes.length bytes in
  match region with
  | Any -> if len = 0 then None else Some (0, len)
  | Header | Payload | Trailer -> (
    match Pkt.parse bytes with
    | Error _ -> None
    | Ok t -> (
      let header = Pkt.total_header_overhead ~route:(Pkt.route t) in
      let trailer = Tr.size_in bytes ~off:0 ~len in
      match region with
      | Header -> if header > 0 then Some (0, header) else None
      | Trailer -> if trailer > 0 then Some (len - trailer, trailer) else None
      | Payload ->
        let plen = len - header - trailer in
        if plen > 0 then Some (header, plen) else None
      | Any -> assert false))

let flip_bit buf bit =
  let byte = bit / 8 and off = bit mod 8 in
  Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl off)))

let corrupt rng spec bytes =
  if spec.ber <= 0.0 then None
  else
    match region_span bytes spec.region with
    | None -> None
    | Some (off, len) -> (
      let nbits = len * 8 in
      let flips = ref [] in
      if spec.ber >= 1.0 then
        for bit = 0 to nbits - 1 do
          flips := bit :: !flips
        done
      else begin
        (* Geometric inter-arrival sampling: the gap to the next flipped
           bit is floor(ln u / ln (1 - ber)), so cost scales with the
           number of flips rather than the frame size. *)
        let log1m = log (1.0 -. spec.ber) in
        let gap () =
          let u = Sim.Rng.float rng 1.0 in
          let u = if u <= 0.0 then min_float else u in
          int_of_float (log u /. log1m)
        in
        let pos = ref (gap ()) in
        while !pos < nbits do
          flips := !pos :: !flips;
          pos := !pos + 1 + gap ()
        done
      end;
      match !flips with
      | [] -> None
      | bits ->
        let buf = Bytes.copy bytes in
        List.iter (fun b -> flip_bit buf ((off * 8) + b)) bits;
        Some (buf, List.length bits))
