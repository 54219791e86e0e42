type t = int64 (* low 48 bits *)

let mask = 0xFFFF_FFFF_FFFFL
let of_int64 v = Int64.logand v mask
let to_int64 t = t

let octet t i =
  Int64.to_int (Int64.logand (Int64.shift_right_logical t (8 * (5 - i))) 0xFFL)

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (octet t 0) (octet t 1)
    (octet t 2) (octet t 3) (octet t 4) (octet t 5)

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let parse x =
      if String.length x <> 2 then invalid_arg "Addr.of_string";
      match int_of_string_opt ("0x" ^ x) with
      | Some v -> v
      | None -> invalid_arg "Addr.of_string"
    in
    List.fold_left
      (fun acc x -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int (parse x)))
      0L [ a; b; c; d; e; f ]
  | _ -> invalid_arg "Addr.of_string"

let broadcast = mask
let is_broadcast t = t = mask
let is_multicast t = Int64.logand (Int64.shift_right_logical t 40) 1L = 1L
let equal = Int64.equal

let write w t =
  Wire.Buf.put_u16 w (Int64.to_int (Int64.shift_right_logical t 32));
  Wire.Buf.put_u32 w (Int64.to_int32 t)

let read r =
  let hi = Wire.Buf.get_u16 r in
  let lo = Wire.Buf.get_u32 r in
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.logand (Int64.of_int32 lo) 0xFFFF_FFFFL)

let of_host_id n =
  (* 02:xx:... is locally administered, unicast. *)
  of_int64 (Int64.logor 0x0200_0000_0000L (Int64.of_int (n land 0xFFFF_FFFF)))
