let hex_digit n = "0123456789abcdef".[n]

let of_bytes b =
  let n = Bytes.length b in
  String.init (2 * n) (fun i ->
      let v = Char.code (Bytes.get b (i / 2)) in
      if i mod 2 = 0 then hex_digit (v lsr 4) else hex_digit (v land 0xf))

let of_string s = of_bytes (Bytes.of_string s)

let value_of_char c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.to_bytes"

let to_bytes s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.to_bytes";
  Bytes.init (n / 2) (fun i ->
      Char.chr ((value_of_char s.[2 * i] lsl 4) lor value_of_char s.[(2 * i) + 1]))

let dump b =
  let buf = Buffer.create 256 in
  let n = Bytes.length b in
  let rec line off =
    if off < n then begin
      Buffer.add_string buf (Printf.sprintf "%04x  " off);
      let stop = min n (off + 16) in
      for i = off to stop - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%02x " (Char.code (Bytes.get b i)))
      done;
      Buffer.add_char buf '\n';
      line (off + 16)
    end
  in
  line 0;
  Buffer.contents buf
