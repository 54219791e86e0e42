(* Tests for the wire byte-buffer layer. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let roundtrip_fixed () =
  let w = Wire.Buf.create_writer 8 in
  Wire.Buf.put_u8 w 0xAB;
  Wire.Buf.put_u16 w 0xBEEF;
  Wire.Buf.put_u32 w 0xDEADBEEFl;
  Wire.Buf.put_u64 w 0x0123456789ABCDEFL;
  let r = Wire.Buf.reader_of_bytes (Wire.Buf.contents w) in
  check_int "u8" 0xAB (Wire.Buf.get_u8 r);
  check_int "u16" 0xBEEF (Wire.Buf.get_u16 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Wire.Buf.get_u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Wire.Buf.get_u64 r);
  check_int "consumed" 0 (Wire.Buf.remaining r)

let big_endian_order () =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_u16 w 0x0102;
  let b = Wire.Buf.contents w in
  check_int "msb first" 1 (Char.code (Bytes.get b 0));
  check_int "lsb second" 2 (Char.code (Bytes.get b 1))

let u32_int_roundtrip () =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_u32_int w 0xFFFFFFFF;
  let r = Wire.Buf.reader_of_bytes (Wire.Buf.contents w) in
  check_int "max u32" 0xFFFFFFFF (Wire.Buf.get_u32_int r)

let growth () =
  let w = Wire.Buf.create_writer 1 in
  for i = 0 to 999 do
    Wire.Buf.put_u8 w (i land 0xFF)
  done;
  check_int "length" 1000 (Wire.Buf.writer_length w);
  let b = Wire.Buf.contents w in
  check_int "content" (999 land 0xFF) (Char.code (Bytes.get b 999))

let overflow_guard () =
  let w = Wire.Buf.create_writer ~max_size:8 4 in
  Wire.Buf.put_u64 w 0L;
  Alcotest.check_raises "over max" Wire.Buf.Overflow (fun () ->
      Wire.Buf.put_u8 w 1)

let underflow_guard () =
  let r = Wire.Buf.reader_of_bytes (Bytes.create 3) in
  Alcotest.check_raises "short read" Wire.Buf.Underflow (fun () ->
      ignore (Wire.Buf.get_u32 r))

let windowed_reader () =
  let b = Bytes.of_string "XXhelloYY" in
  let r = Wire.Buf.reader_of_bytes ~off:2 ~len:5 b in
  check_string "window" "hello" (Wire.Buf.get_string r 5);
  check_int "end" 0 (Wire.Buf.remaining r)

let peek_and_skip () =
  let r = Wire.Buf.reader_of_string "abc" in
  check_int "peek" (Char.code 'a') (Wire.Buf.peek_u8 r);
  check_int "peek does not advance" 0 (Wire.Buf.position r);
  Wire.Buf.skip r 2;
  check_int "after skip" (Char.code 'c') (Wire.Buf.get_u8 r)

let seek_positions () =
  let r = Wire.Buf.reader_of_string "0123456789" in
  Wire.Buf.seek r 5;
  check_int "seek fwd" (Char.code '5') (Wire.Buf.get_u8 r);
  Wire.Buf.seek r 0;
  check_int "seek back" (Char.code '0') (Wire.Buf.get_u8 r);
  Alcotest.check_raises "seek oob" Wire.Buf.Underflow (fun () ->
      Wire.Buf.seek r 11)

let reset_reuses () =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_string w "abc";
  Wire.Buf.reset w;
  check_int "reset empties" 0 (Wire.Buf.writer_length w);
  Wire.Buf.put_string w "de";
  check_string "after reset" "de" (Bytes.to_string (Wire.Buf.contents w))

let put_sub_slices () =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_sub w (Bytes.of_string "abcdef") 2 3;
  check_string "slice" "cde" (Bytes.to_string (Wire.Buf.contents w))

let put_zeros_pads () =
  let w = Wire.Buf.create_writer 4 in
  Wire.Buf.put_zeros w 3;
  check_string "zeros" "\000\000\000" (Bytes.to_string (Wire.Buf.contents w))

let take_rest_consumes () =
  let r = Wire.Buf.reader_of_string "abcdef" in
  Wire.Buf.skip r 2;
  check_string "rest" "cdef" (Bytes.to_string (Wire.Buf.take_rest r));
  check_int "nothing left" 0 (Wire.Buf.remaining r)

let reset_keeps_capacity () =
  let w = Wire.Buf.create_writer 8 in
  for i = 0 to 199 do
    Wire.Buf.put_u8 w (i land 0xFF)
  done;
  let cap = Wire.Buf.writer_capacity w in
  check_bool "grew past start" true (cap >= 200);
  Wire.Buf.reset w;
  check_int "reset empties" 0 (Wire.Buf.writer_length w);
  check_int "reset keeps storage" cap (Wire.Buf.writer_capacity w);
  for i = 0 to 199 do
    Wire.Buf.put_u8 w (i land 0xFF)
  done;
  check_int "refill without growth" cap (Wire.Buf.writer_capacity w)

let growth_doubles () =
  (* amortized-O(1) appends: capacity at least doubles on each growth, so
     filling N bytes from a 1-byte writer reallocs O(log N) times *)
  let w = Wire.Buf.create_writer 1 in
  let reallocs = ref 0 in
  let last = ref (Wire.Buf.writer_capacity w) in
  for _ = 1 to 4096 do
    Wire.Buf.put_u8 w 0;
    let c = Wire.Buf.writer_capacity w in
    if c <> !last then begin
      check_bool "at least doubles" true (c >= 2 * !last);
      last := c;
      incr reallocs
    end
  done;
  check_bool "O(log n) reallocs" true (!reallocs <= 13)

let writer_onto_window () =
  let b = Bytes.of_string "ABCDEFGHIJ" in
  let w = Wire.Buf.writer_onto b ~off:2 ~len:5 in
  Wire.Buf.put_string w "xyz";
  check_string "writes in place" "ABxyzFGHIJ" (Bytes.to_string b);
  check_int "length is absolute end" 5 (Wire.Buf.writer_length w);
  Wire.Buf.put_string w "pq";
  Alcotest.check_raises "window is fixed" Wire.Buf.Overflow (fun () ->
      Wire.Buf.put_u8 w 0);
  check_string "full window" "ABxyzpqHIJ" (Bytes.to_string b);
  Alcotest.check_raises "bad window"
    (Invalid_argument "Buf.writer_onto")
    (fun () -> ignore (Wire.Buf.writer_onto b ~off:8 ~len:5))

let pool_reuse () =
  let p = Wire.Pool.create () in
  let b1 = Wire.Pool.alloc p 64 in
  check_int "sized" 64 (Bytes.length b1);
  Wire.Pool.release p b1;
  let b2 = Wire.Pool.alloc p 64 in
  check_bool "same buffer back" true (b1 == b2);
  let s = Wire.Pool.stats p in
  check_int "one miss" 1 s.Wire.Pool.misses;
  check_int "one hit" 1 s.Wire.Pool.hits;
  check_int "one release" 1 s.Wire.Pool.releases;
  (* different size = different bucket *)
  let b3 = Wire.Pool.alloc p 65 in
  check_bool "no cross-size reuse" true (b3 != b2)

let pool_cap () =
  let p = Wire.Pool.create ~max_held:2 () in
  let bs = List.init 4 (fun _ -> Wire.Pool.alloc p 16) in
  List.iter (Wire.Pool.release p) bs;
  let s = Wire.Pool.stats p in
  check_int "held capped, rest discarded" 2 s.Wire.Pool.discarded;
  (* only the two held buffers come back as hits *)
  let _ = Wire.Pool.alloc p 16 and _ = Wire.Pool.alloc p 16 in
  let _ = Wire.Pool.alloc p 16 in
  let s = Wire.Pool.stats p in
  check_int "two hits then miss" 2 s.Wire.Pool.hits;
  check_int "misses" 5 s.Wire.Pool.misses

let hex_roundtrip () =
  check_string "encode" "01ab" (Wire.Hex.of_string "\x01\xab");
  check_string "decode"
    "\x01\xab"
    (Bytes.to_string (Wire.Hex.to_bytes "01ab"));
  check_string "upper ok" "\xff" (Bytes.to_string (Wire.Hex.to_bytes "FF"))

let hex_rejects () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.to_bytes") (fun () ->
      ignore (Wire.Hex.to_bytes "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.to_bytes") (fun () ->
      ignore (Wire.Hex.to_bytes "zz"))

let hex_dump_shape () =
  let d = Wire.Hex.dump (Bytes.of_string "abcdefghijklmnopqr") in
  let lines = String.split_on_char '\n' (String.trim d) in
  check_int "two lines for 18 bytes" 2 (List.length lines);
  check_bool "offset prefix" true
    (String.length (List.hd lines) > 5 && String.sub (List.hd lines) 0 4 = "0000")

let qcheck_bytes_roundtrip =
  QCheck.Test.make ~name:"writer/reader roundtrip any bytes" ~count:200
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s ->
      let w = Wire.Buf.create_writer 16 in
      Wire.Buf.put_string w s;
      let r = Wire.Buf.reader_of_bytes (Wire.Buf.contents w) in
      Wire.Buf.get_string r (String.length s) = s)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 128))
    (fun s ->
      Bytes.to_string (Wire.Hex.to_bytes (Wire.Hex.of_string s)) = s)

let qcheck_u16_roundtrip =
  QCheck.Test.make ~name:"u16 roundtrip" ~count:200
    QCheck.(int_range 0 0xFFFF)
    (fun v ->
      let w = Wire.Buf.create_writer 2 in
      Wire.Buf.put_u16 w v;
      Wire.Buf.get_u16 (Wire.Buf.reader_of_bytes (Wire.Buf.contents w)) = v)

let () =
  Alcotest.run "wire"
    [
      ( "buf",
        [
          Alcotest.test_case "roundtrip fixed widths" `Quick roundtrip_fixed;
          Alcotest.test_case "big-endian order" `Quick big_endian_order;
          Alcotest.test_case "u32 as int roundtrip" `Quick u32_int_roundtrip;
          Alcotest.test_case "writer grows" `Quick growth;
          Alcotest.test_case "overflow guard" `Quick overflow_guard;
          Alcotest.test_case "underflow guard" `Quick underflow_guard;
          Alcotest.test_case "windowed reader" `Quick windowed_reader;
          Alcotest.test_case "peek and skip" `Quick peek_and_skip;
          Alcotest.test_case "seek" `Quick seek_positions;
          Alcotest.test_case "reset reuses storage" `Quick reset_reuses;
          Alcotest.test_case "put_sub slices" `Quick put_sub_slices;
          Alcotest.test_case "put_zeros pads" `Quick put_zeros_pads;
          Alcotest.test_case "take_rest consumes" `Quick take_rest_consumes;
          Alcotest.test_case "reset keeps capacity" `Quick reset_keeps_capacity;
          Alcotest.test_case "growth doubles" `Quick growth_doubles;
          Alcotest.test_case "writer_onto fixed window" `Quick writer_onto_window;
        ] );
      ( "pool",
        [
          Alcotest.test_case "alloc/release reuse" `Quick pool_reuse;
          Alcotest.test_case "per-size cap" `Quick pool_cap;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick hex_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick hex_rejects;
          Alcotest.test_case "dump shape" `Quick hex_dump_shape;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest
          [ qcheck_bytes_roundtrip; qcheck_hex_roundtrip; qcheck_u16_roundtrip ] );
    ]
