(* Metrics, self-checks and the two output formats: one [name value unit]
   line per metric, then a final one-line JSON summary; optionally a
   detail file with every pass and its spread. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A self-check that fails ends the run: the numbers of a run whose
   outputs are wrong mean nothing. *)
exception Self_check of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Self_check msg)) fmt

(* Operations the run attempted and those that failed, over every pass
   (warm-up included): packets injected, VMTP calls started or directory
   queries asked. *)
let attempted = ref 0
let failed = ref 0

let tally ~attempted:a ~failed:f =
  attempted := !attempted + a;
  failed := !failed + f

(* {1 JSON} *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

(* All 17 significant digits: a value is printed as measured. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write_json b = function
  | Num v -> Buffer.add_string b (if Float.is_finite v then num v else "null")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> write_string b s
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        write_json b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write_string b k;
        Buffer.add_string b ": ";
        write_json b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write_json b j;
  Buffer.contents b

let metrics_json ms =
  Obj (List.map (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])) ms)

let summary ~correct ms =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int (max 1 !attempted));
      ("failed", Int !failed);
      ("metrics", metrics_json ms);
    ]

(* Print every metric, then the summary as the last line of stdout. A
   non-finite value is a defect in the ledger, not a measurement. *)
let emit ms =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then fail "metric %s is not finite" m.name)
    ms;
  List.iter (fun m -> Printf.printf "%s %s %s\n" m.name (num m.value) m.unit_) ms;
  print_endline (to_string (summary ~correct:true ms))

let emit_failure msg =
  Printf.printf "self-check failed: %s\n" msg;
  print_endline (to_string (summary ~correct:false []))

(* {1 Pass spreads for the detail file} *)

let spread values =
  let q1, q3 = Stats.quartiles values in
  let med = Stats.median values in
  Obj
    [
      ("median", Num med);
      ("min", Num (List.fold_left Float.min infinity values));
      ("max", Num (List.fold_left Float.max neg_infinity values));
      ("q1", Num q1);
      ("q3", Num q3);
      ("iqr_over_median", Num (Stats.ratio (q3 -. q1) med));
      ("values", Arr (List.map (fun v -> Num v) values));
    ]
