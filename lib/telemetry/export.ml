module R = Registry

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf
end

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let row_json (r : R.row) =
  let base = [ ("name", Json.String r.R.row_name) ] in
  let base =
    if r.R.row_labels = [] then base
    else base @ [ ("labels", labels_json r.R.row_labels) ]
  in
  let value =
    match r.R.row_sample with
    | R.Counter_sample v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
    | R.Gauge_sample v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
    | R.Hist_sample h ->
      [
        ("type", Json.String "histogram");
        ("count", Json.Int h.R.h_count);
        ("sum", Json.Int h.R.h_sum);
        ("min", Json.Int h.R.h_min);
        ("max", Json.Int h.R.h_max);
        ("mean", Json.Float h.R.h_mean);
        ("p50", Json.Int h.R.h_p50);
        ("p90", Json.Int h.R.h_p90);
        ("p99", Json.Int h.R.h_p99);
      ]
  in
  Json.Obj (base @ value)

let event_json (time, e) =
  let open Json in
  let fields =
    match e with
    | Events.Router_crashed { node; frames_lost } ->
      [ ("node", Int node); ("frames_lost", Int frames_lost) ]
    | Events.Router_restarted { node } -> [ ("node", Int node) ]
    | Events.Link_failed { link_id } | Events.Link_restored { link_id } ->
      [ ("link_id", Int link_id) ]
    | Events.Backpressure_on { node; in_port; congested_port; rate_bps } ->
      [
        ("node", Int node);
        ("in_port", Int in_port);
        ("congested_port", Int congested_port);
        ("rate_bps", Float rate_bps);
      ]
    | Events.Backpressure_off { node; in_port; congested_port }
    | Events.Backpressure_flap { node; in_port; congested_port } ->
      [ ("node", Int node); ("in_port", Int in_port); ("congested_port", Int congested_port) ]
    | Events.Route_failover { entity; route_index } ->
      [ ("entity", String (Int64.to_string entity)); ("route_index", Int route_index) ]
    | Events.Inheader_failover { node; port } ->
      [ ("node", Int node); ("port", Int port) ]
    | Events.Branch_arrival { entity } ->
      [ ("entity", String (Int64.to_string entity)) ]
    | Events.Directory_frozen { frozen } -> [ ("frozen", Bool frozen) ]
  in
  Obj ((("time", Int time) :: ("event", String (Events.kind_name e)) :: fields))

let span_json (s : Flight.span) =
  let open Json in
  let base =
    [
      ("node", Int s.Flight.node);
      ("in_port", Int s.Flight.in_port);
      ("out_port", Int s.Flight.out_port);
      ("arrival", Int s.Flight.arrival);
      ("departure", Int s.Flight.departure);
      ("queue_wait", Int s.Flight.queue_wait);
      ("handling", String (Flight.handling_name s.Flight.handling));
      ("token", String (Flight.token_name s.Flight.token));
    ]
  in
  match s.Flight.drop with
  | None -> Obj base
  | Some fate -> Obj (base @ [ ("drop", String (Flight.fate_name fate)) ])

let flight_json (f : Flight.flight) =
  let open Json in
  Obj
    [
      ("packet_id", Int f.Flight.packet_id);
      ("injected_at", Int f.Flight.injected_at);
      ("completed_at", Int f.Flight.completed_at);
      ( "dropped",
        match f.Flight.dropped with
        | None -> Null
        | Some fate -> String (Flight.fate_name fate) );
      ("spans", List (List.map span_json f.Flight.spans));
    ]

let json_value ?events ?flights registry =
  let metrics = List.map row_json (R.snapshot registry) in
  let base = [ ("metrics", Json.List metrics) ] in
  let base =
    match events with
    | None -> base
    | Some ev ->
      base @ [ ("events", Json.List (List.map event_json (Events.entries ev))) ]
  in
  let base =
    match flights with
    | None -> base
    | Some fl ->
      base @ [ ("flights", Json.List (List.map flight_json (Flight.flights fl))) ]
  in
  Json.Obj base

let json ?events ?flights registry =
  Json.to_string (json_value ?events ?flights registry)

(* Prometheus text exposition format. *)

let prom_name name = name

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let prom_labels_extra labels extra =
  prom_labels (labels @ extra)

let prometheus registry =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (r : R.row) ->
      let name = prom_name r.R.row_name in
      let header kind =
        if not (Hashtbl.mem seen_header name) then begin
          Hashtbl.replace seen_header name ();
          if r.R.row_help <> "" then
            Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name r.R.row_help);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
        end
      in
      match r.R.row_sample with
      | R.Counter_sample v ->
        header "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" name (prom_labels r.R.row_labels) v)
      | R.Gauge_sample v ->
        header "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %g\n" name (prom_labels r.R.row_labels) v)
      | R.Hist_sample h ->
        header "histogram";
        let cumulative = ref 0 in
        List.iter
          (fun (upper, count) ->
            cumulative := !cumulative + count;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (prom_labels_extra r.R.row_labels [ ("le", string_of_int upper) ])
                 !cumulative))
          h.R.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" name
             (prom_labels_extra r.R.row_labels [ ("le", "+Inf") ])
             h.R.h_count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %d\n" name (prom_labels r.R.row_labels) h.R.h_sum);
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (prom_labels r.R.row_labels)
             h.R.h_count))
    (R.snapshot registry);
  Buffer.contents buf
