type meta = ..

type t = {
  payload : bytes;
  mutable off : int;
  mutable len : int;
  mutable priority : Token.Priority.t;
  mutable drop_if_blocked : bool;
  meta : meta option;
  mutable flight : Telemetry.Flight.ctx option;
  mutable aborted : bool;
}

let bits t = 8 * t.len

let contents t =
  if t.off = 0 && t.len = Bytes.length t.payload then t.payload
  else Bytes.sub t.payload t.off t.len

let vacant =
  {
    payload = Bytes.empty;
    off = 0;
    len = 0;
    priority = Token.Priority.normal;
    drop_if_blocked = false;
    meta = None;
    flight = None;
    aborted = false;
  }
