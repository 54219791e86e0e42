module Summary = struct
  type t = {
    mutable count : int;
    mutable total : float;
    mutable sq_total : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { count = 0; total = 0.0; sq_total = 0.0; min_v = infinity; max_v = neg_infinity }

  let add t v =
    t.count <- t.count + 1;
    t.total <- t.total +. v;
    t.sq_total <- t.sq_total +. (v *. v);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

  let variance t =
    if t.count < 2 then 0.0
    else begin
      let m = mean t in
      let v = (t.sq_total /. float_of_int t.count) -. (m *. m) in
      if v < 0.0 then 0.0 else v
    end

  let min t = t.min_v
  let max t = t.max_v
end

module Timeweighted = struct
  type t = {
    start : Time.t;
    mutable last_change : Time.t;
    mutable level : float;
    mutable area : float;
    mutable max_level : float;
  }

  let create ~start ~initial =
    { start; last_change = start; level = initial; area = 0.0; max_level = initial }

  let set t ~now v =
    if now < t.last_change then invalid_arg "Timeweighted.set: time went backwards";
    t.area <- t.area +. (t.level *. float_of_int (now - t.last_change));
    t.last_change <- now;
    t.level <- v;
    if v > t.max_level then t.max_level <- v

  let mean t ~now =
    let span = now - t.start in
    if span <= 0 then t.level
    else begin
      let area = t.area +. (t.level *. float_of_int (now - t.last_change)) in
      area /. float_of_int span
    end

  let max t = t.max_level
end
