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
  let total t = t.total
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

module Histogram = struct
  type t = {
    width : float;
    counts : int array;
    mutable total : int;
    sum : Summary.t;
  }

  let create ~bucket_width ~buckets =
    if bucket_width <= 0.0 || buckets <= 0 then invalid_arg "Histogram.create";
    { width = bucket_width; counts = Array.make buckets 0; total = 0; sum = Summary.create () }

  let add t v =
    let idx = int_of_float (v /. t.width) in
    let idx = if idx < 0 then 0 else min idx (Array.length t.counts - 1) in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1;
    Summary.add t.sum v

  let count t = t.total
  let bucket_count t i = t.counts.(i)

  let percentile t p =
    if t.total = 0 then 0.0
    else begin
      let rank = p *. float_of_int t.total in
      let rec walk i seen =
        if i >= Array.length t.counts then t.width *. float_of_int (Array.length t.counts)
        else begin
          let seen = seen + t.counts.(i) in
          if float_of_int seen >= rank then t.width *. float_of_int (i + 1)
          else walk (i + 1) seen
        end
      in
      walk 0 0
    end

  let mean t = Summary.mean t.sum
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

  let current t = t.level
  let max t = t.max_level
end

module Rate = struct
  type t = {
    window : Time.t;
    events : (Time.t * float) Queue.t;
    mutable in_window : float;
  }

  let create ~window =
    if window <= 0 then invalid_arg "Rate.create";
    { window; events = Queue.create (); in_window = 0.0 }

  let expire t ~now =
    let horizon = now - t.window in
    let rec drop () =
      match Queue.peek_opt t.events with
      | Some (time, amount) when time < horizon ->
        ignore (Queue.pop t.events);
        t.in_window <- t.in_window -. amount;
        drop ()
      | _ -> ()
    in
    drop ()

  let tick t ~now ~amount =
    expire t ~now;
    Queue.push (now, amount) t.events;
    t.in_window <- t.in_window +. amount

  let per_second t ~now =
    expire t ~now;
    t.in_window /. Time.to_seconds t.window
end
