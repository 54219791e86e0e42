module D = Dirsvc.Directory
module Route = Sirpent.Route

type outcome =
  | Equal
  | Route_mismatch
  | Hops_mismatch
  | Presence_mismatch

let check d ~client ~target ?(selector = D.Lowest_delay)
    ?(priority = Token.Priority.highest) () =
  let compiled =
    Compiler.compile d ~client ~target ~selector ~priority Intent.direct
  in
  let queried = D.query d ~client ~target ~selector ~k:1 ~priority () in
  match compiled, queried with
  | Error _, [] -> Equal
  | Error _, _ :: _ | Ok _, [] -> Presence_mismatch
  | Ok c, ri :: _ ->
    if not (Route.equal c.Compiler.plain ri.D.route) then Route_mismatch
    else if c.Compiler.hops <> ri.D.hops then Hops_mismatch
    else Equal

type report = { checked : int; failed : int }

let sweep d ~pairs ?selector ?priority () =
  List.fold_left
    (fun acc (client, target) ->
      match check d ~client ~target ?selector ?priority () with
      | Equal -> { acc with checked = acc.checked + 1 }
      | Route_mismatch | Hops_mismatch | Presence_mismatch ->
        { checked = acc.checked + 1; failed = acc.failed + 1 })
    { checked = 0; failed = 0 }
    pairs
