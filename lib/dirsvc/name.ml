type t = string list

let of_string s =
  if s = "" then invalid_arg "Name.of_string: empty";
  let parts = String.split_on_char '.' s in
  if List.exists (fun p -> p = "") parts then
    invalid_arg "Name.of_string: empty component";
  parts

let to_string t = String.concat "." t

let region t =
  match t with
  | [] -> invalid_arg "Name.region: empty name"
  | [ root ] -> [ root ]
  | _ ->
    let rec drop_last = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    drop_last t

let depth = List.length

let common_prefix a b =
  let rec go a b n =
    match a, b with
    | x :: a', y :: b' when x = y -> go a' b' (n + 1)
    | _, _ -> n
  in
  go a b 0

let hierarchy_distance a b =
  let ra = region a and rb = region b in
  let shared = common_prefix ra rb in
  depth ra - shared + (depth rb - shared)
