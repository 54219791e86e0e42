(** A table whose [clear] has no caller, though a record field, another
    library's value and a use of that field all share the name. *)

type t = { mutable clear : bool }

val create : unit -> t
val clear : t -> unit
