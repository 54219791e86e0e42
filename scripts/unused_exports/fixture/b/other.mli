(** Calls [Table.create] from inside the same library. *)

val fresh : unit -> Table.t
