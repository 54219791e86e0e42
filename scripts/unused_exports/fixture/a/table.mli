(** A table whose [clear] has a caller, reached through an alias. *)

type t

val create : unit -> t
val clear : t -> unit

module Sub : sig
  val current : t -> int
end
