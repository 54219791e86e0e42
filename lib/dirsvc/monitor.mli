(** Network monitoring feeding the directory (§3, §6.3).

    "The routing directory servers maintain reasonably up-to-date load
    information on links using reports received from network monitoring
    stations, individual routers and sources experiencing problems with
    routes they are using."

    This monitor samples every link's recent utilization on a fixed period
    and reports it to the directory, so [Lowest_delay] queries and route
    advisories steer around load without any router participating in route
    computation. *)

type t

val create :
  ?interval:Sim.Time.t -> Netsim.World.t -> Directory.t -> t
(** [interval] defaults to 500 ms. *)

val start : t -> until:Sim.Time.t -> unit
(** Sample periodically until the given simulation time (bounded so a
    finished simulation's event queue drains). *)

val reports_made : t -> int
