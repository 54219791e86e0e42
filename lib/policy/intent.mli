(** The routing-intent DSL.

    Sirpent pushes all routing policy to the sender: the routers just
    execute whatever source route the packet carries (§2), so policy
    expressiveness lives entirely in how routes are computed. This module
    is the surface for that computation — a small combinator language over
    directory names, lowered by {!Compiler} to concrete VIPER routes.

    Grammar (see DESIGN.md §12):

    {v
      intent := direct                      best route, no constraint
              | waypoint N                  pass through the node named N
              | seq [i1; ...; ik]           traverse intents in order
              | alt [i1; ...; ik]           i1 preferred; i2.. are fallbacks
              | protect i                   attach in-header branch routes
              | avoid_node N i              never visit node N
              | avoid_region R i            never enter region R
              | load_balance ~at:N ~port i  spread over N's logical port
    v} *)

module Name = Dirsvc.Name

type t =
  | Direct
  | Waypoint of Name.t
  | Seq of t list
  | Alt of t list
  | Protect of t
  | Avoid_node of Name.t * t
  | Avoid_region of Name.t * t
  | Load_balance of { at : Name.t; port : int; next : t }

(** {1 Combinators} *)

val direct : t

val waypoint : Name.t -> t
(** Route through the named node (then on to the query target). *)

val seq : t list -> t
(** Constraints/waypoints applied in order. Raises on an empty list. *)

val alt : t list -> t
(** Ordered alternatives: the first is the primary; the rest become
    fallback routes, and their existence makes the compiled primary carry
    in-header branch routes. Raises on an empty list. *)

val prefer : t -> backup:t -> t
(** [prefer a ~backup:b] = [alt [a; b]]. *)

val protect : t -> t
(** Attach in-header branch routes to every protectable hop even without
    an explicit alternative. *)

val avoid_node : Name.t -> t -> t
val avoid_region : Name.t -> t -> t
(** The route must not visit the node / enter the region (both the
    directory's bound names and unregistered routers whose topology name
    sits under the region prefix). *)

val load_balance : at:Name.t -> port:int -> t -> t
(** At the named router, address logical [port] (1-253) instead of the
    concrete output port, so the router spreads the flow over the
    [Group] {!Sirpent.Router.role} set there. The segment's token is dropped
    — a logical port is authorized by router configuration, not by a
    minted link token. Raises if [port] is outside 1-253. *)

(** {1 Normal form}

    [Seq] distributes over [Alt] (cross product, left-biased), flattening
    any intent into an ordered list of conjunctive {!spec}s: the first
    spec that compiles is the primary route, later specs its fallbacks. *)

type spec = {
  legs : Name.t list;  (** waypoints in traversal order *)
  avoid_nodes : Name.t list;
  avoid_regions : Name.t list;
  balance : (Name.t * int) list;
  protected : bool;
}

val max_specs : int
(** Normalization cap (64): the cross product of deep [seq]/[alt] nests is
    truncated to the first [max_specs] specs in preference order. *)

val normalize : t -> spec list
(** Preference order, best first. Never empty for a well-formed intent. *)

val spec_is_plain : spec -> bool
(** No waypoints, no avoids, no balance: expressible as a plain directory
    query — the bit-identity class {!Verify} property-checks. *)
