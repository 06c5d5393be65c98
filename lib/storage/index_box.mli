(** Window index over boxes: a grid levelled by box size.

    A box goes to the level L whose cell side 2{^L} is the least power of
    two above its longer side (level 0 for a zero-size box), in the cell
    holding its lower-left corner, so every box lives in exactly one cell
    and reaches at most one cell right and one cell up.  A window probes,
    at each level, the cells its corners span plus one to the left and
    one below — or, when that is more cells than the level holds, every
    cell of the level.  Levels need no tuning: they follow the boxes.

    A level is raised as far as needed to keep a corner's cell number an
    exact integer; a box no level can hold (an infinite width) is kept
    aside and tested on every probe. *)

type t

val create : unit -> t
val add : t -> Oid.t -> Gaea_geo.Box.t -> unit

val remove : t -> Oid.t -> Gaea_geo.Box.t -> unit
(** [box] must be the box the OID was added with. *)

val overlapping : t -> Gaea_geo.Box.t -> Oid.t list
(** The OIDs whose box overlaps the window ({!Gaea_geo.Box.overlaps},
    boundaries included), in no particular order. *)
