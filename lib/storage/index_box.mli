(** Window index over boxes: a grid levelled by box size.

    A box goes to the level L whose cell side 2{^L} is the least power of
    two above twice its longer side (level 0 for a zero-size box), in the
    cell holding its lower-left corner, so every box lives in exactly one
    cell and reaches at most one cell right and one cell up.  A window
    probes, at each level, the cells from those of its lower-left corner
    moved down and left by the widest and tallest box the level has held
    to those of its upper-right corner — or, when that is more cells than
    the level holds, every cell of the level.  Levels need no tuning: they
    follow the boxes.

    Entries are int ids (a {!Table} uses heap slots).  A level keeps its
    cells in an open-addressed table keyed by the exact cell numbers, and
    each cell its ids and box corners in one flat float array, so a probe
    allocates nothing and tests an entry without following a pointer to
    its box.  A level is raised as far as needed to keep a corner's cell
    number an exact integer; a box no level can hold (an infinite width),
    or one whose id is not an exact float (2{^53} or more in magnitude),
    is kept aside and tested on every probe. *)

type t

val create : unit -> t
val add : t -> int -> Gaea_geo.Box.t -> unit
(** Adds an id not in the index. *)

val remove : t -> int -> Gaea_geo.Box.t -> unit
(** [box] must be the box the id was added with. *)

val iter_overlapping : t -> Gaea_geo.Box.t -> (int -> unit) -> unit
(** Calls the function on each id whose box overlaps the window
    ({!Gaea_geo.Box.overlaps}, boundaries included), once each, in no
    particular order.  The index must not change during the walk. *)
