(** The class catalog: class definitions plus their backing tables.

    Owns the derivation level's {e static} half — every defined
    {!Schema.t} and the table that holds its objects, with the
    temporal and spatial indexes its [AT] and [OVERLAPS] queries need.
    It is the only map from class names to tables.  Emits
    [Class_defined] on the bus. *)

type t

val create : bus:Events.bus -> t

val define : t -> Schema.t -> (unit, Gaea_error.t) result
(** Creates the backing table, with a B-tree index on the temporal
    attribute and a window index on the spatial attribute, for those the
    class has; errors on duplicate class names or
    a storage failure.  Emits [Class_defined]. *)

val entry : t -> string -> (Schema.t * Gaea_storage.Table.t) option
(** The definition and backing table, [None] for unknown classes. *)

val mem : t -> string -> bool
val find : t -> string -> Schema.t option

val classes : t -> Schema.t list
(** Sorted by name. *)

val table : t -> string -> Gaea_storage.Table.t option
(** The backing table, [None] for unknown classes. *)
