(** A table: heap + secondary indexes + schema.

    This is the storage role Postgres plays for Gaea: each non-primitive
    class is backed by one table whose attributes hold primitive-class
    values. *)

type t

val create : name:string -> Tuple.descriptor -> t
val name : t -> string
val descriptor : t -> Tuple.descriptor
val row_count : t -> int

val create_btree_index : t -> string -> (unit, string) result
(** Ordered index on an attribute, serving equality and range lookups;
    backfills existing rows.  Errors on unknown attribute, duplicate
    index or non-orderable type. *)

val has_btree_index : t -> string -> bool

val btree_cardinality : t -> string -> int option
(** Distinct keys in the B-tree on the attribute, read without a scan;
    [None] when the attribute has no B-tree. *)

val create_box_index : t -> string -> (unit, string) result
(** Window index ({!Index_box}) on a box attribute, serving
    {!lookup_range}.  It is built from the heap by the first window
    probe and maintained by every write after that.  Errors on an
    unknown or non-box attribute, or when the table has one already. *)

val has_box_index : t -> string -> bool

val insert : t -> Oid.t -> Gaea_adt.Value.t array -> (unit, string) result
(** Builds and type-checks a tuple from values in attribute order
    ({!Tuple.of_array}: the array becomes the tuple), stores it,
    maintains indexes. *)

val insert_tuple : t -> Oid.t -> Tuple.t -> (unit, string) result

val replace : t -> Oid.t -> Gaea_adt.Value.t array -> (unit, string) result
(** Overwrite a live row in place (same OID) with values in attribute
    order, taken as {!insert} takes them, re-indexing only the keys
    that changed (a B-tree key {!Vorder.compare} finds equal and an equal
    box stay put).
    Errors on unknown/deleted OID or a tuple type mismatch. *)

val delete : t -> Oid.t -> bool
val get : t -> Oid.t -> Tuple.t option
val get_attr : t -> Oid.t -> string -> Gaea_adt.Value.t option

val scan : t -> (Oid.t -> Tuple.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Oid.t -> Tuple.t -> 'a) -> 'a

val to_seq : t -> (Oid.t * Tuple.t) Seq.t
(** Live rows in insertion order, on demand (see {!Heap.to_seq}). *)

val oids : t -> int -> Oid.t list
(** The first [n] live OIDs in insertion order (see {!Heap.oids}). *)

val first_oids : ?tail:Oid.t array -> t -> int -> Oid.t array
(** {!oids} as one array (see {!Heap.first_oids}). *)

val select : t -> (Oid.t -> Tuple.t -> bool) -> (Oid.t * Tuple.t) list

val lookup_eq : t -> string -> Gaea_adt.Value.t -> (Oid.t * Tuple.t) list
(** Equality retrieval; uses a btree index when available, falls back
    to a scan.  Unknown attribute yields []. *)

val lookup_range :
  t -> string -> ?lo:Gaea_adt.Value.t -> ?hi:Gaea_adt.Value.t -> unit
  -> (Oid.t * Tuple.t) list
(** Range retrieval on an orderable attribute (btree or scan), in key
    order.  On a box attribute the bounds are windows: the live rows
    whose box overlaps each given bound, in heap order, through the
    window index when the attribute has one; a bound that is not a box
    matches nothing. *)
