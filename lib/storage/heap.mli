(** Heap storage for one table: rows in insertion order, kept as two
    growable columns, OIDs in an [int array] and tuples beside them,
    with an {!Oid.Tbl} from OID to slot.  A delete leaves a tombstone
    and drops the tuple at once; when tombstones outnumber live rows the
    heap compacts in place, keeping the live rows in order, so a scan
    costs O(live rows) and a delete O(1) amortized.  Mutating the heap
    during {!scan}, {!fold} or a {!to_seq} walk is not supported. *)

type t

val create : unit -> t
val insert : t -> Oid.t -> Tuple.t -> (unit, string) result
(** Errors on a duplicate OID. *)

val delete : t -> Oid.t -> bool
(** True if the OID was live. *)

val replace : t -> Oid.t -> Tuple.t -> (unit, string) result
(** Overwrite a live tuple in its slot — same OID, same insertion
    position.  Errors on an absent or deleted OID. *)

val get : t -> Oid.t -> Tuple.t option
(** [None] when absent or deleted. *)

val slot : t -> Oid.t -> int
(** A live row's position, or -1 when the OID is absent or deleted.
    Positions ascend in scan order; an insert takes position
    [allocated - 1], and positions change only when a delete compacts
    the heap, which {!allocated} shows by dropping. *)

val row : t -> int -> Oid.t * Tuple.t
(** The row at a live row's {!slot}. *)

val length : t -> int
(** Live tuples. *)

val allocated : t -> int
(** Slots in use, tombstones included: at most 2 × {!length}. *)

val scan : t -> (Oid.t -> Tuple.t -> unit) -> unit
(** Live tuples, insertion order. *)

val iter_slots : t -> (int -> Tuple.t -> unit) -> unit
(** {!scan} by {!slot} instead of OID. *)

val fold : t -> init:'a -> f:('a -> Oid.t -> Tuple.t -> 'a) -> 'a

val to_seq : t -> (Oid.t * Tuple.t) Seq.t
(** Live tuples in insertion order, produced on demand: a consumer that
    stops early never visits the rest of the heap. *)

val oids : t -> int -> Oid.t list
(** The first [n] live OIDs in insertion order (all of them when
    fewer); the walk stops at the [n]-th. *)

val oids_onto : t -> int -> Oid.t list -> Oid.t list
(** [oids_onto t n tail] is [oids t n @ tail] without the copy. *)
