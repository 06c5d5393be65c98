(** Heap storage for one table: a growable array of OID-addressed slots
    in insertion order.  A delete leaves a tombstone; when tombstones
    outnumber live rows the heap compacts in place, keeping the live rows
    in order, so a scan costs O(live rows) and a delete O(1) amortized.
    Mutating the heap during {!scan}, {!fold} or a {!to_seq} walk is
    not supported. *)

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

val locate : t -> Oid.t -> (int * Tuple.t) option
(** A live row's tuple and its position: positions ascend in scan order
    and hold until the next delete. *)

val mem : t -> Oid.t -> bool
val length : t -> int
(** Live tuples. *)

val allocated : t -> int
(** Slots in use, tombstones included: at most 2 × {!length}. *)

val scan : t -> (Oid.t -> Tuple.t -> unit) -> unit
(** Live tuples, insertion order. *)

val fold : t -> init:'a -> f:('a -> Oid.t -> Tuple.t -> 'a) -> 'a

val to_seq : t -> (Oid.t * Tuple.t) Seq.t
(** Live tuples in insertion order, produced on demand: a consumer that
    stops early never visits the rest of the heap. *)

val oids : t -> int -> Oid.t list
(** The first [n] live OIDs in insertion order (all of them when
    fewer); the walk stops at the [n]-th. *)

val find : t -> (Oid.t -> Tuple.t -> bool) -> (Oid.t * Tuple.t) option
val to_list : t -> (Oid.t * Tuple.t) list
