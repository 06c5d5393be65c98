(** Append-only heap storage for one table: a growable array of
    OID-addressed slots with tombstone deletion. *)

type t

val create : unit -> t
val insert : t -> Oid.t -> Tuple.t -> (unit, string) result
(** Errors on a duplicate OID. *)

val delete : t -> Oid.t -> bool
(** True if the OID was live. *)

val replace : t -> Oid.t -> Tuple.t -> (unit, string) result
(** Overwrite a live tuple in its slot — same OID, same insertion
    position.  Errors on an absent or tombstoned OID (a tombstone keeps
    its slot, so delete-then-insert cannot reuse the OID; updates must
    go through here). *)

val get : t -> Oid.t -> Tuple.t option
(** [None] when absent or deleted. *)

val mem : t -> Oid.t -> bool
val length : t -> int
(** Live tuples. *)

val allocated : t -> int
(** Including tombstones. *)

val scan : t -> (Oid.t -> Tuple.t -> unit) -> unit
(** Live tuples, insertion order. *)

val fold : t -> init:'a -> f:('a -> Oid.t -> Tuple.t -> 'a) -> 'a

val to_seq : t -> (Oid.t * Tuple.t) Seq.t
(** Live tuples in insertion order, produced on demand: a consumer that
    stops early never visits the rest of the heap. *)

val find : t -> (Oid.t -> Tuple.t -> bool) -> (Oid.t * Tuple.t) option
val to_list : t -> (Oid.t * Tuple.t) list
