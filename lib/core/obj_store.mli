(** Object CRUD over the catalog's tables, the oid → class map, and
    the OID allocator — the only one in the kernel.

    Emits [Object_inserted] / [Object_updated] / [Object_deleted] on
    the bus.  Staleness is not this module's business: the kernel
    calls the {!Provenance} triggers after an update or delete. *)

module Oid = Gaea_storage.Oid

type t

val create : catalog:Catalog.t -> bus:Events.bus -> t

val insert :
  t -> cls:string -> (string * Gaea_adt.Value.t) list
  -> (Oid.t, Gaea_error.t) result
(** Attribute-name/value pairs; every class attribute must be given
    exactly once, and no other.  Allocates the OID before storing, so
    a tuple the table rejects still spends one.  Emits
    [Object_inserted]. *)

val insert_with_oid :
  t -> cls:string -> Oid.t -> (string * Gaea_adt.Value.t) list
  -> (unit, Gaea_error.t) result
(** Insert under a caller-chosen OID (kernel restore), validated as
    {!insert} is; advances the allocator past it.  Event-silent:
    restores must not look like fresh mutations in the event log or
    the counters. *)

val last_oid : t -> Oid.t
(** Highest OID allocated so far, deleted objects included. *)

val advance_oids : t -> Oid.t -> unit
(** Ensure future OIDs exceed the given one (persist loading). *)

val update :
  t -> cls:string -> Oid.t -> (string * Gaea_adt.Value.t) list
  -> (unit, Gaea_error.t) result
(** Replace the named attributes in place, keeping the OID and any
    unnamed attributes.  Emits [Object_updated] on success. *)

val delete : t -> cls:string -> Oid.t -> (unit, Gaea_error.t) result
(** [Error (Unknown_object oid)] when no class owns the oid,
    [Error (Wrong_class _)] when it exists under a different class.
    Emits [Object_deleted] on success. *)

val attr : t -> cls:string -> Oid.t -> string -> Gaea_adt.Value.t option
val oids_of_class : t -> string -> Oid.t list
val class_of : t -> Oid.t -> string option
val count : t -> string -> int

val mem : t -> Oid.t -> bool
(** Whether the oid is live (present in the oid → class map). *)
