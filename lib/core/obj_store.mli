(** Object CRUD over the catalog's tables, the oid → class map, and
    the OID allocator — the only one in the kernel.

    Emits [Object_inserted] / [Object_updated] / [Object_deleted] on
    the bus.  Staleness is not this module's business: the kernel
    calls the {!Provenance} triggers after an update or delete. *)

module Oid = Gaea_storage.Oid

type t

val create : catalog:Catalog.t -> bus:Events.bus -> t

val resolve :
  t -> cls:string -> (string * Gaea_adt.Value.t) list
  -> (Gaea_adt.Value.t array, Gaea_error.t) result
(** Attribute-name/value pairs in attribute order, in one walk over the
    pairs: every class attribute must be given, and no other (the first
    pair naming an attribute wins). *)

val insert :
  t -> cls:string -> Gaea_adt.Value.t array -> (Oid.t, Gaea_error.t) result
(** The one insert: values in attribute order ({!resolve} turns pairs
    into them), which the stored tuple takes over.  Allocates the OID
    before storing, so a tuple the table rejects still spends one.
    Emits [Object_inserted]. *)

val insert_with_oid :
  t -> cls:string -> Oid.t -> Gaea_adt.Value.t array
  -> (unit, Gaea_error.t) result
(** {!insert} under a caller-chosen OID (kernel restore); advances the
    allocator past it.  Event-silent: restores must not look like fresh
    mutations in the event log or the counters. *)

val unknown_attrs : string -> string list -> ('a, Gaea_error.t) result
(** The error naming attributes the class [cls] does not have. *)

val last_oid : t -> Oid.t
(** Highest OID allocated so far, deleted objects included. *)

val advance_oids : t -> Oid.t -> unit
(** Ensure future OIDs exceed the given one (persist loading). *)

val update :
  t -> cls:string -> Oid.t -> (string * Gaea_adt.Value.t) list
  -> (unit, Gaea_error.t) result
(** Replace the named attributes in place, keeping the OID and any
    unnamed attributes; the pairs are placed as {!resolve} places them.
    Emits [Object_updated] on success. *)

val replace :
  t -> cls:string -> Oid.t -> (Gaea_adt.Value.t array, Gaea_error.t) result
  -> (unit, Gaea_error.t) result
(** {!update} with every attribute given, in attribute order, as
    {!insert} takes them.  The values may be a refusal (a mapping
    target the class lacks), returned once the object's ownership is
    checked, where {!update} refuses unknown attributes. *)

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
