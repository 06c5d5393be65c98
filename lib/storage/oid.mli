(** Object identifiers.

    Postgres gives every stored object a system-wide OID; the Gaea
    metadata manager relies on them to record tasks (derivation
    relationships among instances).  One allocator per store. *)

type t = int

type allocator

val allocator : ?first:int -> unit -> allocator
(** Fresh allocator; ids start at [first] (default 1). *)

val fresh : allocator -> t
val current : allocator -> t
(** Highest id allocated so far ([first - 1] if none). *)

val advance_to : allocator -> t -> unit
(** Ensure future ids exceed [t] (used when loading snapshots). *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by OID, hashing the OID itself: a lookup costs no
    [caml_hash] call, as a polymorphic [Hashtbl] lookup does. *)
