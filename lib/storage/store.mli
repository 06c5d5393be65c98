(** The database façade: a named collection of tables sharing one OID
    allocator — the role the Postgres backend plays in Fig 1. *)

type t

val create : unit -> t
val fresh_oid : t -> Oid.t

val last_oid : t -> Oid.t
(** Highest OID allocated so far, deleted objects included. *)

val advance_oids : t -> Oid.t -> unit
(** Ensure future OIDs exceed the given one (persist loading). *)

val create_table :
  t -> name:string -> (string * Gaea_adt.Vtype.t) list
  -> (Table.t, string) result
(** Errors on duplicate table names or a bad attribute list. *)

val drop_table : t -> string -> bool
val table : t -> string -> Table.t option

val insert_values :
  t -> table:string -> Gaea_adt.Value.t list -> (Oid.t, string) result
(** Allocate an OID, insert, return the OID. *)

val insert_with_oid :
  t -> table:string -> Oid.t -> Gaea_adt.Value.t list -> (unit, string) result
(** Insert under a caller-chosen OID (persist loading); advances the
    allocator past it. *)

val get : t -> table:string -> Oid.t -> Tuple.t option
val delete : t -> table:string -> Oid.t -> bool
val total_rows : t -> int
