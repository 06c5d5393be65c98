(** The process registry: versioned process definitions.

    Emits [Process_defined] for a new name and [Process_versioned]
    when an existing name gains a version — the derivation-net cache
    invalidates itself by subscription, and the staleness walk
    ({!Refresh}) marks the old version's outputs stale and drops their
    cache entries. *)

type t

val create : catalog:Catalog.t -> bus:Events.bus -> t

val define : t -> Process.t -> (unit, Gaea_error.t) result
(** Registers under (name, version); errors on duplicates, unknown
    argument/output classes, or (for compounds) unknown
    sub-processes. *)

val versions : t -> string -> Process.t list
(** Ascending version order. *)

val find : t -> ?version:int -> string -> Process.t option
(** Latest version when [version] is omitted. *)

val latest_version : t -> string -> int option
(** Highest stored version of a process name, if any. *)

val latest : t -> Process.t list
(** Latest version of each process, sorted by name. *)

val all_versions : t -> Process.t list
