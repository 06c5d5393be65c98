(** The process registry: versioned process definitions.

    Emits [Process_defined] for a new name and [Process_versioned]
    when an existing name gains a version.  The kernel then drops the
    memoized derivation net and calls {!Provenance.process_defined},
    which marks the old versions' outputs stale and ends their reuse. *)

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
