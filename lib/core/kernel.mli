(** The Gaea kernel: the metadata manager of Fig 1.

    A thin facade over the subsystem modules — {!Catalog} (class defs +
    schema), {!Obj_store} (object CRUD), {!Proc_registry} (process
    versions), {!Deriver} (assertions, mappings, execution and
    incremental refresh) and {!Provenance} (tasks, lineage, reuse,
    staleness, net views) — composed over one shared
    {!Events.bus}, which logs every state change and feeds the
    execution counters.  The bus dispatches nothing: the mutations
    below call what reacts to them — the staleness walk, which also
    ends reuse, and the net-view cache — after the owning store has
    changed.

    Concurrency: a kernel is a single-threaded mutable object. *)

type t

val create : unit -> t
(** Fresh kernel with the built-in registry ({!Gaea_adt.Registry.with_builtins})
    and no classes. *)

(** {2 Events} *)

module Events = Events

val bus : t -> Events.bus
(** The kernel's event bus: the event log and the counters. *)

val event_log : t -> (int * Events.event) list
(** Recent events (bounded ring buffer), oldest first, with sequence
    numbers.  Dumpable from the CLI via [SHOW EVENTS]. *)

(** {2 System level} *)

val registry : t -> Gaea_adt.Registry.t

(** {2 Classes (derivation level, static)} *)

val define_class : t -> Schema.t -> (unit, Gaea_error.t) result
(** Creates the backing table, with a B-tree index on the temporal
    attribute if there is one.  Errors on duplicate class names or if a
    [Derived] class names a process that is neither defined yet nor
    defined later (checked lazily at derivation time). *)

val find_class : t -> string -> Schema.t option
val classes : t -> Schema.t list
(** Sorted by name. *)

val class_table : t -> string -> Gaea_storage.Table.t option

(** {2 Objects} *)

val insert_object :
  t -> cls:string -> (string * Gaea_adt.Value.t) list
  -> (Gaea_storage.Oid.t, Gaea_error.t) result
(** Attribute-name/value pairs; every class attribute must be given
    exactly once.  Base-data ingestion and derivation both land here. *)

val object_attr :
  t -> cls:string -> Gaea_storage.Oid.t -> string -> Gaea_adt.Value.t option
val objects_of_class : t -> string -> Gaea_storage.Oid.t list
val class_of_object : t -> Gaea_storage.Oid.t -> string option
val count_objects : t -> string -> int

val last_oid : t -> Gaea_storage.Oid.t
(** Highest OID allocated so far, deleted objects included. *)

val advance_oids : t -> Gaea_storage.Oid.t -> unit
(** Ensure future OIDs exceed the given one (persist loading). *)

val delete_object :
  t -> cls:string -> Gaea_storage.Oid.t -> (unit, Gaea_error.t) result
(** [Error (Unknown_object _)] when no class owns the oid,
    [Error (Wrong_class _)] when it belongs to a different class than
    named.  Emits [Object_deleted], then marks the object's consumers
    stale and ends the reuse of the tasks that produced it or them. *)

val update_object :
  t -> cls:string -> Gaea_storage.Oid.t -> (string * Gaea_adt.Value.t) list
  -> (unit, Gaea_error.t) result
(** Replace the named attributes in place (same OID; unnamed
    attributes keep their values).  Emits [Object_updated], then
    marks every transitive consumer stale (see {!stale_objects} /
    {!refresh_stale}) and ends the reuse of the tasks that produced the
    object or those consumers. *)

(** {2 Concepts (high level)} *)

val concepts : t -> Concept.t

(** {2 Processes} *)

val define_process : t -> Process.t -> (unit, Gaea_error.t) result
(** Registers under (name, version); errors on duplicates, unknown
    argument/output classes, or (for compounds) unknown sub-processes.
    A further version of an existing name marks the outputs of the
    older versions' tasks stale and ends their reuse. *)

val find_process : t -> ?version:int -> string -> Process.t option
(** Latest version when [version] is omitted. *)

val process_versions : t -> string -> Process.t list
(** Ascending version order. *)

val latest_process_version : t -> string -> int option
(** Highest stored version of a process name, if any. *)

val processes : t -> Process.t list
(** Latest version of each process, sorted by name. *)

val all_process_versions : t -> Process.t list

(** {2 Execution (tasks)} *)

val execute_process :
  t -> Process.t -> inputs:(string * Gaea_storage.Oid.t list) list
  -> (Task.t, Gaea_error.t) result
(** Bind the given objects to the process arguments, check cardinalities
    and assertions, evaluate the mappings, insert the output object and
    record the task.  Compound processes are expanded: each primitive
    step yields its own task; the returned task is the final step's.

    Results are reused through provenance: a repeated primitive run
    with the same (process name, version, input binding, parameter
    bindings) returns the newest task recorded with them — no
    recomputation, no duplicate object, no new task — and counts as a
    cache hit in {!counters} / {!cache_stats}.  A compound has no entry
    of its own; each of its steps is reused or run.  Reuse of a task
    ends when the staleness walk reaches its output — an input was
    updated or deleted, or the process gained a new version — and
    when its output is updated or deleted.  It survives save and
    load. *)

val recompute_task :
  t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** Re-run the task's process on its recorded inputs {e without}
    inserting — the reproducibility check.  A primitive task runs its
    recorded process version; an interpolation task reruns the
    interpolation at its recorded date. *)

val find_binding :
  t -> ?fresh:bool -> Process.t
  -> available:(string * Gaea_storage.Oid.t list) list
  -> ((string * Gaea_storage.Oid.t list) list, Gaea_error.t) result
(** Distribute candidate objects (keyed by {e class} name) over the
    process's arguments so that cardinalities and assertions hold, and
    return the first such binding.  Tries permutations when several
    arguments draw from one class (the NDVI-1988/1989 situation).
    Candidates are enumerated lazily; the search gives up with
    [Not_derivable] after 128 failed guard evaluations.  With [~fresh:true]
    (default [false]) a binding the process has already fired — one
    whose task {!execute_process} would reuse — is skipped without
    evaluating its guard: firing does not consume its inputs, so
    deriving one more object means firing a binding not fired yet. *)

val fire :
  t -> Process.t -> available:(string * Gaea_storage.Oid.t list) list
  -> widened:(unit -> (string * Gaea_storage.Oid.t list) list)
  -> (Task.t, Gaea_error.t) result
(** One DERIVE step ({!Deriver.fire}): fire the primitive on the first
    binding from [available], else from [widened ()], that it has not
    fired and whose cardinalities and assertions hold — {!find_binding}
    with [~fresh:true] — then evaluate and commit it as
    {!execute_process} does after a reuse miss, the binding probed and
    checked once.  [Not_derivable] when neither list holds such a
    binding; the evaluation's or the commit's error otherwise. *)

val insert_object_with_oid :
  t -> cls:string -> Gaea_storage.Oid.t -> (string * Gaea_adt.Value.t) list
  -> (unit, Gaea_error.t) result
(** Insert under a caller-chosen OID (kernel restore), validated as
    {!insert_object} is; advances the OID allocator past it. *)

val restore_task : t -> Task.t -> (unit, Gaea_error.t) result
(** Append a previously recorded task verbatim (kernel restore): indexes
    it and advances the task counter and logical clock past it.  Errors
    on duplicate task ids. *)

val interpolate :
  t -> cls:string -> at:Gaea_geo.Abstime.t
  -> Gaea_storage.Oid.t * Gaea_storage.Oid.t
  -> (Task.t, Gaea_error.t) result
(** {!Deriver.interpolate}: the derivation manager's generic
    interpolation between two snapshots, inserted and recorded as a
    task of the pseudo-process ["interpolate"] v0. *)

(** {2 Task log} *)

val tasks : t -> Task.t list
(** Chronological. *)

val find_task : t -> int -> Task.t option
val task_producing : t -> Gaea_storage.Oid.t -> Task.t option
(** The task that created the object ([None] for base data). *)

val tasks_using : t -> Gaea_storage.Oid.t -> Task.t list

(** {2 Derivation net} *)

val derivation_net : t -> Gaea_petri.Net.t
(** The class-derivation diagram: a place per class, named after it
    ({!Gaea_petri.Net.find_place} maps a class to its place), and a
    transition per latest-version primitive process, named after it
    (compounds contribute their expansion).  A transition's process is
    [find_process t (Net.transition_name net tr)]: the net holds only
    latest versions, and {!define_class} and {!define_process} drop the
    memoized net.  Transitions carry no guard. *)

val tokens : ?frontiers:bool -> t -> Gaea_petri.Net.tokens
(** The planning view of the net's marking, read from the class tables:
    a place's count is its class's row count, and its first [n] tokens
    are the class's [n] lowest OIDs.  Nothing is copied.  With
    [~frontiers:true] (default [false]) a transition's unfired tokens
    are its process's unfired frontier ({!Provenance.frontier}); without,
    no transition has one. *)

val current_marking : t -> Gaea_petri.Marking.t
(** Token = object OID at its class's place: a copy of every class
    extent.  No planner reads it; it is kept as the reference the
    {!tokens} view is tested against, and for the end-to-end benchmark's
    traced run, which times it. *)

(** {2 Bookkeeping} *)

type counters = Events.counters = {
  mutable executions : int;     (** process executions (tasks recorded) *)
  mutable retrievals : int;     (** direct object retrievals *)
  mutable interpolations : int;
  mutable pixels_processed : int; (** image pixels written by mappings *)
  mutable cache_hits : int;     (** primitive runs served by a recorded task *)
  mutable cache_misses : int;   (** primitive runs that actually executed *)
  mutable refreshes : int;        (** stale objects recomputed in place *)
}

val counters : t -> counters
val clock : t -> int
(** Current logical time (increments per task). *)

(** {2 Reuse of derived objects} *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;          (** tasks in the reuse index *)
  invalidations : int;    (** reuse entries ended by the staleness walk *)
  evictions : int;        (** always 0: reuse has no budget *)
  resident_bytes : int;   (** always 0: reuse pins no bytes *)
}

val cache_stats : t -> cache_stats

val set_cache_budget : t -> int -> unit
(** Does nothing: reuse is not bounded, so no budget can change which
    derivations are reused.  Kept, with the two always-zero fields of
    {!cache_stats}, for callers written against the bounded cache. *)

val reusable_tasks : t -> Task.t list
(** Persist support: the reusable tasks whose outputs are stored, by
    task id. *)

val restore_reusable : t -> int list -> (unit, Gaea_error.t) result
(** Persist support: make the given logged tasks reusable again
    (event-silent); errors on an unknown task id. *)

val restore_cache_stats :
  t -> hits:int -> misses:int -> invalidations:int -> unit
(** Persist support: reinstate saved counter values. *)

(** {2 Staleness and incremental refresh} *)

type refresh_report = Deriver.refresh_report = {
  refreshed : int;  (** objects recomputed in place *)
  skipped : int;  (** stale objects left stale *)
  remaining : int;  (** dirty-set size after the run *)
  tasks : Task.t list;  (** new provenance tasks, in commit order *)
  skip_reasons : (Gaea_storage.Oid.t * string) list;
}

val stale_objects : t -> Gaea_storage.Oid.t list
(** Derived objects whose transitive inputs changed (update, delete,
    process re-version) since their task ran, or that were derived
    from a stale input.  Ascending OID order.  The same definition
    backs [gaea lint]'s GA033. *)

val object_stale : t -> Gaea_storage.Oid.t -> bool

val restore_stale : t -> Gaea_storage.Oid.t list -> unit
(** Persist support: reinstate a saved stale set, event-silently. *)

val refresh_stale : ?only:Gaea_storage.Oid.t list -> t -> refresh_report
(** Recompute stale objects in place, dirty subgraph only, one
    producing task at a time in dependency order; results, provenance
    and event order match a full re-derivation at any pool size.
    Interpolated objects are recomputed as {!recompute_task} recomputes
    them; an object whose process is gone or whose input was deleted is
    skipped and stays stale, with everything derived from it.  [only]
    restricts the run to the given objects plus their stale upstream
    closure. *)
