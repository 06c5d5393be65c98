(** Provenance: the task log, its lineage indexes, the logical clock,
    reuse of recorded derivations, object staleness, and the (cached)
    class-derivation net.

    Emits [Task_recorded] when a task is appended ({!record_task}) and
    [Cache_invalidated] when a staleness walk ends reuse entries;
    restores are event-silent.  Staleness is computed here, from the
    [producer]/[users] indexes: the kernel calls {!object_changed},
    {!object_deleted} and {!process_defined} where the state changes.
    The kernel drops the memoized net ({!invalidate_net}) when a
    class or process definition changes. *)

module Oid = Gaea_storage.Oid

type t

val create : objects:Obj_store.t -> bus:Events.bus -> t
(** [objects] answers the liveness check of the staleness walk. *)

val record_task :
  t -> process:string -> version:int
  -> inputs:(string * Oid.t list) list
  -> params:(string * Gaea_adt.Value.t) list
  -> outputs:Oid.t list -> output_class:string -> Task.t
(** Advance the clock, allocate a task id, append and index the task,
    and make it the reusable task for its key.  Emits [Task_recorded].
    A task with a stale input makes its outputs, and everything
    downstream of them, stale; that walk ends no reuse. *)

val restore_task : t -> Task.t -> (unit, Gaea_error.t) result
(** Append a previously recorded task verbatim; errors on duplicate
    ids.  Advances the task counter and clock past it.  Event-silent;
    the task is not made reusable (see {!restore_reusable}). *)

val tasks : t -> Task.t list
(** Chronological. *)

val find_task : t -> int -> Task.t option
val task_producing : t -> Oid.t -> Task.t option
val tasks_using : t -> Oid.t -> Task.t list
val clock : t -> int

(** {2 Reuse}

    One index maps a reuse key — process name and version, the input
    binding sorted by argument name, and the parameters by content
    hash — to the newest task recorded with it.  Every recorded task
    enters it; the staleness triggers below end the entry of the
    producer of every object they reach.  Re-running a process on the
    same binding is then a lookup, not a derivation. *)

val find_reusable :
  t -> Process.t -> inputs:(string * Oid.t list) list -> Task.t option
(** The task recorded for this process and binding, if its entry
    stands and all its outputs are still stored. *)

val fired : t -> Process.t -> inputs:(string * Oid.t list) list -> bool
(** Whether the binding holds a reuse entry ({!find_reusable} finds
    it), answered from the process's frontier when it has one. *)

val fired_one : t -> Process.t -> arg:string -> Oid.t -> bool
(** {!fired} for the binding of the one argument [arg] to [oid], with
    no binding built when the frontier answers. *)

val reusable_count : t -> int
(** Entries in the index. *)

val retired : t -> int
(** Entries the staleness triggers have ended so far. *)

val reusable_tasks : t -> Task.t list
(** The tasks of the entries whose outputs are stored, by task id:
    what a save records. *)

val restore_reusable : t -> int list -> (unit, Gaea_error.t) result
(** Persist support: make the given logged tasks reusable again, each
    under the key recomputed from its record.  Event-silent; errors
    on an id the log does not hold. *)

val restore_retired : t -> int -> unit
(** Persist support: reinstate the saved {!retired} count. *)

(** {2 Unfired frontiers}

    For a primitive process version whose one argument draws one
    object, the frontier is the ascending set of the live objects of
    the argument's class that hold no reuse entry for it: the bindings
    a DERIVE can still fire.  It is built from the class and the index
    on first use (so a load rebuilds it and a save records nothing
    new), then kept by {!record_task}, the retirement of an entry
    (whose input is unfired again), {!object_inserted} and
    {!object_deleted}.  A new version of the process drops it. *)

val frontier : t -> Process.t -> Gaea_petri.Net.frontier option
(** The process's frontier as planning reads it, [None] for a process
    that has none (several arguments, a SETOF of more than one object,
    a compound). *)

val object_inserted : t -> cls:string -> Oid.t -> unit
(** A new object of [cls]: unfired for every frontier drawing from it. *)

(** {2 Staleness}

    An object is stale iff it is live, has a producing task, and a
    transitive input was updated or deleted, its process was
    re-versioned, or it was derived from a stale input.  This is the
    one staleness definition: the [gaea lint] GA033 check reads it.
    Each trigger ends the reuse entry of the producer of every object
    its walk reaches — the changed object itself and every object
    downstream of it, stale already or not — and emits one
    [Cache_invalidated] when it ended any.  A walk reaches each object
    once, and follows from an object only the tasks still producing one
    of their outputs, so its cost does not grow with the refreshes
    that superseded earlier tasks. *)

val object_changed : t -> Oid.t -> unit
(** The object's values were replaced: mark its consumers stale. *)

val object_deleted : t -> Oid.t -> unit
(** The object is gone, not stale; mark its consumers stale and drop
    it from the frontiers. *)

val process_defined : t -> name:string -> version:int -> unit
(** [name] gained [version]: mark the outputs of the tasks run by
    older versions stale.  The caller skips a first version, which
    supersedes nothing. *)

val stale : t -> Oid.t list
(** The dirty set (live objects only), ascending. *)

val stale_count : t -> int
(** The length of {!stale}, counted without listing it. *)

val is_stale : t -> Oid.t -> bool

val mark_fresh : t -> Oid.t -> unit
(** The object was recomputed from fresh inputs. *)

val restore_stale : t -> Oid.t list -> unit
(** Persist support: reinstate a saved dirty set without emitting
    events or walking the provenance graph. *)

(** {2 Derivation net} *)

val derivation_net :
  t
  -> classes:(unit -> Schema.t list)
  -> processes:(unit -> Process.t list)
  -> Gaea_petri.Net.t
(** Build (or return the memoized) net: a place per class named after
    it, a transition per latest-version primitive process named after
    it.  Transitions carry no guard: the planner's binding search, not
    the net, decides whether a process can run on given objects. *)

val invalidate_net : t -> unit
(** Drop the memoized net; the next {!derivation_net} rebuilds it. *)
