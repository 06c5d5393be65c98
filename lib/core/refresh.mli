(** Staleness and incremental recomputation of stale derived objects.

    Subscribes (as ["refresh"]) to the event bus and maintains the
    per-object {e dirty set}: an object is stale iff it is live, has a
    producing task, and a transitive input was updated or deleted, its
    process was re-versioned, or it was derived from a stale input.
    This is the one staleness definition: the [gaea lint] GA033 check
    reads it, and each triggering event's walk also tells the result
    cache which entries to drop ({!Deriver.invalidate}) — the entries
    that produced the changed object and every object the walk
    reached.

    {!refresh} recomputes only the dirty subgraph as a {!Scheduler}
    DAG: evaluation runs on the domain pool when the ready frontier
    can fill it, and commits run by wave depth, then producing task
    id, so results, provenance and event order match a full
    re-derivation at any pool size.  Refreshed values replace the old objects {e in
    place} (same OIDs); each refresh records a new provenance task and
    re-admits the result to the bounded cache. *)

module Oid = Gaea_storage.Oid

type t

val create :
  objects:Obj_store.t
  -> procs:Proc_registry.t
  -> prov:Provenance.t
  -> deriver:Deriver.t
  -> metrics:Metrics.t
  -> bus:Events.bus
  -> t

val stale : t -> Oid.t list
(** The dirty set (live objects only), ascending. *)

val is_stale : t -> Oid.t -> bool

val restore_stale : t -> Oid.t list -> unit
(** Persist support: reinstate a saved dirty set without emitting
    events or walking the provenance graph. *)

type report = {
  refreshed : int;  (** objects recomputed in place *)
  skipped : int;  (** stale objects left stale (see [skip_reasons]) *)
  remaining : int;  (** dirty-set size after the run *)
  tasks : Task.t list;  (** new provenance tasks, in commit order *)
  skip_reasons : (Oid.t * string) list;
}

val refresh : ?only:Oid.t list -> t -> report
(** Recompute stale objects ([only] restricts to the given targets
    plus their stale upstream closure).  Objects whose process is not
    in the registry (e.g. interpolation pseudo-tasks) or whose inputs
    are gone are skipped and stay stale. *)
