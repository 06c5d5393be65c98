(** Incremental recomputation of stale derived objects.  The
    staleness triggers live in {!Provenance}.

    {!refresh} recomputes only the dirty subgraph as a {!Scheduler}
    DAG: evaluation runs on the domain pool when the ready frontier
    can fill it, and commits run by wave depth, then producing task
    id, so results, provenance and event order match a full
    re-derivation at any pool size.  Refreshed values replace the old
    objects {e in place} (same OIDs), which runs the update trigger
    ({!Provenance.object_changed}) for each; each refresh records a
    new provenance task, which becomes the reusable one. *)

module Oid = Gaea_storage.Oid

type t

val create :
  objects:Obj_store.t
  -> procs:Proc_registry.t
  -> prov:Provenance.t
  -> deriver:Deriver.t
  -> bus:Events.bus
  -> t

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
