(** The deriver: template evaluation, binding search, process
    execution and incremental refresh.

    A primitive process version is compiled once, at its first firing
    ({!Template.compile} against its arguments' classes, its parameters
    and the operator registry, with its output class's attribute
    layout), and kept while every name in it resolved; a firing then
    evaluates the compiled form on its binding and hands the values to
    the object store in attribute order.  Evaluation is pure: nothing
    is written until the commit.

    Before running a primitive process the deriver looks its binding
    up in the provenance reuse index ({!Provenance.find_reusable}):
    a recorded task whose outputs are still stored is served as is.
    Each lookup emits [Cache_hit] or [Cache_miss], which the bus
    counts ({!Events.emit}); a DERIVE step ({!fire}), whose binding
    search has shown it unfired, emits [Cache_miss] without a lookup.

    Every derived value is committed by the deriver, through one
    helper: a DERIVE or an interpolation inserts a new object, a
    REFRESH overwrites the stale one in place, and each then counts the
    pixels and records the task.  Every error a firing returns is the
    one evaluating the template by name would return, at the same
    point: a name that does not resolve fails when it is read, never at
    definition. *)

module Oid = Gaea_storage.Oid

type t

val create :
  registry:Gaea_adt.Registry.t
  -> catalog:Catalog.t
  -> objects:Obj_store.t
  -> procs:Proc_registry.t
  -> prov:Provenance.t
  -> bus:Events.bus
  -> t

val forget_compiled : t -> unit
(** Drop every compiled process version (see {!execute_process}); the
    kernel calls it wherever it drops the memoized derivation net, when
    a class or a process is defined. *)

val find_binding :
  t -> ?fresh:bool -> Process.t -> available:(string * Oid.t list) list
  -> ((string * Oid.t list) list, Gaea_error.t) result
(** See {!Kernel.find_binding}. *)

val fire :
  t -> Process.t -> available:(string * Oid.t list) list
  -> widened:(unit -> (string * Oid.t list) list)
  -> (Task.t, Gaea_error.t) result
(** A DERIVE step of a primitive process: {!find_binding} with
    [~fresh:true] over [available], or, when that finds none, over
    [widened ()]; then the binding is evaluated and committed as
    {!execute_process} runs it after a reuse miss ([Cache_miss], then
    the task), without probing the reuse index or checking the binding
    a second time.  Fails as {!find_binding} does when neither list
    holds such a binding, else with the evaluation's or the commit's
    error. *)

val execute_process :
  t -> Process.t -> inputs:(string * Oid.t list) list
  -> (Task.t, Gaea_error.t) result
(** Run a primitive process, or reuse its recorded task; expand a
    compound step by step, each step reused or run, and return the
    last step's task. *)

val interpolation_process : string
(** The process name recorded on interpolation tasks (["interpolate"],
    version 0, inputs [a] and [b], parameter [at]). *)

val interpolate :
  t -> cls:string -> at:Gaea_geo.Abstime.t -> Oid.t * Oid.t
  -> (Task.t, Gaea_error.t) result
(** The generic interpolation process (paper: "a generic derivation
    process which is applicable to many data types") between two
    objects of [cls] with distinct timestamps: image attributes
    interpolate per pixel, float attributes linearly, the temporal
    extent is [at], everything else is copied from the temporally
    nearest input.  Inserts the object and records its task. *)

val recompute_task :
  t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** See {!Kernel.recompute_task}. *)

type refresh_report = {
  refreshed : int;  (** objects recomputed in place *)
  skipped : int;  (** stale objects left stale (see [skip_reasons]) *)
  remaining : int;  (** dirty-set size after the run *)
  tasks : Task.t list;  (** new provenance tasks, in commit order *)
  skip_reasons : (Oid.t * string) list;
}

val refresh : ?only:Oid.t list -> t -> refresh_report
(** Recompute stale objects ([only] restricts to the given targets
    plus their stale upstream closure), dirty subgraph only.  Each
    producing task is evaluated and committed in turn on the calling
    domain, by wave depth, then producing task id, so results,
    provenance and event order match a full re-derivation at any pool
    size (the pool only serves the raster operators inside each
    evaluation).  Refreshed values replace the old objects {e in place}
    (same OIDs), which runs the update trigger
    ({!Provenance.object_changed}) for each; each refresh records a new
    provenance task, which becomes the reusable one.  A primitive's
    object is recomputed by the latest version of its process; an
    interpolated object by the interpolation its task records, the
    evaluation {!recompute_task} (and so VERIFY) runs.  Objects whose
    process is not in the registry or whose inputs are gone are skipped
    and stay stale, and so are the objects derived from them. *)
