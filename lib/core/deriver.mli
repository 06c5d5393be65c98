(** The deriver: template evaluation, binding search and process
    execution.

    Before running a primitive process the deriver looks its binding
    up in the provenance reuse index ({!Provenance.find_reusable}):
    a recorded task whose outputs are still stored is served as is.
    Each lookup emits [Cache_hit] or [Cache_miss], which the bus
    counts ({!Events.emit}). *)

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

val check_inputs :
  t -> Process.t -> (string * Oid.t list) list -> (unit, Gaea_error.t) result
(** Cardinalities, then template assertions. *)

val find_binding :
  t -> ?fresh:bool -> Process.t -> available:(string * Oid.t list) list
  -> ((string * Oid.t list) list, Gaea_error.t) result
(** See {!Kernel.find_binding}. *)

val eval_primitive :
  t -> Process.t -> (string * Oid.t list) list
  -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** Check and evaluate without inserting or recording. *)

val execute_process :
  t -> Process.t -> inputs:(string * Oid.t list) list
  -> (Task.t, Gaea_error.t) result
(** Run a primitive process, or reuse its recorded task; expand a
    compound step by step, each step reused or run, and return the
    last step's task. *)

val recompute_task :
  t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result

val count_pixels : Gaea_adt.Value.t -> int
(** Pixels carried by a raster value (0 for scalars) — the
    [pixels_processed] unit of account. *)
