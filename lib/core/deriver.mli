(** The deriver: template evaluation, binding search, process
    execution, and the provenance-keyed result cache.

    The staleness triggers ({!Refresh}) decide what a change
    invalidates and call {!invalidate}, which emits
    [Cache_invalidated].  Cache lookups emit [Cache_hit] /
    [Cache_miss], which the bus counts ({!Events.emit}). *)

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
  t -> ?exclude:(string * Oid.t list) list list
  -> Process.t -> available:(string * Oid.t list) list
  -> ((string * Oid.t list) list, Gaea_error.t) result

val eval_primitive :
  t -> Process.t -> (string * Oid.t list) list
  -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** Check and evaluate without inserting or recording. *)

val execute_process :
  t -> Process.t -> inputs:(string * Oid.t list) list
  -> (Task.t, Gaea_error.t) result

val recompute_task :
  t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result

val count_pixels : Gaea_adt.Value.t -> int
(** Pixels carried by a raster value (0 for scalars) — the
    [pixels_processed] unit of account. *)

(** {2 Result cache}

    The cache is memory-bounded: every entry is charged the byte size
    of its output tuples (raster payloads at storage-type width), and
    total residency is kept under a budget ([GAEA_CACHE_BYTES],
    default 256 MiB) by GreedyDual-Size eviction — priority is
    clock-at-use + recompute-cost / bytes, so cheap-to-recompute bulky
    entries go first and recently used ones survive (LRU tie-break). *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;  (** live memoized results *)
  invalidations : int;  (** entries dropped by staleness *)
  admissions : int;  (** results stored under the budget *)
  evictions : int;  (** entries displaced to stay under budget *)
  resident_bytes : int;  (** bytes currently charged *)
  budget_bytes : int;  (** the active byte budget *)
}

val cache_stats : t -> cache_stats
val clear_cache : t -> unit

val invalidate : t -> reason:string -> Oid.t list -> unit
(** Drop the entries whose task produced one of the given objects (a
    compound's entry goes with its last step's output), found through
    an output-oid index; emits one [Cache_invalidated] with [reason]
    when anything was dropped. *)

val set_cache_budget : t -> int -> unit
(** Override the budget (e.g. for sweeps); shrinking evicts
    immediately. *)

val admit :
  t -> Process.t -> inputs:(string * Oid.t list) list -> cost:float
  -> Task.t -> unit
(** Store a freshly produced result, charging its bytes and evicting
    to fit; [cost] seeds the eviction priority.  Emits
    [Cache_admitted] (and [Cache_evicted] for any displaced entries).
    Used by the refresh scheduler, which recomputes outside
    the hit/miss probe. *)

val restore_cache_stats :
  t -> hits:int -> misses:int -> invalidations:int -> admissions:int
  -> evictions:int -> unit
(** Persist support: reinstate the counter values of a saved kernel
    (entries themselves are not persisted). *)
