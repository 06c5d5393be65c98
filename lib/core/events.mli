(** The kernel event log.

    Every state change in a kernel subsystem is announced as an
    {!event} on a shared {!bus}, which records it and bumps the
    execution counter it feeds.  The bus dispatches nothing: the
    subsystems that react to a change (the staleness walk, which also
    ends reuse, and the derivation-net cache) are called directly by
    the code that makes it.

    The bus keeps a bounded in-memory log (ring buffer) of recent
    events with monotonically increasing sequence numbers — the first
    observability surface, dumpable from the CLI via [SHOW EVENTS]. *)

type event =
  | Class_defined of string
  | Object_inserted of { cls : string; oid : int }
  | Object_deleted of { cls : string; oid : int }
  | Object_updated of { cls : string; oid : int }
      (** An existing object's attribute values were replaced in place
          ([Kernel.update_object]) — staling trigger for its consumers. *)
  | Object_refreshed of { cls : string; oid : int; task_id : int }
      (** A REFRESH recomputed a stale derived object;
          [task_id] is the new provenance task that produced it. *)
  | Process_defined of { name : string; version : int }
      (** First version of a new process name. *)
  | Process_versioned of { name : string; version : int }
      (** A further version of an existing name — staling trigger. *)
  | Task_recorded of { task_id : int; process : string; version : int }
  | Cache_hit of { process : string; version : int }
      (** A primitive run was served by a recorded task (reuse). *)
  | Cache_miss of { process : string; version : int }
      (** No reusable task: the process runs. *)
  | Cache_invalidated of { entries : int; reason : string }
      (** A staleness trigger ended [entries] reuse entries. *)

val event_to_string : event -> string

(** Execution counters.  The bus bumps [executions], the two reuse
    counters and [refreshes] as it logs the event that feeds each one
    (see {!emit}).  [retrievals], [interpolations] and
    [pixels_processed] are mutated directly by the derivation manager
    and the deriver, as they measure work volumes no event carries. *)
type counters = {
  mutable executions : int;  (** process executions (tasks recorded) *)
  mutable retrievals : int;  (** direct object retrievals *)
  mutable interpolations : int;
  mutable pixels_processed : int;  (** image pixels written by mappings *)
  mutable cache_hits : int;  (** primitive runs served by a recorded task *)
  mutable cache_misses : int;  (** primitive runs that actually ran *)
  mutable refreshes : int;  (** stale objects recomputed in place *)
}

type bus

val create : ?log_capacity:int -> unit -> bus
(** [log_capacity] bounds the ring buffer (default 256, min 1). *)

val counters : bus -> counters
(** The counters this bus feeds. *)

val emit : bus -> event -> unit
(** Log the event, then bump its counter: [Task_recorded] →
    [executions], [Cache_hit] → [cache_hits], [Cache_miss] →
    [cache_misses], [Object_refreshed] → [refreshes]. *)

val log : bus -> (int * event) list
(** Retained events, oldest first, each with its sequence number.
    At most [log_capacity] entries; earlier events have been
    overwritten. *)

val seen : bus -> int
(** Total number of events emitted (not bounded by the ring). *)
