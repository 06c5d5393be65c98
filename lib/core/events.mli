(** The kernel event bus.

    Every state change in a kernel subsystem is announced as an
    {!event} on a shared {!bus}.  Cross-cutting concerns — the
    execution counters, the derivation-net cache, the staleness walk
    (which also invalidates the result cache) — are subscribers rather
    than hand-threaded calls, so adding a new observer (persistence
    hooks, metrics exporters) never touches the mutating code paths.

    The bus also keeps a bounded in-memory log (ring buffer) of recent
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
      (** The refresh scheduler recomputed a stale derived object;
          [task_id] is the new provenance task that produced it. *)
  | Process_defined of { name : string; version : int }
      (** First version of a new process name. *)
  | Process_versioned of { name : string; version : int }
      (** A further version of an existing name — staling trigger. *)
  | Task_recorded of { task_id : int; process : string; version : int }
  | Cache_hit of { process : string; version : int }
  | Cache_miss of { process : string; version : int }
  | Cache_invalidated of { entries : int; reason : string }
  | Cache_admitted of { process : string; version : int; bytes : int }
      (** A result entered the bounded result cache, charged [bytes]. *)
  | Cache_evicted of { entries : int; bytes : int; reason : string }
      (** Entries left the cache to make room under [GAEA_CACHE_BYTES]. *)

val event_to_string : event -> string

type bus

val create : ?log_capacity:int -> unit -> bus
(** [log_capacity] bounds the ring buffer (default 256, min 1). *)

val subscribe : bus -> name:string -> (event -> unit) -> unit
(** Register a subscriber.  Subscribers run synchronously on
    {!emit}, in registration order. *)

val subscribers : bus -> string list
(** Registration order. *)

val emit : bus -> event -> unit
(** Log the event, then notify every subscriber in order. *)

val log : bus -> (int * event) list
(** Retained events, oldest first, each with its sequence number.
    At most [log_capacity] entries; earlier events have been
    overwritten. *)

val seen : bus -> int
(** Total number of events emitted (not bounded by the ring). *)
