(** Execution counters.

    The event bus owns one record ({!Events.metrics}) and bumps
    [executions], the two reuse counters and [refreshes] as it logs
    the event that feeds each one (see {!Events.emit}).
    [retrievals], [interpolations] and [pixels_processed] are mutated
    directly by the derivation manager, the deriver and the refresh
    scheduler, as they measure work volumes no event carries. *)

type t = {
  mutable executions : int;  (** process executions (tasks recorded) *)
  mutable retrievals : int;  (** direct object retrievals *)
  mutable interpolations : int;
  mutable pixels_processed : int;  (** image pixels written by mappings *)
  mutable cache_hits : int;  (** primitive runs served by a recorded task *)
  mutable cache_misses : int;  (** primitive runs that actually ran *)
  mutable refreshes : int;  (** stale objects recomputed in place *)
}

val create : unit -> t
val reset : t -> unit
