(** A fixed-size domain pool for data-parallel raster kernels.  The
    raster operators use it inside each evaluation; derivation itself
    (compound steps, REFRESH) runs and commits in order on the calling
    domain.

    One pool per process, created lazily on the first parallel call and
    reused for every subsequent one — OCaml domains are heavyweight
    (roughly a system thread plus a minor heap), so spawning per call
    would dwarf the kernels it accelerates.  The pool holds
    [size () - 1] worker domains; the calling domain is the remaining
    lane and always participates in the work, so [size ()] is the
    degree of parallelism.

    {2 Determinism}

    Chunk boundaries depend only on [(lo, hi, grain)] — {e never} on
    the pool size — and reductions combine per-chunk partial results in
    ascending chunk order.  A computation therefore produces
    bit-identical results at any pool size (only the scheduling of
    chunks onto domains varies), which is what the parity tests in
    [test/test_par.ml] assert.  Bodies must write disjoint locations
    and must not depend on evaluation order across chunks.

    {2 Sequential fallback}

    One rule decides the path.  A call runs as a plain loop (the same
    chunk layout, for reductions) when it is issued from inside another
    parallel region (no nested parallelism), when the pool size is 1,
    or when its range is at most one grain; otherwise it dispatches.
    Entering a parallel region costs a region lock, an epoch bump and
    (worst case) a condvar wakeup per sleeping worker, so the grain is
    what keeps dispatch off small ranges.

    {2 Oversubscription}

    Workers spin briefly on a new job before blocking, and the caller
    spins briefly on completion before parking.  A pool with more
    lanes than [Domain.recommended_domain_count ()] skips both spins
    and blocks at once: there a spinning lane holds the core that the
    lane it waits for needs. *)

val default_grain : int
(** Indices per chunk when [?grain] is omitted (pixels, for raster
    kernels): 4096 — small enough that a 512x512 image splits into 64
    chunks, large enough that per-chunk overhead is noise. *)

val max_size : int
(** Hard cap on the pool size (8): past that, raster kernels here are
    memory-bandwidth bound and extra domains only add scheduling
    noise. *)

val size : unit -> int
(** Degree of parallelism the next parallel call will use.  Defaults to
    [min max_size (Domain.recommended_domain_count ())], i.e. one
    caller lane plus [recommended - 1] workers; the [GAEA_DOMAINS]
    environment variable overrides the default at startup. *)

val set_size : int -> unit
(** Resize the pool (clamped to [1 .. max_size]).  Shuts the current
    worker domains down and respawns lazily — meant for benchmarks and
    parity tests; production code sets [GAEA_DOMAINS] once.  Called
    from inside a parallel region (where resizing immediately would
    deadlock on the region lock), it only records the request, which
    takes effect when the next region starts. *)

val parallel_for :
  ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~lo ~hi body] runs [body i] for every [lo <= i < hi].
    The body must be safe to run concurrently for distinct [i].
    Exceptions raised by the body are re-raised in the caller (first
    one wins); remaining chunks still run, so the pool stays reusable. *)

val parallel_for_ranges :
  ?grain:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for_ranges ~lo ~hi body] runs [body clo chi] once per
    chunk, [clo] inclusive and [chi] exclusive.  Chunk-level bodies
    avoid a closure call per index on tight pixel loops.  On the
    sequential path the whole range is one call: [body lo hi]. *)

val map_chunks :
  ?grain:int -> lo:int -> hi:int -> (int -> int -> 'a) -> 'a array
(** [map_chunks ~lo ~hi f] computes [f clo chi] for every chunk and
    returns the results in ascending chunk order (deterministic at any
    pool size; the sequential path uses the {e same} chunk layout).
    An empty range yields [||]. *)

val parallel_for_reduce :
  ?grain:int -> lo:int -> hi:int -> init:'a
  -> reduce:('a -> 'a -> 'a) -> (int -> int -> 'a) -> 'a
(** [parallel_for_reduce ~lo ~hi ~init ~reduce map] computes [map clo
    chi] per chunk and folds [reduce] left-to-right over the results —
    i.e. [reduce (... (reduce init r0) ...) rn] — so float
    accumulations associate identically at any pool size. *)

val shutdown : unit -> unit
(** Join the worker domains (the pool respawns lazily if used again).
    Only needed by code that counts live domains. *)
