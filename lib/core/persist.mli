(** Whole-kernel persistence — the data-{e sharing} story of the paper.

    A saved kernel carries everything needed for another scientist to
    re-derive and verify every result: class definitions, the concept
    hierarchy, every process {e version} (templates included — the
    derivation procedures themselves travel with the data), the task
    log, and all stored objects.  The stale set, the reusable tasks,
    the reuse counters and the OID allocator's high-water mark travel
    too, so a loaded kernel reuses, refreshes and allocates as the
    saved one would.  The text format is S-expressions; the
    only thing not carried is the operator registry, which is code
    (both sides must run the same Gaea build — the paper's "processes
    that are not locally available" are listed as future work, and ours
    too). *)

val save : Kernel.t -> string

val load : string -> (Kernel.t, Gaea_error.t) result
(** Rebuilds a fresh kernel (built-in registry) and replays the saved
    metadata and data.  After loading, every saved task must verify:
    [Lineage.verify_object] on any object reproduces it exactly.  A save
    naming what is not there is refused with [Error (Context (section,
    _))] naming the section and the OID: a task input or output that is
    neither stored nor within the saved [(oids N)] (a deleted object's
    lineage stays), a stored object past [(oids N)], a stale mark on no
    stored object, a reusable task not in the log, or an object that two
    different derivations output. *)

val save_to_file : Kernel.t -> string -> (unit, Gaea_error.t) result
(** Atomic: writes and fsyncs [path.<pid>.tmp] beside the target, then
    renames it over the target.  On [Io_error] the target is untouched
    and the temporary file is removed. *)

val load_from_file : string -> (Kernel.t, Gaea_error.t) result
