(** Lineage queries over the object-level derivation graph (tasks).

    This is what the paper's Section 1 scenario needs: two scientists
    store "vegetation change" images derived differently (NDVI
    subtraction vs division) — only the derivation history
    distinguishes them. *)

val ancestors : Kernel.t -> Gaea_storage.Oid.t -> Gaea_storage.Oid.t list
(** Transitive input objects (excluding the object), sorted. *)

val descendants : Kernel.t -> Gaea_storage.Oid.t -> Gaea_storage.Oid.t list
(** Objects (transitively) derived from it. *)

val base_inputs : Kernel.t -> Gaea_storage.Oid.t -> Gaea_storage.Oid.t list
(** The underived (base-data) ancestors — the paper's "initial marking". *)

val derivation_signature : Kernel.t -> Gaea_storage.Oid.t -> string
(** Canonical string of the full derivation (processes, versions,
    parameters, structure — not OIDs), such that two objects derived
    the same way from the same-shaped history get equal signatures. *)

val same_derivation : Kernel.t -> Gaea_storage.Oid.t -> Gaea_storage.Oid.t -> bool

val compare_derivations :
  Kernel.t -> Gaea_storage.Oid.t -> Gaea_storage.Oid.t -> string
(** Human-readable account of how two objects' derivations agree or
    differ (the subtract-vs-divide explanation). *)

val explain : Kernel.t -> Gaea_storage.Oid.t -> string
(** Multi-line rendering of the derivation tree. *)

val verify_task : Kernel.t -> Task.t -> (bool, Gaea_error.t) result
(** Recompute the task and compare every produced attribute with what is
    stored — exact reproducibility ("experiments can be reproduced,
    allowing rapid and reliable confirmation of results"). *)

val verify_object : Kernel.t -> Gaea_storage.Oid.t -> (bool, Gaea_error.t) result
(** [Ok true] for base data (nothing to verify) and for faithfully
    reproducible derived objects. *)

val is_acyclic : Kernel.t -> bool
(** The object-level derivation graph must always be a DAG (objects
    cannot be inputs of their own derivation). *)
