(** Concepts and the high-level semantics layer (paper Section 2.1.1).

    "A concept is simply a set of classes" whose definitions may differ
    between users (DESERT, NDVI, VEGETATION CHANGE...).  Concepts are
    arranged in an ISA specialization hierarchy which "can be a general
    directed acyclic graph" (footnote 4); the leaves map to sets of
    non-primitive classes in the derivation layer (Fig 2's dashed
    lines). *)

type concept = private {
  name : string;
  members : string list;   (** class names, sorted, deduplicated *)
  doc : string;
}

type t
(** A mutable concept hierarchy. *)

val create : unit -> t

val define :
  t -> name:string -> ?doc:string -> ?members:string list -> unit
  -> (concept, Gaea_error.t) result
(** Errors on duplicate concept names. *)

val add_isa : t -> sub:string -> super:string -> (unit, Gaea_error.t) result
(** [sub ISA super].  Errors on unknown concepts, self-loops, duplicate
    edges, or edges that would create a cycle (the hierarchy must stay a
    DAG). *)

val find : t -> string -> concept option
val mem : t -> string -> bool
val all : t -> concept list
(** Sorted by name. *)

val parents : t -> string -> string list
val ancestors : t -> string -> string list
(** Transitive, excluding the concept itself; sorted. *)

val descendants : t -> string -> string list

val classes_of : t -> string -> string list
(** All classes realizing the concept: the union of [members] over the
    concept and its descendants — querying DESERT reaches the classes
    of all desert kinds. *)

val concepts_of_class : t -> string -> string list
(** Concepts (directly) containing the class. *)
