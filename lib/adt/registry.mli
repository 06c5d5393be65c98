(** The system-level semantics manager (paper Section 2.1.3 / 2.1.5):
    a catalog of primitive classes and the operators encapsulating
    them.

    "All the primitive classes and their operators are managed in a
    hierarchical structure.  Users can browse the hierarchy, look up
    appropriate operators for specific primitive classes, or find the
    primitive classes that have a specific operator.  Users are allowed
    to define new primitive classes and/or new operators.  This makes
    the Gaea system an extensible system." (Section 4.2) *)

type class_info = {
  cname : string;
  repr : Vtype.t;      (** run-time representation *)
  cdoc : string;
}

type t

val create : unit -> t
(** An empty registry. *)

val with_builtins : unit -> t
(** A registry pre-loaded with Gaea's built-in primitive classes and the
    full operator suite (image operators of Section 2.1.3, the Fig 4 PCA
    network stages and the [pca]/[spca] compound operators, band math,
    classification, interpolation, extent and template operators). *)

val register_class : t -> name:string -> repr:Vtype.t -> ?doc:string -> unit
  -> (unit, string) result
(** Errors on duplicate names.  User classes alias one of the built-in
    run-time representations (the paper's prototype had the same
    restriction: "non-primitive classes can only be composed of
    primitive classes as provided within POSTGRES", Section 4.3). *)

val register_operator : t -> Operator.t -> (unit, string) result
val register_compound : t -> Dataflow.t -> (unit, string) result
(** Package a dataflow network (looked up against this registry) as an
    operator and register it. *)

val find_operator : t -> string -> Operator.t option
val find_compound : t -> string -> Dataflow.t option
(** The network behind a compound operator, if it was registered via
    [register_compound]. *)

val apply : t -> string -> Value.t list -> (Value.t, string) result
(** Look up and apply an operator by name. *)

val arity : t -> string -> [ `Fixed of int | `Variadic ] option
(** How many arguments the named operator takes; [None] if no such
    operator is registered. *)

val operators_for_type : t -> Vtype.t -> Operator.t list
(** Operators accepting the type (directly or as [Setof]) among their
    parameters — the "look up appropriate operators" browse. *)

val classes_with_operator : t -> string -> class_info list
(** Classes whose representation the named operator accepts. *)

val all_operators : t -> Operator.t list
(** Sorted by name. *)

val all_classes : t -> class_info list
val operator_count : t -> int
