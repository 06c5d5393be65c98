(** Non-primitive class definitions (paper Section 2.1.2).

    A non-primitive class has named, typed ATTRIBUTES over primitive
    classes, a SPATIAL EXTENT attribute, a TEMPORAL EXTENT attribute and
    optionally a DERIVED BY process, exactly like the [landcover]
    example:

    {v
    CLASS landcover (
      ATTRIBUTES: area = char16; ref_system = char16; ... data = image;
      SPATIAL EXTENT:  spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: unsupervised-classification )
    v} *)

type attribute = {
  a_name : string;
  a_type : Gaea_adt.Vtype.t;
  a_doc : string;
}

type kind =
  | Base                    (** well-known external data *)
  | Derived of string       (** DERIVED BY: process name *)

type t = private {
  c_name : string;
  attributes : attribute list;   (** includes extent attributes *)
  spatial_attr : string option;  (** name of the box-typed extent attribute *)
  temporal_attr : string option; (** name of the abstime-typed extent attribute *)
  kind : kind;
  c_doc : string;
}

val define :
  name:string
  -> ?doc:string
  -> attributes:(string * Gaea_adt.Vtype.t) list
  -> ?spatial:string
  -> ?temporal:string
  -> ?derived_by:string
  -> unit
  -> (t, Gaea_error.t) result
(** Validates: non-empty name and attribute list, unique attribute
    names, the [spatial] attribute (if given) exists with type [Box],
    the [temporal] attribute exists with type [Abstime].  When
    [spatial]/[temporal] are omitted but an attribute named
    ["spatialextent"] / ["timestamp"] with the right type exists, it is
    picked up automatically (the paper's convention). *)

val is_derived : t -> bool
val derived_by : t -> string option
val attribute : t -> string -> attribute option
val attr_type : t -> string -> Gaea_adt.Vtype.t option
val attr_names : t -> string list

val storage_attrs : t -> (string * Gaea_adt.Vtype.t) list
(** The physical schema for the backing table (attribute order
    preserved). *)

val pp : Format.formatter -> t -> unit
(** Renders in the paper's CLASS syntax. *)
