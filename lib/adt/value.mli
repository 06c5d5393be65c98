(** Dynamic values of the system-level layer.

    Objects of primitive classes are {e value identified} (paper
    Section 2.1.3): "the object identifier for a data object is its
    value; changing the value of an object in a primitive class will
    always lead to another object".  Accordingly values here are
    immutable from the layer's point of view and compared / hashed by
    content. *)

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VImage of Gaea_raster.Image.t
  | VComposite of Gaea_raster.Composite.t
  | VMatrix of Gaea_raster.Matrix.t
  | VVector of float array
  | VBox of Gaea_geo.Box.t
  | VAbstime of Gaea_geo.Abstime.t
  | VInterval of Gaea_geo.Interval.t
  | VSet of t list

val type_of : t -> Vtype.t
(** [VSet []] has type [Setof Any]; a non-empty set takes the type of
    its first element. *)

val equal : t -> t -> bool
val content_hash : t -> int
(** Deterministic content hash (stable across runs), finished with an
    avalanche step so that its low bits vary even for integral floats,
    whole-day timestamps and images of integral pixels. *)

(** Constructors and checked accessors. *)

val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t
val image : Gaea_raster.Image.t -> t
val composite : Gaea_raster.Composite.t -> t
val matrix : Gaea_raster.Matrix.t -> t
val vector : float array -> t
val box : Gaea_geo.Box.t -> t
val abstime : Gaea_geo.Abstime.t -> t
val interval : Gaea_geo.Interval.t -> t
val set : t list -> t

val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
(** Accepts [VInt] too (numeric widening). *)

val to_bool : t -> (bool, string) result
val to_image : t -> (Gaea_raster.Image.t, string) result
val to_composite : t -> (Gaea_raster.Composite.t, string) result
val to_matrix : t -> (Gaea_raster.Matrix.t, string) result
val to_vector : t -> (float array, string) result
val to_box : t -> (Gaea_geo.Box.t, string) result
val to_abstime : t -> (Gaea_geo.Abstime.t, string) result
val to_interval : t -> (Gaea_geo.Interval.t, string) result
val to_set : t -> (t list, string) result

val to_display : t -> string
(** Human-readable rendering (images/matrices summarized). *)

val to_sexp : t -> Sexp.t
(** The textual encoding, as an S-expression that a caller embeds in a
    larger one.  Images and composites are encoded in full (dims, type,
    pixels); floats as hex literals, so they round-trip exactly. *)

val of_sexp : Sexp.t -> (t, string) result
(** Inverse of {!to_sexp}. *)
