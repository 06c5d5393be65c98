(** Tuples and tuple descriptors.

    A descriptor is the physical schema of a table: ordered, named,
    typed attributes.  Tuples are checked against it on construction. *)

type descriptor

val descriptor : (string * Gaea_adt.Vtype.t) list -> (descriptor, string) result
(** Errors on duplicate or empty attribute names, or an empty list. *)

val attrs : descriptor -> (string * Gaea_adt.Vtype.t) list
val arity : descriptor -> int
val attr_index : descriptor -> string -> int option
val attr_type : descriptor -> string -> Gaea_adt.Vtype.t option

val attr_name : descriptor -> int -> string
(** The name of the attribute at a position. *)

type t

val of_array : descriptor -> Gaea_adt.Value.t array -> (t, string) result
(** Values in attribute order.  Checks arity and per-attribute types
    ([Any] in the descriptor admits anything; [VInt] is accepted for
    [Float] attributes and widened).  The array becomes the tuple, widened
    in place: the caller must not write to it afterwards. *)

val make : descriptor -> Gaea_adt.Value.t list -> (t, string) result
(** {!of_array} of a list. *)

val get : t -> int -> Gaea_adt.Value.t
(** @raise Invalid_argument out of range. *)

val get_by_name : t -> descriptor -> string -> (Gaea_adt.Value.t, string) result
val values : t -> Gaea_adt.Value.t list

val equal : t -> t -> bool
