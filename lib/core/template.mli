(** Process TEMPLATEs: ASSERTIONS and MAPPINGS (paper Fig 3).

    {v
    TEMPLATE {
      ASSERTIONS:
        card ( bands ) = 3;
        common ( bands.spatialextent );
        common ( bands.timestamp );
      MAPPINGS:
        C20.data = unsuperclassify ( composite ( bands ), 12 );
        C20.numclass = 12;
        C20.spatialextent = ANYOF bands.spatialextent;
        C20.timestamp = ANYOF bands.timestamp;
    }
    v}

    Expressions are evaluated against an {!env} of argument bindings and
    process parameters, applying operators from the system-level
    registry.  A [SETOF] argument's attribute reference yields a
    [VSet]; passing a set to a {e variadic} operator splices it into
    individual arguments (so [composite(bands)] works as in the
    paper). *)

type expr =
  | Const of Gaea_adt.Value.t
  | Attr_of of string * string   (** [arg.attr] *)
  | Param of string              (** process parameter, bound per task *)
  | Anyof of expr                (** ANYOF set — an arbitrary element *)
  | Apply of string * expr list  (** operator application *)

type assertion =
  | Expr_true of expr            (** must evaluate to [VBool true] *)
  | Common of string * string    (** common(arg.attr): [attr] must be
                                     the spatial or the temporal extent
                                     of the argument's class *)
  | Card_eq of string * int      (** card(arg) = n *)
  | Card_ge of string * int      (** card(arg) >= n *)

type mapping = {
  target : string;               (** output-class attribute *)
  rhs : expr;
}

type t = {
  assertions : assertion list;
  mappings : mapping list;
}

val make : assertions:assertion list -> mappings:mapping list -> t

(** Evaluation environment, supplied by the kernel. *)
type env = {
  arg_objects : string -> Gaea_adt.Value.t list option;
  (** objects bound to an argument: singleton for scalar args, any
      number for SETOF args; the values are the objects' attribute
      tuples rendered per attribute via [attr_value] *)
  attr_value : string -> int -> string -> (Gaea_adt.Value.t, Gaea_error.t) result;
  (** [attr_value arg i attr]: attribute of the i-th object of [arg] *)
  spatial_attr : string -> string option;
  (** spatial-extent attribute name of the argument's class *)
  temporal_attr : string -> string option;
  param : string -> Gaea_adt.Value.t option;
  apply : string -> Gaea_adt.Value.t list -> (Gaea_adt.Value.t, Gaea_error.t) result;
  (** operator application through the registry *)
  arity : string -> [ `Fixed of int | `Variadic ] option;
  (** operator arity, for set splicing *)
}

val eval : env -> expr -> (Gaea_adt.Value.t, Gaea_error.t) result

val check_assertion : env -> assertion -> (unit, Gaea_error.t) result
(** [Error] describes which guard failed and why. *)

val check_assertions : env -> t -> (unit, Gaea_error.t) result
val eval_mappings : env -> t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result

val expr_to_string : expr -> string
val assertion_to_string : assertion -> string
val pp : output_class:string -> Format.formatter -> t -> unit
(** Renders in the paper's TEMPLATE syntax. *)

val free_params : t -> string list
(** Parameter names referenced anywhere, sorted, deduplicated. *)

val referenced_args : t -> string list
(** Argument names referenced anywhere. *)
