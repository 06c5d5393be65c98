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

    Expressions are evaluated against a binding of the process's
    arguments and its parameters, applying operators from the
    system-level registry.  A [SETOF] argument's attribute reference
    yields a [VSet]; passing a set to a {e variadic} operator splices it
    into individual arguments (so [composite(bands)] works as in the
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

(** {1 Compiled templates}

    A template is compiled once per process version against its scope
    (the process's arguments and their classes' tuple layouts), its
    parameters and the operator registry: each [arg.attr] becomes an
    argument slot and a column position, each operator is resolved and
    knows whether it is variadic, each parameter is a constant.  A name
    that does not resolve compiles to the error reading it would give,
    raised when (and only when) evaluation reaches it, so a compiled
    template fails where and as the definition says. *)

type scope_arg = {
  arg : string;
  cls : string option;
  (** the declared class; [None] for a name the process does not
      declare, whose every read is a bad argument reference *)
  table : Gaea_storage.Table.t option;  (** the class's table, if defined *)
  spatial : string option;  (** the class's spatial-extent attribute *)
  temporal : string option;  (** the class's temporal-extent attribute *)
}

type program

val compile :
  Gaea_adt.Registry.t -> scope:scope_arg list
  -> params:(string * Gaea_adt.Value.t) list -> t -> program

val complete : program -> bool
(** Every operator and every declared class resolved: the program
    reads exactly as a later compilation would. *)

val targets : program -> string array
(** The mapping targets, in mapping order. *)

val layout :
  program -> Gaea_storage.Tuple.descriptor
  -> int array * string list * string list
(** Against the output class's tuple layout: per attribute the first
    mapping that targets it ([-1] for none), the attributes no mapping
    targets, and the targets that are no attribute, in order. *)

val bind :
  program -> (string * Gaea_storage.Oid.t list) list
  -> Gaea_storage.Oid.t list option array
(** A binding by slot. *)

val check :
  program -> Gaea_storage.Oid.t list option array -> (unit, Gaea_error.t) result
(** The assertions, in order: [Error] describes which guard failed and
    why. *)

val run :
  program -> Gaea_storage.Oid.t list option array
  -> (Gaea_adt.Value.t array, Gaea_error.t) result
(** The mappings' values, in mapping order; an error is wrapped in the
    context of the mapping it came from. *)

val eval_closed :
  Gaea_adt.Registry.t -> expr -> (Gaea_adt.Value.t, Gaea_error.t) result
(** An expression compiled against the empty scope and evaluated: no
    argument and no parameter is bound. *)

val expr_to_string : expr -> string
val assertion_to_string : assertion -> string
val pp : output_class:string -> Format.formatter -> t -> unit
(** Renders in the paper's TEMPLATE syntax. *)

val free_params : t -> string list
(** Parameter names referenced anywhere, sorted, deduplicated. *)

val referenced_args : t -> string list
(** Argument names referenced anywhere. *)
