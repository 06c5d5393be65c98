(** Operators — the functions encapsulating primitive classes
    (paper Section 2.1.3: "functions on primitive classes are called
    operators").

    An operator is applied to a list of values; application type-checks
    the arguments against the declared signature first.  Errors are
    values ([result]), not exceptions. *)

type signature = {
  params : Vtype.t list;       (** fixed leading parameters *)
  variadic : Vtype.t option;   (** if set, any number (>=1) of trailing
                                   arguments of this type is accepted *)
  returns : Vtype.t;
}

type t = private {
  name : string;
  sig_ : signature;
  doc : string;
  impl : Value.t list -> (Value.t, string) result;
}

val make :
  name:string -> ?doc:string -> params:Vtype.t list -> ?variadic:Vtype.t
  -> returns:Vtype.t -> (Value.t list -> (Value.t, string) result) -> t

val name : t -> string
val doc : t -> string
val signature : t -> signature

val check_args : t -> Value.t list -> (unit, string) result
(** Arity and type check against the signature. *)

val apply : t -> Value.t list -> (Value.t, string) result
(** [check_args] then run the implementation; implementation exceptions
    ([Invalid_argument], [Failure], [Out_of_memory]) are converted to
    [Error]. *)

val signature_to_string : signature -> string
val pp : Format.formatter -> t -> unit

(** {2 Lifting helpers} — wrap plain OCaml functions as operators. *)

val lift1 : name:string -> ?doc:string -> Vtype.t -> Vtype.t
  -> (Value.t -> (Value.t, string) result) -> t

val lift2 : name:string -> ?doc:string -> Vtype.t -> Vtype.t -> Vtype.t
  -> (Value.t -> Value.t -> (Value.t, string) result) -> t
