(** Total ordering over the scalar value types — the key order of the
    ordered index and the ORDER BY of the query layer. *)

val orderable : Gaea_adt.Vtype.t -> bool
(** True for int, float, string, bool, abstime. *)

val unordered : int
(** What {!order} gives for a pair it cannot order: [min_int]. *)

val order : Gaea_adt.Value.t -> Gaea_adt.Value.t -> int
(** -1, 0 or 1 for an ordered pair, {!unordered} otherwise; allocates
    nothing. *)

val compare : Gaea_adt.Value.t -> Gaea_adt.Value.t -> (int, string) result
(** Errors on non-orderable or differently-typed operands (ints and
    floats compare numerically with each other). *)

val compare_exn : Gaea_adt.Value.t -> Gaea_adt.Value.t -> int
(** {!order} without the [result]: the key comparison of the ordered
    index.
    @raise Invalid_argument where {!compare} errors. *)
