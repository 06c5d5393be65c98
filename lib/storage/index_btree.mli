(** Ordered index for range retrieval ("inadequacy for range retrieval"
    is one of the paper's complaints about file-based GIS, Section 4.1).
    Keys must be {!Vorder.orderable} values of a single type. *)

type t

val create : Gaea_adt.Vtype.t -> (t, string) result
(** Errors on a non-orderable key type. *)

val add : t -> Gaea_adt.Value.t -> Oid.t -> (unit, string) result
(** Errors on a key of the wrong type. *)

val remove : t -> Gaea_adt.Value.t -> Oid.t -> unit
val find : t -> Gaea_adt.Value.t -> Oid.t list
(** A key not comparable with the index's key type finds nothing. *)

val fold_range :
  t -> ?lo:Gaea_adt.Value.t -> ?hi:Gaea_adt.Value.t -> init:'a
  -> ('a -> Oid.t -> 'a) -> 'a
(** Folds over the OIDs with key in the closed range [lo, hi]; missing
    bounds are unbounded.  Ascending key order, then ascending OID.
    Visits only the keys from [lo] on, stopping past [hi]; a bound not
    comparable with the key type visits nothing. *)

val range :
  t -> ?lo:Gaea_adt.Value.t -> ?hi:Gaea_adt.Value.t -> unit -> Oid.t list
(** The OIDs {!fold_range} visits, in its order. *)

val cardinality : t -> int
(** Distinct keys, kept as a counter: constant time. *)
