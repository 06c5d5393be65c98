(** Exact per-column table statistics, as a diagnostic.  Nothing in the
    library calls this: the optimizer reads the distinct-key count of
    the B-tree it would probe ({!Table.btree_cardinality}) instead of
    scanning the table on every SELECT. *)

type column_stats = {
  attr : string;
  n_distinct : int;
  n_null : int;          (** always 0 today; kept for schema evolution *)
  min_value : Gaea_adt.Value.t option;   (** orderable attributes only *)
  max_value : Gaea_adt.Value.t option;
}

type table_stats = {
  table : string;
  n_rows : int;
  columns : column_stats list;
}

val analyze_table : Table.t -> table_stats
(** Exact single-pass statistics (the store is in-memory; sampling would
    buy nothing). *)

val selectivity_eq : table_stats -> string -> float
(** Estimated fraction of rows matching an equality predicate:
    [1 / n_distinct], defaulting to 0.1 for unknown attributes. *)

val pp : Format.formatter -> table_stats -> unit
