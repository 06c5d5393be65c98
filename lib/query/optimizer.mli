(** Access-path and materialization planning. *)

val plan_select :
  Gaea_core.Kernel.t -> Ast.select -> (Plan.select_plan, Gaea_core.Gaea_error.t) result
(** Resolves the source (class name, or concept name expanding to its
    classes), picks the cheapest access path among the B-tree and window
    indexes of the first class and leaves the remaining predicates
    residual.  An
    equality probe's selectivity is one over its B-tree's distinct keys;
    planning never scans the table. *)

val plan_materialize :
  Gaea_core.Kernel.t -> ?need:int -> ?at:Gaea_geo.Abstime.t -> string
  -> Plan.materialize_plan
(** What DERIVE would do for the class: stored objects, interpolation
    (only when [at] is given and two snapshots bracket it), or a
    backward-chaining derivation (cost and depth from the net), in the
    paper's priority order. *)
