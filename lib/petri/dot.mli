(** Graphviz export of derivation diagrams — the "browse data following
    their derivation relationships" use (paper Section 5). *)

val to_dot :
  ?name:string
  -> ?tokens:Net.tokens
  -> Net.t -> string
(** Places as circles (doubled when marked), transitions as boxes, arc
    thresholds > 1 as edge labels. *)
