(** Compound operators as dataflow networks (paper Fig 4).

    "Operators can be combined into a self-contained compound operator
    that can be applied as a primitive mapping function between two
    primitive classes" (Section 2.1.5).  A network is a DAG whose nodes
    apply named operators to values flowing from the network inputs,
    constants, or other nodes. *)

type source =
  | From_input of int        (** i-th network input (0-based) *)
  | From_const of Value.t
  | From_node of int         (** output of the node with that id *)

type node = {
  id : int;
  op : string;               (** operator name, resolved at run time *)
  args : source list;
}

type t = private {
  name : string;
  doc : string;
  input_types : Vtype.t list;
  returns : Vtype.t;
  nodes : node list;
  output : source;
}

val make :
  name:string -> ?doc:string -> input_types:Vtype.t list
  -> returns:Vtype.t -> nodes:node list -> source -> (t, string) result
(** The final positional argument is the network output source.
    Validates: node ids unique and non-negative, every [From_node]
    reference resolves, every [From_input] is within range, and the
    graph is acyclic. *)

val node : int -> string -> source list -> node

val to_operator : lookup:(string -> Operator.t option) -> t -> Operator.t
(** Package the network as a single (compound) operator whose
    parameters are the network's input types: {!Operator.apply} checks
    the inputs' arity and types, then the network resolves operator
    names through [lookup] and runs its nodes in topological order. *)

val describe : t -> string
(** Multi-line rendering of the network structure (for browsing /
    reproducing Fig 4 in output). *)
