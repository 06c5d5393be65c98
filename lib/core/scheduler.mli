(** The one scheduler for derivation DAGs: evaluate pure work on the
    domain pool, commit in a fixed order on the calling domain.

    Compound expansion ({!Deriver.execute_process}) and REFRESH
    ({!Deriver.refresh}) build a DAG and hand it to {!run}.  Nodes
    arrive in commit order; each names the earlier nodes it reads, may
    offer a pure evaluation, and has a commit.  [run] holds the only
    copy of these rules:

    - {b Look-ahead batch.}  Before committing node [i], if [i] is not
      yet evaluated, every unevaluated node whose dependencies have all
      committed is asked for its evaluation.  When at least two offer
      one, at least {!Gaea_par.Pool.size} of them, and the pool is not
      pinned sequential, they run together on
      {!Gaea_par.Pool.parallel_batch}.  Otherwise nothing runs ahead
      and [i] evaluates inline when its commit asks.
    - {b Ordered commit.}  Commits run strictly in array order.
    - {b Exceptions.}  An evaluation's exception is re-raised at its
      node's commit turn, when the commit asks for the value.
    - {b Poisoning.}  A node with a failed or poisoned dependency is
      never evaluated or committed.

    Evaluations only read committed state and commits run in order, so
    oids, task ids and the event log are the same at any pool size. *)

type ('v, 'e) node = {
  deps : int list;
      (** indices of earlier nodes whose commits this node reads *)
  eval : unit -> (unit -> 'v) option;
      (** asked once [deps] have committed: the node's pure evaluation,
          safe to run on any domain, or [None] if it offers none now *)
  commit : (unit -> 'v) -> (unit, 'e) result;
      (** called in order with a getter for the evaluation (evaluating
          inline if the look-ahead did not, re-raising the
          evaluation's exception).  [Error] marks the node failed and
          poisons its dependents; an exception ends the run. *)
}

type 'e status = Committed | Failed of 'e | Poisoned

val run : ('v, 'e) node array -> 'e status array
(** Run every node in order and report how each ended.
    @raise Invalid_argument if a dependency is not an earlier node. *)
