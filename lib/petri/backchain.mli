(** Goal-directed backward chaining — the paper's query mechanism
    (Section 2.1.6): "given a final marking, try to find the initial
    marking which can lead to this marking.  This initial marking will
    identify the specific data objects that can be retrieved directly
    from the database."

    A {!plan} says, for a goal place, which tokens to retrieve directly
    and which transitions to fire (recursively satisfying their inputs).
    Because Gaea firing never consumes tokens, one satisfaction of a
    transition's inputs supports any number of its firings. *)

type source =
  | Existing of Net.token            (** retrieve this stored object *)
  | Derived of step                  (** fire a transition to produce it *)

and step = {
  transition : Net.transition;
  step_inputs : (Net.place * source list) list;
  (** per input place, the sources satisfying its threshold *)
}

type plan = {
  goal : Net.place;
  sources : source list;             (** one per demanded token *)
}

val search : ?need:int -> Net.t -> Net.tokens -> Net.place -> plan option
(** Minimum-firing-count plan delivering [need] (default 1) tokens at
    the goal place, preferring direct retrieval, or [None] when the goal
    is underivable.  Reads every place's token count once, and at most
    [n] tokens at a place it asks [n] tokens of.  Cycles in the
    derivation net are handled by excluding places already under
    derivation on the current path (so P5-style self-derivations —
    deriving a concept from itself via a sibling class — still work).

    Invariant check: [need >= 1].
    @raise Invalid_argument if [need < 1] — a programming error in the
    caller, not a data-dependent failure, so it is deliberately an
    exception rather than a [Result] (query-layer callers always pass a
    positive demand, validated at parse time). *)

val cost : plan -> int
(** Number of transition firings in the plan. *)

val depth : plan -> int
(** Longest derivation chain (0 for pure retrieval). *)

val retrieved_tokens : plan -> (Net.place * Net.token) list
(** The paper's "initial marking": every stored object the plan
    touches, with the place it is retrieved from (duplicates removed,
    sorted). *)

val execute :
  Net.t -> Marking.t -> plan -> fresh:(unit -> Net.token)
  -> (Marking.t * Net.token list * Net.transition list, string) result
(** Fire the plan bottom-up.  Returns the final marking, the tokens now
    satisfying the goal, and the firing order.  Fails if some firing is
    rejected (e.g. by a guard) — callers fall back to other plans. *)

val pp :
  ?place_name:(Net.place -> string)
  -> ?transition_name:(Net.transition -> string)
  -> Format.formatter -> plan -> unit
