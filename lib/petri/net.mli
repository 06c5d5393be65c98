(** Derivation diagrams as modified Petri nets (paper Section 2.1.6).

    "Every non-primitive class ... corresponds to a place in a PN, and
    every process corresponds to a transition.  Tokens in every place
    represent the data objects needed for the instantiation of a
    process."

    Gaea's three modifications to classical nets are implemented in
    {!Firing}:
    + tokens are {e not} removed when a transition fires;
    + the arc weight is a {e minimum} threshold — more tokens than the
      threshold may be used;
    + transitions carry {e guards} (assertion compatibility between the
      chosen tokens).

    Tokens are abstract integers (the derivation layer passes object
    ids); guards are callbacks over the chosen token binding. *)

type place = int
type transition = int
type token = int

type guard = (place * token list) list -> bool
(** Receives, per input place, the tokens offered to the transition. *)

type transition_info = {
  t_id : transition;
  t_name : string;
  inputs : (place * int) list;   (** (place, minimum token threshold >= 1) *)
  outputs : place list;
  guard : guard option;
}

type frontier = {
  size : int;  (** tokens of the arc's place the transition has not fired on *)
  lowest : int -> token list;  (** [lowest n]: at most [n] of them, ascending *)
}
(** The unfired frontier of a transition with one input arc of
    threshold 1: firing does not consume tokens, so a token the
    transition has fired on yields no new output. *)

type tokens = {
  count : place -> int;  (** tokens the place holds *)
  first : place -> int -> token list;
  (** [first p n]: at most [n] of the place's tokens, ascending *)
  unfired : transition -> frontier option;
  (** the transition's frontier when its firings are recorded per
      input token, [None] to plan its arcs from every stored token *)
}
(** A read-only view of a marking.  Planning asks only how many tokens
    a place holds and for a few of them at the places it visits, so the
    kernel answers from the class tables and its firing records, and
    {!Marking.view} adapts a persistent marking, with no frontiers. *)

type t
(** Places and transitions get ids counting up from 0.  What planning
    reads (names, transitions, per-place producers, acyclicity) is
    compiled into arrays on the first read after the last addition. *)

val create : unit -> t

val add_place : t -> name:string -> place
val add_transition :
  t -> name:string -> inputs:(place * int) list -> outputs:place list
  -> ?guard:guard -> unit -> (transition, string) result
(** Errors if a referenced place is unknown, a threshold is < 1, there
    are no inputs, or no outputs. *)

val place_name : t -> place -> string
(** ["?"] for a place the net does not hold. *)

val find_place : t -> string -> place option
(** The place added under this name (the latest, if several were). *)

val transition_name : t -> transition -> string
val transition_info : t -> transition -> transition_info option
val places : t -> place list
(** Ascending. *)

val transitions : t -> transition_info list
(** By ascending id. *)

val producers_of : t -> place -> transition_info list
(** Transitions with the place among their outputs, by ascending id. *)

val acyclic : t -> bool
(** No cycle in the place graph (an edge from each input place of a
    transition to each of its outputs). *)

val n_places : t -> int
val n_transitions : t -> int
val mem_place : t -> place -> bool
