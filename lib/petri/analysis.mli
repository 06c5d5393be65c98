(** Structural analysis of derivation diagrams — supports the browsing
    and comparison uses the paper lists for derivation diagrams
    (Section 5: browse, compare, derive). *)

type report = {
  n_places : int;
  n_transitions : int;
  dead_transitions : Net.transition list;
  (** thresholds can never be met from the given tokens *)
  underivable_places : Net.place list;
  (** no firing sequence can mark them *)
  cyclic : bool;
  (** the class-derivation graph contains a cycle (legal in Gaea —
      e.g. interpolation derives a concept from itself) *)
  max_fan_in : int;   (** largest number of input places of a transition *)
  max_depth : int;    (** longest acyclic derivation chain, in transitions *)
}

val analyze : Net.t -> Net.tokens -> report

val has_cycle : Net.t -> bool

val derivation_depth : Net.t -> int
(** Longest acyclic input→output chain over transitions. *)

val pp_report :
  ?place_name:(Net.place -> string)
  -> ?transition_name:(Net.transition -> string)
  -> Format.formatter -> report -> unit
