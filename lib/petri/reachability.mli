(** Forward reachability over the derivation net.

    Because Gaea firing never consumes tokens, token counts are monotone
    and reachability reduces to a saturating fixpoint over per-place
    counts: a place is {e derivable} when some firing sequence can give
    it at least one token.  Guards are ignored here (they depend on the
    concrete objects); the result is therefore an {e upper bound} that
    {!Backchain} refines into concrete plans. *)

type info = {
  derivable : Net.place -> bool;
  (** place can hold >= 1 token after some firing sequence *)
  potential_count : Net.place -> int;
  (** saturating upper bound on distinct tokens the place can hold
      (existing tokens + one per distinct enabled-producer combination),
      capped at {!cap} *)
  fireable : Net.transition -> bool;
  (** transition's thresholds can eventually be met *)
  iterations : int; (** fixpoint rounds until convergence *)
}

val cap : int
(** Saturation bound for potential counts (1_000_000). *)

val combinations : int -> int -> int
(** [combinations n k] = C(n, k), saturating at {!cap} — the number of
    distinct token combinations a threshold-k arc can draw from n
    tokens. *)

val analyze : Net.t -> Net.tokens -> info
(** Reads each place's token count once, and no token. *)

val closure : Net.t -> Marking.t -> fresh:(unit -> Net.token) -> Marking.t
(** Concretely fire every enabled transition (guards included) until no
    new place becomes marked — each transition fires at most once per
    round and only if it has an unmarked output.  Terminates because the
    marked-place set is monotone and bounded. *)
