(** Markings: the assignment of tokens (data objects) to places
    (non-primitive classes).  Immutable. *)

type t

val empty : t
val add : t -> Net.place -> Net.token -> t
(** Idempotent: adding a token already present is a no-op. *)

val add_all : t -> Net.place -> Net.token list -> t
val remove : t -> Net.place -> Net.token -> t
val tokens : t -> Net.place -> Net.token list
(** Sorted ascending; empty list for an unmarked place. *)

val count : t -> Net.place -> int
val mem : t -> Net.place -> Net.token -> bool
val is_marked : t -> Net.place -> bool
val places : t -> Net.place list
(** Places holding at least one token, sorted. *)

val total_tokens : t -> int
val union : t -> t -> t
val equal : t -> t -> bool
val of_list : (Net.place * Net.token list) list -> t
val view : t -> Net.tokens
(** The marking as a planning view. *)

val pp : ?place_name:(Net.place -> string) -> Format.formatter -> t -> unit
