(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    All synthetic data in the reproduction is generated through this
    module so that every experiment is bit-reproducible from a seed —
    reproducibility of derivations being the paper's central promise. *)

type t

val create : int -> t
(** A generator from a seed. Generators are mutable. *)

val int64 : t -> int64
val bits : t -> int
(** 30 uniform non-negative bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n).  @raise Invalid_argument if n <= 0. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val gaussian : t -> float
(** Standard normal (Box–Muller). *)
