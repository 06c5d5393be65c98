(** Types of the system-level semantics layer.

    Each constructor is a {e primitive class} in the paper's sense: a
    value-identified class encapsulated with operators (Section 2.1.3).
    [Setof] mirrors the [SETOF] argument constructor of process
    definitions (Fig 3: [ARGUMENT (bands SETOF C1)]). *)

type t =
  | Int
  | Float
  | String
  | Bool
  | Image
  | Composite      (** multi-band image stack *)
  | Matrix
  | Vector
  | Box            (** spatial extent *)
  | Abstime        (** absolute time *)
  | Interval       (** time interval *)
  | Setof of t
  | Any            (** wildcard, only meaningful in operator signatures *)

val equal : t -> t -> bool

val matches : expected:t -> actual:t -> bool
(** Signature matching: [Any] matches everything; [Setof a] matches
    [Setof b] when [a] matches [b]; otherwise structural equality. *)

val base : t -> t
(** Strip [Setof] wrappers. *)

val to_string : t -> string
val of_string : string -> t option
