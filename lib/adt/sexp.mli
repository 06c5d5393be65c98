(** Minimal S-expressions — the textual substrate for value
    serialization and store snapshots (no external dependency). *)

type t =
  | Atom of string
  | List of t list

val atom : string -> t
val list : t list -> t

val to_string : t -> string
(** Atoms that contain whitespace, parens, quotes or are empty are
    emitted as double-quoted, escaped strings. *)

val of_string : string -> (t, string) result
(** Parses exactly one S-expression (surrounding whitespace allowed). *)

val of_string_many : string -> (t list, string) result
(** Parses a sequence of S-expressions. *)
