(** Closed time intervals [\[start, stop\]] over {!Abstime}. *)

type t = private { start : Abstime.t; stop : Abstime.t }

val make : Abstime.t -> Abstime.t -> t
(** @raise Invalid_argument if [stop < start]. *)

val make_checked : Abstime.t -> Abstime.t -> (t, string) result
(** Non-raising variant of {!make}; the error string is the message
    {!make} would raise. *)

val instant : Abstime.t -> t
(** The degenerate interval [\[t, t\]]. *)

val of_ymd_pair : int * int * int -> int * int * int -> t

val start : t -> Abstime.t
val stop : t -> Abstime.t
val is_instant : t -> bool

val contains : t -> Abstime.t -> bool
val overlaps : t -> t -> bool
(** True when the closed intervals share at least one instant. *)

val equal : t -> t -> bool
val to_string : t -> string
