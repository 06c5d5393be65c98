(** Absolute time — the [abstime] primitive class of the paper.

    A pure (no [Unix] dependency) proleptic-Gregorian timestamp with
    second resolution, represented as seconds relative to the epoch
    1970-01-01T00:00:00.  Supports dates well before 1970 (negative
    values), which matters for historical climate records. *)

type t

val of_seconds : int -> t
val to_seconds : t -> int

val of_ymd : int -> int -> int -> t
(** [of_ymd y m d] is midnight on that civil date.
    @raise Invalid_argument on an invalid civil date. *)

val of_ymd_checked : int -> int -> int -> (t, string) result
(** Non-raising variant of {!of_ymd}; the error string is the message
    {!of_ymd} would raise. *)

val of_ymd_hms : int -> int -> int -> int -> int -> int -> t
(** @raise Invalid_argument on an invalid date or time of day. *)

val of_ymd_hms_checked :
  int -> int -> int -> int -> int -> int -> (t, string) result
(** Non-raising variant of {!of_ymd_hms}. *)

val to_ymd : t -> int * int * int
val to_ymd_hms : t -> (int * int * int) * (int * int * int)

val is_valid_date : int -> int -> int -> bool
val is_leap_year : int -> bool

val days_in_month : int -> int -> int
(** [days_in_month y m].
    @raise Invalid_argument if [m] is outside 1..12 (invariant check —
    callers validate the month with {!is_valid_date} first). *)

val add_days : t -> int -> t
val diff_seconds : t -> t -> int
(** [diff_seconds a b] = a - b in seconds. *)

val diff_days : t -> t -> float

val day_window : t -> t * t
(** [day_window t] is the closed window one day either side of [t]:
    the times a GaeaQL [AT t] matches, in a SELECT and in a DERIVE. *)

val in_day_window : at:t -> t -> bool
(** Whether a time lies in [day_window at]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ISO-8601, e.g. ["1986-01-15T00:00:00"]. *)

val of_string : string -> t option
(** Parses ["YYYY-MM-DD"] or ["YYYY-MM-DDTHH:MM:SS"] (also with a space
    separator). *)
