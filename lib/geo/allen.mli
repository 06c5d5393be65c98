(** Allen's thirteen interval relations (Allen, CACM 1983), cited by the
    paper as the formal semantics for the temporal extent.

    Relations are defined over {e proper} intervals (positive duration). *)

type relation =
  | Before        (** a entirely precedes b, with a gap *)
  | Meets         (** a.stop = b.start *)
  | Overlaps      (** a starts first, they overlap, b ends last *)
  | Starts        (** same start, a ends first *)
  | During        (** a strictly inside b *)
  | Finishes      (** same end, a starts later *)
  | Equal
  | After         (** inverse of Before *)
  | Met_by
  | Overlapped_by
  | Started_by
  | Contains
  | Finished_by

val relate : Interval.t -> Interval.t -> relation
(** The unique relation holding between two proper intervals.
    @raise Invalid_argument if either interval is an instant. *)

val relate_checked : Interval.t -> Interval.t -> (relation, string) result
(** Non-raising variant of {!relate}; the error string is the message
    {!relate} would raise. *)

val inverse : relation -> relation
(** [relate b a = inverse (relate a b)]. *)

val to_string : relation -> string
val equal_relation : relation -> relation -> bool
