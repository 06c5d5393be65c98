(** Combined spatio-temporal extents and the [common] compatibility rules
    used in process TEMPLATE assertions (paper Fig 3:
    [common(bands.spatialextent)], [common(bands.timestamp)]). *)

type t = {
  space : Box.t;
  time : Interval.t;
}

val make : Box.t -> Interval.t -> t

val common_space : Box.t list -> bool
(** Per the paper: "the spatio-temporal extents of the input classes are
    the same or overlap": the boxes pairwise overlap.  Vacuously true on
    the empty list and singletons. *)

val common_time : Interval.t list -> bool
(** The temporal counterpart of {!common_space}. *)
