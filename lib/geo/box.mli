(** Two-dimensional axis-aligned bounding boxes — the [box] primitive
    class used for the SPATIAL EXTENT of Gaea classes. *)

type t = private { xmin : float; ymin : float; xmax : float; ymax : float }

val make : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t
(** @raise Invalid_argument if [xmax < xmin] or [ymax < ymin], or any
    coordinate is not finite. *)

val make_checked :
  xmin:float -> ymin:float -> xmax:float -> ymax:float -> (t, string) result
(** Non-raising variant of {!make}; the error string is the message
    {!make} would raise. *)

val xmin : t -> float
val ymin : t -> float
val xmax : t -> float
val ymax : t -> float
val width : t -> float
val height : t -> float
val area : t -> float

val contains : outer:t -> inner:t -> bool
val overlaps : t -> t -> bool
(** Closed-box overlap: touching edges count. *)

val intersection : t -> t -> t option
val hull : t -> t -> t
val equal : t -> t -> bool
val to_string : t -> string
