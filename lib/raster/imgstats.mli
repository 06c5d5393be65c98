(** Descriptive statistics over images and composites. *)

val mean : Image.t -> float
val variance : Image.t -> float
(** Sample variance (n-1 denominator); 0 for a single-pixel image. *)

val stddev : Image.t -> float
val sum : Image.t -> float

val rmse : Image.t -> Image.t -> float
(** Root-mean-square difference. @raise Invalid_argument on size mismatch. *)

val agreement : Image.t -> Image.t -> float
(** Fraction of pixels with identical labels. *)
