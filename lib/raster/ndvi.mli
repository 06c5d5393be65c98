(** NDVI — the normalized difference vegetation index (paper footnote 2:
    "a qualitative measure of vegetation derived from AVHRR satellite
    imagery data"). *)

val ndvi : ?label:string -> red:Image.t -> nir:Image.t -> unit -> Image.t
(** (NIR - RED) / (NIR + RED), in -1..1 (0 where the denominator is 0).
    @raise Invalid_argument on size mismatch. *)

val mean_ndvi : Image.t -> float
(** Average index value, a scene-level vegetation summary. *)
