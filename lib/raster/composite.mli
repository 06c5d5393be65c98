(** Multi-band composites — the [composite()] operator of process P20
    (paper Fig 3) stacks Landsat TM bands into one multi-band object. *)

type t
(** A stack of equally-sized, same-pixel-type bands. *)

val of_bands : Image.t list -> t
(** @raise Invalid_argument on an empty list or size mismatch. *)

val bands : t -> Image.t list
val band : t -> int -> Image.t
val n_bands : t -> int
val nrow : t -> int
val ncol : t -> int
val n_pixels : t -> int

val pixel_vector : t -> int -> float array
(** Feature vector of pixel [i] (linear index) across all bands. *)

val to_matrix : t -> Matrix.t
(** The [convert-image-matrix] operator of Fig 4: an (n_pixels × n_bands)
    observation matrix, one row per pixel, one column per band. *)

val of_matrix : nrow:int -> ncol:int -> Matrix.t -> t
(** The [convert-matrix-image] operator of Fig 4: rebuild [Float8] band
    images from a pixel-by-band matrix.
    @raise Invalid_argument if [Matrix.rows m <> nrow*ncol]. *)

val equal : t -> t -> bool
val content_hash : t -> int
