(** The [image] primitive class (paper Section 2.1.3).

    The paper stores images as [(nrows, ncols, pixtype, filepath)] with the
    raster data in an external file; we hold the raster in memory (the
    [filepath] role is played by an optional [label]).  Pixels are stored
    as floats but quantized through the declared {!Pixel.t} on every
    write, so a ["char"] image really behaves like 8-bit data.

    The operators the paper lists on the image ADT ([img_nrow],
    [img_ncol], [img_type], [img_size_eq], ...) appear here under those
    names. *)

type t

val init : ?label:string -> nrow:int -> ncol:int -> Pixel.t
  -> (int -> int -> float) -> t
(** [init ~nrow ~ncol pt f] fills pixel (r,c) with [f r c] (quantized).
    @raise Invalid_argument on non-positive dims, or when [nrow * ncol]
    overflows or exceeds [Sys.max_array_length]. *)

val check_dims : int -> int -> unit
(** The dimension check of {!init}: raises its [Invalid_argument]. *)

val img_nrow : t -> int
val img_ncol : t -> int
val img_type : t -> Pixel.t
val img_label : t -> string
val img_size_eq : t -> t -> bool
val size : t -> int
(** Number of pixels. *)

val get : t -> int -> int -> float
(** @raise Invalid_argument out of bounds. *)

val set : t -> int -> int -> float -> unit
(** Quantizes through the image's pixel type. *)

val get_linear : t -> int -> float

val map : ?label:string -> ?ptype:Pixel.t -> (float -> float) -> t -> t
(** Result pixel type defaults to the argument's. *)

val map2 : ?label:string -> ?ptype:Pixel.t -> (float -> float -> float)
  -> t -> t -> t
(** @raise Invalid_argument if sizes differ. *)

val init_chunks : ?label:string -> nrow:int -> ncol:int
  -> Pixel.t -> (float array -> int -> int -> unit) -> t
(** [init_chunks ~nrow ~ncol pt body] allocates a zero-filled pixel
    array [out] and calls [body out lo hi] once per {!Gaea_par.Pool}
    chunk, to write pixels [lo, hi) (linear indices, row-major).  The
    raster operators of this library are written this way: a flat loop
    per chunk, no closure call and no boxed float per pixel.  Chunks
    run concurrently, so [body] must write only its own range; the
    result is the same at any pool size.  Values are stored {e without}
    quantizing: the caller promises they fit [pt].
    @raise Invalid_argument on the dimensions {!init} rejects. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val iter : (float -> unit) -> t -> unit

val equal : t -> t -> bool
(** Same dims, pixel type and bitwise-equal pixels. *)

val content_hash : t -> int
(** Deterministic hash of dims, type and pixel data — used by the
    reproducibility experiments to compare derivation outputs and as
    the result-cache key, so the loop runs on untagged ints (no boxed
    [Int64] per pixel). *)

val min_max : t -> float * float
(** Smallest and largest non-NaN pixel values; NaN pixels (cloud
    holes) are skipped.  An all-NaN image yields
    [(infinity, neg_infinity)]. *)

val to_list : t -> float list
val of_array : ?label:string -> nrow:int -> ncol:int -> Pixel.t
  -> float array -> t
(** @raise Invalid_argument if the array length is not [nrow*ncol]. *)

val unsafe_data : t -> float array
(** The backing store (shared, not copied).  Mutating it bypasses
    quantization; reserved for operator implementations in this library. *)

val unsafe_of_array : ?label:string -> nrow:int -> ncol:int -> Pixel.t
  -> float array -> t
(** Wrap an array as an image {e without} copying or quantizing — the
    caller promises the values already fit the pixel type.  Reserved
    for the raster kernels in this library that build their pixels
    elsewhere first ({!Synthetic}, {!Kmeans}, {!Maxlike.classify},
    {!Interpolate.fill_missing});
    operators that write a fresh image pixel by pixel use
    {!init_chunks}.
    @raise Invalid_argument if the array length is not [nrow*ncol]. *)
