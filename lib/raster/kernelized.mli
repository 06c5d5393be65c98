(** Closure-free fused raster kernels.

    The generic {!Image.par_map}/{!Image.par_map2} paths pay a closure
    call, a [Pixel.quantize] dispatch and (for pipelines) an
    intermediate image per stage.  The kernels here run the same
    arithmetic as a plain [for] loop over the backing arrays, writing
    [Float8] output directly — and are {e bit-identical} to the generic
    paths, which stay in the library as the reference implementations
    ([test/test_par.ml] asserts parity at pool sizes 1/2/8).

    Reductions chunk deterministically (layout depends only on the
    range and grain) and combine partials in ascending chunk order, so
    every function here returns the same bits at any pool size. *)

val axpy : ?label:string -> a:float -> Image.t -> Image.t -> Image.t
(** [axpy ~a x y] is the image [a*x + y] ([Float8]); with [~a:1.] it is
    bit-identical to [Image.par_map2 ( +. )].
    @raise Invalid_argument on size mismatch. *)

val sub_scale : ?label:string -> s:float -> Image.t -> Image.t -> Image.t
(** [sub_scale ~s x y] is the image [s*(x - y)] ([Float8]); with
    [~s:1.] it is bit-identical to [Image.par_map2 ( -. )].
    @raise Invalid_argument on size mismatch. *)

val normalized_diff : ?label:string -> Image.t -> Image.t -> Image.t
(** [normalized_diff x y] is the image [(x - y) / (x + y)] with [0.]
    where the denominator is zero — NDVI is [normalized_diff nir red].
    Bit-identical to the closure form in {!Ndvi.ndvi}.
    @raise Invalid_argument on size mismatch. *)

val sum : Image.t -> float
(** Chunk-deterministic pixel sum: partial per chunk, combined in
    ascending chunk order — same bits at any pool size, and identical
    to [Image.fold ( +. ) 0.] whenever the image fits one chunk. *)

val mean : Image.t -> float

val mean_var : Image.t -> float * float
(** Mean and sample variance (n-1 denominator; variance 0 below 2
    pixels) in two fused passes over the raw array — no closure per
    pixel, same accumulation association as {!Imgstats} always used. *)

val to_matrix : Composite.t -> Matrix.t
(** Fused composite→matrix: one tight copy loop per pixel row instead
    of a bounds-checked closure per element.  Bit-identical to the
    reference {!Composite.to_matrix}. *)

val of_matrix : nrow:int -> ncol:int -> Matrix.t -> Composite.t
(** Fused matrix→composite of Float8 bands (whose quantization is the
    identity, so values are copied as they are); bit-identical to
    {!Composite.of_matrix} with [Pixel.Float8].
    @raise Invalid_argument if [Matrix.rows m <> nrow*ncol]. *)
