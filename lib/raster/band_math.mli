(** Per-pixel arithmetic between image bands.

    These are the low-level operators behind the paper's motivating
    scenario (Section 1): one scientist {e subtracts} the 1988 NDVI from
    the 1989 NDVI, another {e divides} them — same concept, different
    derivation. *)

val subtract : ?label:string -> Image.t -> Image.t -> Image.t
(** [subtract a b] = a - b, in [Float8].
    @raise Invalid_argument on size mismatch (all operators here). *)

val divide : ?label:string -> Image.t -> Image.t -> Image.t
(** [divide a b] = a / b; pixels where [b] is 0 yield 0. *)

val ratio : ?label:string -> Image.t -> Image.t -> Image.t
(** Normalized ratio (a-b)/(a+b); 0 where the denominator is 0. *)

val add : ?label:string -> Image.t -> Image.t -> Image.t
val multiply : ?label:string -> Image.t -> Image.t -> Image.t
val scale : ?label:string -> float -> Image.t -> Image.t
val offset : ?label:string -> float -> Image.t -> Image.t
val abs_diff : ?label:string -> Image.t -> Image.t -> Image.t

val linear_combination : ?label:string -> float array -> Image.t list
  -> Image.t
(** [linear_combination w imgs] = Σ wᵢ·imgᵢ — the [linear-combination]
    operator of the PCA network (Fig 4).
    @raise Invalid_argument if weights and images differ in number, the
    list is empty, or sizes mismatch. *)

val normalize : ?label:string -> ?lo:float -> ?hi:float -> Image.t -> Image.t
(** Affinely rescale pixel values onto [lo, hi] (default 0..1).
    A constant image maps to [lo]. *)

val threshold : ?label:string -> float -> Image.t -> Image.t
(** Binary mask: 1 where pixel >= threshold else 0 (Char image) — used
    for the rainfall-cutoff desert processes. *)

val threshold_below : ?label:string -> float -> Image.t -> Image.t
(** Binary mask: 1 where pixel < threshold else 0 (Char image, label
    ["threshold-below"]); NaN pixels give 0 in both masks. *)
