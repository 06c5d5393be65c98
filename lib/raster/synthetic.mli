(** Synthetic remote-sensing scenes.

    The paper's substrate is real Landsat TM / AVHRR imagery, which we do
    not have; per DESIGN.md we substitute deterministic generated scenes
    that preserve the properties the derivation machinery exercises:
    spatially-correlated multi-band structure (so classification finds
    real clusters), distinct land-cover regions, inter-year drift (so
    change detection has signal), and seeded reproducibility (so repeated
    tasks give identical outputs). *)

type scene = {
  composite : Composite.t;     (** the band stack *)
  truth : Image.t;             (** ground-truth land-cover labels *)
  extent : Gaea_geo.Extent.t;
}

val value_noise : seed:int -> nrow:int -> ncol:int -> ?octaves:int
  -> ?lattice:int -> ?label:string -> ?scale:float -> unit -> Image.t
(** Smooth spatially-correlated noise in 0..1 (bilinear value noise with
    [octaves] layers over a coarse lattice of initial cell size
    [lattice], halved per octave), a Float8 image labelled [label]
    (default ["value-noise"]), each pixel multiplied by [scale]
    (default 1.).
    @raise Invalid_argument if [octaves < 1], [lattice < 1], or on
    the dimensions {!Image.init} rejects. *)

val landcover_truth : seed:int -> nrow:int -> ncol:int -> classes:int
  -> Image.t
(** A label image with [classes] spatially-coherent regions. *)

val landsat_scene :
  seed:int -> nrow:int -> ncol:int -> ?bands:int -> ?classes:int
  -> ?noise:float -> ?extent:Gaea_geo.Extent.t -> unit -> scene
(** A multi-band scene whose band values are class-dependent signatures
    plus correlated noise — the stand-in for "rectified Landsat TM".
    Defaults: 3 bands, 5 classes, noise 8.0 (digital counts 0..255,
    Char bands). *)

val red_nir_pair :
  seed:int -> nrow:int -> ncol:int -> ?vegetation_shift:float -> unit
  -> Image.t * Image.t
(** (red, nir) band pair for NDVI work.  [vegetation_shift] (default 0)
    moves vegetation vigor up/down — generate 1988 with 0 and 1989 with
    a positive shift to simulate greening. *)

val rainfall_map : seed:int -> nrow:int -> ncol:int -> ?max_mm:float
  -> unit -> Image.t
(** Annual precipitation in mm (smooth field, 0..max_mm, default
    600 mm) — input to the desert-classification processes. *)
