(** A faithful simulation of the file-based GIS workflow (IDRISI /
    GRASS) that Section 4.1 criticizes — the baseline of experiment E1.

    "A file name is the only identifier for stored data [...] Data
    sharing is almost impossible because there is not enough meta
    information to describe how the data are generated.  (How can one
    deduce it from a file name?)"

    Files are name-addressed images; saving under an existing name
    silently overwrites (shortcoming 1); there is no record of how a
    file was produced, so a scientist who did not personally create a
    file — or forgot its naming convention — must recompute
    (shortcoming 2/3); applying a procedure to many data sets repeats
    the steps manually (shortcoming 4). *)

type t

type stats = {
  mutable computations : int;      (** analysis executions *)
  mutable pixels_computed : int;
  mutable overwrites : int;        (** silent file clobbers *)
  mutable files_saved : int;
  mutable failed_recalls : int;    (** lookups of names nobody remembers *)
}

val create : unit -> t
val stats : t -> stats

val save : t -> name:string -> Gaea_raster.Image.t -> unit
(** Overwrites silently, like a file system. *)

val load : t -> string -> Gaea_raster.Image.t option
val file_count : t -> int

val run_analysis :
  t -> scientist:string -> output:string -> inputs:string list
  -> (Gaea_raster.Image.t list -> Gaea_raster.Image.t)
  -> (Gaea_raster.Image.t, Gaea_error.t) result
(** Execute an analysis exactly as a GIS user would: read the input
    files, run the command, write the output file.  A scientist only
    reuses an existing output if {e they} produced it under that exact
    name before (the per-scientist memory below); otherwise the file's
    provenance is unknowable and the analysis reruns. *)

val remembers : t -> scientist:string -> string -> bool
(** Whether the scientist personally created that file name. *)
