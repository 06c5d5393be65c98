(** Unsupervised classification — the [unsuperclassify()] operator used
    by process P20 (paper Fig 3) to derive LAND_COVER from Landsat TM
    bands.

    Deterministic k-means over per-pixel band vectors: seeded k-means++
    initialization, Lloyd iterations to convergence, stable relabeling of
    clusters (sorted by centroid) so the same inputs always yield the
    same class image.  The assignment step skips a point's distances
    when Hamerly's bounds prove it keeps its label, skips a point
    without reading its bounds while per-centroid drift ledgers show
    they still hold, and skips a centroid in a point's scan when
    Elkan's pairwise bound proves it farther; the first step's
    assignment comes from the seeding pass.  The labels, centroids,
    iteration count and inertia are bit for bit those of plain Lloyd
    (ties to the lowest centroid index), at any pool size. *)

type result = {
  labels : Image.t;            (** Int4 label image, values in 0..k-1 *)
  centroids : float array array; (** k centroids of dimension n_bands *)
  iterations : int;            (** Lloyd iterations performed *)
  inertia : float;             (** sum of squared distances to assigned centroid *)
  distances : int;
  (** point-to-centroid distances the assignment steps computed; plain
      Lloyd computes [iterations * n_pixels * k].  The k-means++
      seeding computes the first step's distances, which count 0 here. *)
  incremental : bool;
  (** the update steps after the first kept the centroid sums and
      applied only the moved pixels' deltas: chosen when every band
      value is an integer and [max |v| * n_pixels < 2^53], where the
      float sums are exact in any order; otherwise every update step
      summed all pixels in pool-chunk order.  The results are the same
      bits either way. *)
}

val unsuperclassify : ?seed:int -> ?max_iter:int -> Composite.t -> int
  -> result
(** [unsuperclassify composite k] groups pixels into [k] classes.
    @raise Invalid_argument if [k < 1] or [k] exceeds the pixel count. *)
