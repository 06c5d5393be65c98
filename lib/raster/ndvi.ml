(* Fused (nir - red) / (nir + red); the closure form over par_map2 is
   kept as the reference in the parity tests. *)
let ndvi ?(label = "ndvi") ~red ~nir () =
  Kernelized.normalized_diff ~label nir red

let mean_ndvi = Imgstats.mean
