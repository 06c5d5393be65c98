(* NDVI is the normalized ratio (nir - red) / (nir + red) *)
let ndvi ?(label = "ndvi") ~red ~nir () = Band_math.ratio ~label nir red

let mean_ndvi = Imgstats.mean
