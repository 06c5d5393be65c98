type scene = {
  composite : Composite.t;
  truth : Image.t;
  extent : Gaea_geo.Extent.t;
}

(* Hash-based lattice gradient so noise is a pure function of
   (seed, octave, cell) — no dependence on evaluation order.  Let-bound
   [Int64] values stay unboxed. *)
let[@inline] lattice_value seed octave gx gy =
  let h = Int64.of_int ((seed * 0x9E3779B1) lxor octave) in
  let h = Int64.mul (Int64.logxor h (Int64.of_int (gx * 2654435761))) 0x100000001B3L in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul (Int64.logxor h (Int64.of_int (gy * 40503))) 0x100000001B3L in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  Int64.to_float (Int64.logand h 0xFFFFFFL) /. 16777215.

let smoothstep t = t *. t *. (3. -. (2. *. t))

(* Per-axis interpolation tables of one octave: for each coordinate
   [x], its lattice cell [x0] and smoothed offset [d] — computed with
   the same float operations a per-pixel evaluation would use. *)
let axis_table n cell =
  let x0s = Array.make n 0 and ds = Array.make n 0. in
  for x = 0 to n - 1 do
    let fx = float_of_int x /. float_of_int cell in
    let x0 = int_of_float (Float.floor fx) in
    x0s.(x) <- x0;
    ds.(x) <- smoothstep (fx -. float_of_int x0)
  done;
  (x0s, ds)

(* Value noise, octave by octave: each octave hashes its lattice
   corners once into a flat table, then adds its weighted bilinear
   sample into the pixel's accumulator, so every pixel sees the same
   float operations in the same order (from 0., octave 0 first) as a
   per-pixel sum.  The last pass is [scale *. (acc /. total_weight)];
   multiplying by the default 1. changes no bit. *)
let value_noise ~seed ~nrow ~ncol ?(octaves = 3) ?(lattice = 16)
    ?(label = "value-noise") ?(scale = 1.) () =
  if octaves < 1 then invalid_arg "Synthetic.value_noise: octaves < 1";
  if lattice < 1 then invalid_arg "Synthetic.value_noise: lattice < 1";
  Image.check_dims nrow ncol;
  let total_weight = ref 0. and weights = Array.make octaves 0. in
  for o = 0 to octaves - 1 do
    weights.(o) <- 1. /. float_of_int (1 lsl o);
    total_weight := !total_weight +. weights.(o)
  done;
  let acc = Array.make (nrow * ncol) 0. in
  for o = 0 to octaves - 1 do
    let cell = Stdlib.max 1 (lattice lsr o) and w = weights.(o) in
    let r0s, drs = axis_table nrow cell and c0s, dcs = axis_table ncol cell in
    (* corners (c0 .. c0 + 1, r0 .. r0 + 1) of every pixel *)
    let lr = ((nrow - 1) / cell) + 2 and lc = ((ncol - 1) / cell) + 2 in
    let corners = Array.make (lr * lc) 0. in
    for gy = 0 to lr - 1 do
      for gx = 0 to lc - 1 do
        corners.((gy * lc) + gx) <- lattice_value seed o gx gy
      done
    done;
    for r = 0 to nrow - 1 do
      let dr = drs.(r) in
      let top = r0s.(r) * lc and row = r * ncol in
      let bottom = top + lc in
      for c = 0 to ncol - 1 do
        let c0 = c0s.(c) and dc = dcs.(c) in
        let v00 = corners.(top + c0) and v01 = corners.(top + c0 + 1)
        and v10 = corners.(bottom + c0) and v11 = corners.(bottom + c0 + 1) in
        let s =
          ((v00 *. (1. -. dc)) +. (v01 *. dc)) *. (1. -. dr)
          +. (((v10 *. (1. -. dc)) +. (v11 *. dc)) *. dr)
        in
        acc.(row + c) <- acc.(row + c) +. (w *. s)
      done
    done
  done;
  let tw = !total_weight in
  for i = 0 to Array.length acc - 1 do
    acc.(i) <- scale *. (acc.(i) /. tw)
  done;
  Image.unsafe_of_array ~label ~nrow ~ncol Pixel.Float8 acc

let landcover_truth ~seed ~nrow ~ncol ~classes =
  if classes < 1 then invalid_arg "Synthetic.landcover_truth: classes < 1";
  let field = value_noise ~seed ~nrow ~ncol ~octaves:3 ~lattice:(Stdlib.max 4 (nrow / 4)) () in
  let lo, hi = Image.min_max field in
  let span = if hi > lo then hi -. lo else 1. in
  (* the field is ours: overwrite it with the labels *)
  let data = Image.unsafe_data field in
  for i = 0 to Array.length data - 1 do
    let v = (data.(i) -. lo) /. span in
    let k = int_of_float (v *. float_of_int classes) in
    data.(i) <-
      Pixel.quantize Pixel.Int4
        (float_of_int (Stdlib.min (classes - 1) (Stdlib.max 0 k)))
  done;
  Image.unsafe_of_array ~label:"truth" ~nrow ~ncol Pixel.Int4 data

let default_extent =
  lazy
    (Gaea_geo.Extent.make
       (Gaea_geo.Box.make ~xmin:(-10.) ~ymin:10. ~xmax:30. ~ymax:35.)
       (Gaea_geo.Interval.of_ymd_pair (1986, 1, 1) (1986, 1, 31)))

(* Class spectral signatures: deterministic per (seed, class, band),
   spread over the 0..255 digital-count range. *)
let signature seed cls band =
  40. +. (lattice_value seed (1000 + band) cls (cls * 7 + band)) *. 175.

(* The generators below fill flat arrays in row-major pixel order,
   drawing their [Rng] once per pixel in that order. *)

let landsat_scene ~seed ~nrow ~ncol ?(bands = 3) ?(classes = 5)
    ?(noise = 8.0) ?extent () =
  if bands < 1 then invalid_arg "Synthetic.landsat_scene: bands < 1";
  let truth = landcover_truth ~seed ~nrow ~ncol ~classes in
  let labels = Image.unsafe_data truth in
  let rng = Rng.create (seed lxor 0x5eed) in
  let band_imgs =
    List.init bands (fun b ->
        let data =
          Image.unsafe_data
            (value_noise ~seed:(seed + 7919 * (b + 1)) ~nrow ~ncol ~octaves:2
               ~lattice:8 ())
        in
        for i = 0 to Array.length data - 1 do
          let cls = int_of_float labels.(i) in
          data.(i) <-
            Pixel.quantize Pixel.Char
              (signature seed cls b
              +. ((data.(i) -. 0.5) *. 2. *. noise)
              +. (Rng.gaussian rng *. noise *. 0.5))
        done;
        Image.unsafe_of_array ~label:(Printf.sprintf "band-%d" (b + 1)) ~nrow
          ~ncol Pixel.Char data)
  in
  let extent = Option.value extent ~default:(Lazy.force default_extent) in
  { composite = Composite.of_bands band_imgs; truth; extent }

let red_nir_pair ~seed ~nrow ~ncol ?(vegetation_shift = 0.) () =
  let veg = Image.unsafe_data (value_noise ~seed ~nrow ~ncol ~octaves:3 ~lattice:12 ()) in
  let n = Array.length veg in
  let vigor i = Float.max 0. (Float.min 1. (veg.(i) +. vegetation_shift)) in
  let red = Array.make n 0. and nir = Array.make n 0. in
  let rng = Rng.create (seed lxor 0xced) in
  for i = 0 to n - 1 do
    (* more vegetation -> lower red reflectance *)
    red.(i) <-
      Pixel.quantize Pixel.Char
        (30. +. ((1. -. vigor i) *. 150.) +. (Rng.gaussian rng *. 3.))
  done;
  let rng = Rng.create (seed lxor 0x21b) in
  for i = 0 to n - 1 do
    (* more vegetation -> higher NIR reflectance *)
    nir.(i) <-
      Pixel.quantize Pixel.Char (40. +. (vigor i *. 180.) +. (Rng.gaussian rng *. 3.))
  done;
  ( Image.unsafe_of_array ~label:"red" ~nrow ~ncol Pixel.Char red,
    Image.unsafe_of_array ~label:"nir" ~nrow ~ncol Pixel.Char nir )

let rainfall_map ~seed ~nrow ~ncol ?(max_mm = 600.) () =
  let data = Image.unsafe_data (value_noise ~seed ~nrow ~ncol ~octaves:4 ~lattice:24 ()) in
  for i = 0 to Array.length data - 1 do
    data.(i) <- Pixel.quantize Pixel.Float4 (data.(i) *. max_mm)
  done;
  Image.unsafe_of_array ~label:"rainfall-mm" ~nrow ~ncol Pixel.Float4 data
