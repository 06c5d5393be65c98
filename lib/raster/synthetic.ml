type scene = {
  composite : Composite.t;
  truth : Image.t;
  extent : Gaea_geo.Extent.t;
}

(* Hash-based lattice gradient so noise is a pure function of
   (seed, octave, cell) — no dependence on evaluation order. *)
let lattice_value seed octave gx gy =
  let h = ref (Int64.of_int ((seed * 0x9E3779B1) lxor octave)) in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001B3L;
    h := Int64.logxor !h (Int64.shift_right_logical !h 29)
  in
  mix (gx * 2654435761);
  mix (gy * 40503);
  Int64.to_float (Int64.logand !h 0xFFFFFFL) /. 16777215.

let smoothstep t = t *. t *. (3. -. (2. *. t))

let value_noise ~seed ~nrow ~ncol ?(octaves = 3) ?(lattice = 16) () =
  if octaves < 1 then invalid_arg "Synthetic.value_noise: octaves < 1";
  if lattice < 1 then invalid_arg "Synthetic.value_noise: lattice < 1";
  let sample octave cell r c =
    let fr = float_of_int r /. float_of_int cell
    and fc = float_of_int c /. float_of_int cell in
    let r0 = int_of_float (Float.floor fr)
    and c0 = int_of_float (Float.floor fc) in
    let dr = smoothstep (fr -. float_of_int r0)
    and dc = smoothstep (fc -. float_of_int c0) in
    let v00 = lattice_value seed octave c0 r0
    and v01 = lattice_value seed octave (c0 + 1) r0
    and v10 = lattice_value seed octave c0 (r0 + 1)
    and v11 = lattice_value seed octave (c0 + 1) (r0 + 1) in
    ((v00 *. (1. -. dc)) +. (v01 *. dc)) *. (1. -. dr)
    +. (((v10 *. (1. -. dc)) +. (v11 *. dc)) *. dr)
  in
  let total_weight = ref 0. and weights = Array.make octaves 0. in
  for o = 0 to octaves - 1 do
    weights.(o) <- 1. /. float_of_int (1 lsl o);
    total_weight := !total_weight +. weights.(o)
  done;
  Image.init ~label:"value-noise" ~nrow ~ncol Pixel.Float8 (fun r c ->
      let acc = ref 0. in
      for o = 0 to octaves - 1 do
        let cell = Stdlib.max 1 (lattice lsr o) in
        acc := !acc +. (weights.(o) *. sample o cell r c)
      done;
      !acc /. !total_weight)

let landcover_truth ~seed ~nrow ~ncol ~classes =
  if classes < 1 then invalid_arg "Synthetic.landcover_truth: classes < 1";
  let field = value_noise ~seed ~nrow ~ncol ~octaves:3 ~lattice:(Stdlib.max 4 (nrow / 4)) () in
  let lo, hi = Image.min_max field in
  let span = if hi > lo then hi -. lo else 1. in
  Image.init ~label:"truth" ~nrow ~ncol Pixel.Int4 (fun r c ->
      let v = (Image.get field r c -. lo) /. span in
      let k = int_of_float (v *. float_of_int classes) in
      float_of_int (Stdlib.min (classes - 1) (Stdlib.max 0 k)))

let default_extent =
  lazy
    (Gaea_geo.Extent.make
       (Gaea_geo.Box.make ~xmin:(-10.) ~ymin:10. ~xmax:30. ~ymax:35.)
       (Gaea_geo.Interval.of_ymd_pair (1986, 1, 1) (1986, 1, 31)))

(* Class spectral signatures: deterministic per (seed, class, band),
   spread over the 0..255 digital-count range. *)
let signature seed cls band =
  40. +. (lattice_value seed (1000 + band) cls (cls * 7 + band)) *. 175.

let landsat_scene ~seed ~nrow ~ncol ?(bands = 3) ?(classes = 5)
    ?(noise = 8.0) ?extent () =
  if bands < 1 then invalid_arg "Synthetic.landsat_scene: bands < 1";
  let truth = landcover_truth ~seed ~nrow ~ncol ~classes in
  let rng = Rng.create (seed lxor 0x5eed) in
  let band_imgs =
    List.init bands (fun b ->
        let texture =
          value_noise ~seed:(seed + 7919 * (b + 1)) ~nrow ~ncol ~octaves:2
            ~lattice:8 ()
        in
        Image.init ~label:(Printf.sprintf "band-%d" (b + 1)) ~nrow ~ncol
          Pixel.Char (fun r c ->
            let cls = int_of_float (Image.get truth r c) in
            signature seed cls b
            +. ((Image.get texture r c -. 0.5) *. 2. *. noise)
            +. (Rng.gaussian rng *. noise *. 0.5)))
  in
  let extent = Option.value extent ~default:(Lazy.force default_extent) in
  { composite = Composite.of_bands band_imgs; truth; extent }

let red_nir_pair ~seed ~nrow ~ncol ?(vegetation_shift = 0.) () =
  let veg = value_noise ~seed ~nrow ~ncol ~octaves:3 ~lattice:12 () in
  let rng = Rng.create (seed lxor 0xced) in
  let red =
    Image.init ~label:"red" ~nrow ~ncol Pixel.Char (fun r c ->
        let v = Float.max 0. (Float.min 1. (Image.get veg r c +. vegetation_shift)) in
        (* more vegetation -> lower red reflectance *)
        30. +. ((1. -. v) *. 150.) +. (Rng.gaussian rng *. 3.))
  in
  let rng = Rng.create (seed lxor 0x21b) in
  let nir =
    Image.init ~label:"nir" ~nrow ~ncol Pixel.Char (fun r c ->
        let v = Float.max 0. (Float.min 1. (Image.get veg r c +. vegetation_shift)) in
        (* more vegetation -> higher NIR reflectance *)
        40. +. (v *. 180.) +. (Rng.gaussian rng *. 3.))
  in
  (red, nir)

let rainfall_map ~seed ~nrow ~ncol ?(max_mm = 600.) () =
  let field = value_noise ~seed ~nrow ~ncol ~octaves:4 ~lattice:24 () in
  Image.map ~label:"rainfall-mm" ~ptype:Pixel.Float4
    (fun v -> v *. max_mm)
    field
