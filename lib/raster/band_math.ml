let f8 = Pixel.Float8

(* subtract and add go through the fused closure-free kernels;
   [s = 1.] / [a = 1.] multiplications are exact, so the results stay
   bit-identical to the par_map2 reference (parity-tested). *)
let subtract ?(label = "subtract") a b = Kernelized.sub_scale ~label ~s:1. a b

let divide ?(label = "divide") a b =
  Image.par_map2 ~label ~ptype:f8 (fun x y -> if y = 0. then 0. else x /. y) a b

let ratio ?(label = "ratio") a b =
  Image.par_map2 ~label ~ptype:f8
    (fun x y ->
      let d = x +. y in
      if d = 0. then 0. else (x -. y) /. d)
    a b

let add ?(label = "add") a b = Kernelized.axpy ~label ~a:1. a b
let multiply ?(label = "multiply") a b = Image.par_map2 ~label ~ptype:f8 ( *. ) a b

(* scale and offset loop over the backing arrays with no closure per
   pixel, which would box every result; Float8 quantization is the
   identity, so they match the par_map reference bit for bit *)
let scale ?(label = "scale") s t =
  let src = Image.unsafe_data t in
  let out = Array.make (Array.length src) 0. in
  Gaea_par.Pool.parallel_for_ranges ~lo:0 ~hi:(Array.length src) (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (s *. Array.unsafe_get src i)
      done);
  Image.unsafe_of_array ~label ~nrow:(Image.img_nrow t) ~ncol:(Image.img_ncol t)
    f8 out

let offset ?(label = "offset") d t =
  let src = Image.unsafe_data t in
  let out = Array.make (Array.length src) 0. in
  Gaea_par.Pool.parallel_for_ranges ~lo:0 ~hi:(Array.length src) (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (Array.unsafe_get src i +. d)
      done);
  Image.unsafe_of_array ~label ~nrow:(Image.img_nrow t) ~ncol:(Image.img_ncol t)
    f8 out

let abs_diff ?(label = "abs-diff") a b =
  Image.par_map2 ~label ~ptype:f8 (fun x y -> Float.abs (x -. y)) a b

let linear_combination ?(label = "linear-combination") weights imgs =
  let n = List.length imgs in
  if n = 0 then invalid_arg "Band_math.linear_combination: no images";
  if Array.length weights <> n then
    invalid_arg
      (Printf.sprintf "Band_math.linear_combination: %d weights, %d images"
         (Array.length weights) n);
  match imgs with
  | [] -> assert false
  | first :: rest ->
    List.iter
      (fun img ->
        if not (Image.img_size_eq first img) then
          invalid_arg "Band_math.linear_combination: size mismatch")
      rest;
    let arrays = List.map Image.unsafe_data imgs in
    let nrow = Image.img_nrow first and ncol = Image.img_ncol first in
    Image.par_init ~label ~nrow ~ncol f8 (fun r c ->
        let i = (r * ncol) + c in
        List.fold_left
          (fun (acc, k) data -> (acc +. (weights.(k) *. data.(i)), k + 1))
          (0., 0) arrays
        |> fst)

let normalize ?(label = "normalize") ?(lo = 0.) ?(hi = 1.) t =
  let vmin, vmax = Image.min_max t in
  let span = vmax -. vmin in
  if span <= 0. then Image.par_map ~label ~ptype:f8 (fun _ -> lo) t
  else
    Image.par_map ~label ~ptype:f8
      (fun v -> lo +. ((v -. vmin) /. span *. (hi -. lo)))
      t

let threshold ?(label = "threshold") cutoff t =
  Image.par_map ~label ~ptype:Pixel.Char (fun v -> if v >= cutoff then 1. else 0.) t
