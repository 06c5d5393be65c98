type t = { bands : Image.t array }

let of_bands = function
  | [] -> invalid_arg "Composite.of_bands: no bands"
  | first :: _ as l ->
    List.iteri
      (fun i img ->
        if not (Image.img_size_eq first img) then
          invalid_arg
            (Printf.sprintf "Composite.of_bands: band %d size mismatch" i))
      l;
    { bands = Array.of_list l }

let bands t = Array.to_list t.bands

let band t i =
  if i < 0 || i >= Array.length t.bands then
    invalid_arg (Printf.sprintf "Composite.band: %d" i);
  t.bands.(i)

let n_bands t = Array.length t.bands
let nrow t = Image.img_nrow t.bands.(0)
let ncol t = Image.img_ncol t.bands.(0)
let n_pixels t = nrow t * ncol t

let pixel_vector t i =
  Array.map (fun b -> Image.get_linear b i) t.bands

(* one tight copy loop per pixel row *)
let to_matrix t =
  let rows = n_pixels t and cols = n_bands t in
  let bands = Array.map Image.unsafe_data t.bands in
  let out = Array.make (rows * cols) 0. in
  Gaea_par.Pool.parallel_for_ranges ~lo:0 ~hi:rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * cols in
        for j = 0 to cols - 1 do
          Array.unsafe_set out (base + j)
            (Array.unsafe_get (Array.unsafe_get bands j) i)
        done
      done);
  Matrix.unsafe_of_array ~rows ~cols out

(* Float8 bands, whose quantization is the identity: values are copied
   as they are *)
let of_matrix ~nrow ~ncol m =
  if Matrix.rows m <> nrow * ncol then
    invalid_arg
      (Printf.sprintf "Composite.of_matrix: %d rows for %dx%d image"
         (Matrix.rows m) nrow ncol);
  let cols = Matrix.cols m and md = Matrix.unsafe_data m in
  { bands =
      Array.init cols (fun j ->
          Image.init_chunks ~nrow ~ncol Pixel.Float8 (fun out lo hi ->
              for i = lo to hi - 1 do
                Array.unsafe_set out i (Array.unsafe_get md ((i * cols) + j))
              done)) }

let equal a b =
  Array.length a.bands = Array.length b.bands
  && Array.for_all2 Image.equal a.bands b.bands

let content_hash t =
  Array.fold_left
    (fun acc b -> (acc * 1000003) lxor Image.content_hash b)
    (Array.length t.bands) t.bands
