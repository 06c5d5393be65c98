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

let to_matrix t =
  Matrix.par_init ~rows:(n_pixels t) ~cols:(n_bands t) (fun i j ->
      Image.get_linear t.bands.(j) i)

let of_matrix ~nrow ~ncol ptype m =
  if Matrix.rows m <> nrow * ncol then
    invalid_arg
      (Printf.sprintf "Composite.of_matrix: %d rows for %dx%d image"
         (Matrix.rows m) nrow ncol);
  { bands =
      Array.init (Matrix.cols m) (fun j ->
          Image.par_init ~nrow ~ncol ptype (fun r c ->
              Matrix.get m ((r * ncol) + c) j)) }

let equal a b =
  Array.length a.bands = Array.length b.bands
  && Array.for_all2 Image.equal a.bands b.bands

let content_hash t =
  Array.fold_left
    (fun acc b -> (acc * 1000003) lxor Image.content_hash b)
    (Array.length t.bands) t.bands
