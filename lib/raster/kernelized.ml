module Pool = Gaea_par.Pool

let check_sizes name a b =
  if not (Image.img_size_eq a b) then
    invalid_arg
      (Printf.sprintf "Kernelized.%s: size mismatch %dx%d vs %dx%d" name
         (Image.img_nrow a) (Image.img_ncol a) (Image.img_nrow b)
         (Image.img_ncol b))

(* Float8 quantization is the identity, so writing raw results into the
   backing array matches the par_map2 reference bit for bit. *)

let axpy ?(label = "axpy") ~a x y =
  check_sizes "axpy" x y;
  let xs = Image.unsafe_data x and ys = Image.unsafe_data y in
  let n = Array.length xs in
  let out = Array.make n 0. in
  Pool.parallel_for_ranges ~lo:0 ~hi:n (fun clo chi ->
      for i = clo to chi - 1 do
        Array.unsafe_set out i
          ((a *. Array.unsafe_get xs i) +. Array.unsafe_get ys i)
      done);
  Image.unsafe_of_array ~label ~nrow:(Image.img_nrow x)
    ~ncol:(Image.img_ncol x) Pixel.Float8 out

let sub_scale ?(label = "sub-scale") ~s x y =
  check_sizes "sub_scale" x y;
  let xs = Image.unsafe_data x and ys = Image.unsafe_data y in
  let n = Array.length xs in
  let out = Array.make n 0. in
  Pool.parallel_for_ranges ~lo:0 ~hi:n (fun clo chi ->
      for i = clo to chi - 1 do
        Array.unsafe_set out i
          (s *. (Array.unsafe_get xs i -. Array.unsafe_get ys i))
      done);
  Image.unsafe_of_array ~label ~nrow:(Image.img_nrow x)
    ~ncol:(Image.img_ncol x) Pixel.Float8 out

let normalized_diff ?(label = "normalized-diff") x y =
  check_sizes "normalized_diff" x y;
  let xs = Image.unsafe_data x and ys = Image.unsafe_data y in
  let n = Array.length xs in
  let out = Array.make n 0. in
  Pool.parallel_for_ranges ~lo:0 ~hi:n (fun clo chi ->
      for i = clo to chi - 1 do
        let xv = Array.unsafe_get xs i and yv = Array.unsafe_get ys i in
        let d = xv +. yv in
        Array.unsafe_set out i (if d = 0. then 0. else (xv -. yv) /. d)
      done);
  Image.unsafe_of_array ~label ~nrow:(Image.img_nrow x)
    ~ncol:(Image.img_ncol x) Pixel.Float8 out

(* Combine partials starting from the first one (not from a fresh 0.)
   so a single-chunk image reproduces the sequential fold exactly. *)
let combine partials =
  let acc = ref partials.(0) in
  for k = 1 to Array.length partials - 1 do
    acc := !acc +. partials.(k)
  done;
  !acc

let sum img =
  let data = Image.unsafe_data img in
  let n = Array.length data in
  let partials =
    Pool.map_chunks ~lo:0 ~hi:n (fun clo chi ->
        let acc = ref 0. in
        for i = clo to chi - 1 do
          acc := !acc +. Array.unsafe_get data i
        done;
        !acc)
  in
  if Array.length partials = 0 then 0. else combine partials

let mean img = sum img /. float_of_int (Image.size img)

let mean_var img =
  let n = Image.size img in
  let m = mean img in
  if n < 2 then (m, 0.)
  else begin
    let data = Image.unsafe_data img in
    let partials =
      Pool.map_chunks ~lo:0 ~hi:n ~cost:2.0 (fun clo chi ->
          let acc = ref 0. in
          for i = clo to chi - 1 do
            let d = Array.unsafe_get data i -. m in
            acc := !acc +. (d *. d)
          done;
          !acc)
    in
    (m, combine partials /. float_of_int (n - 1))
  end

let band_arrays c =
  Array.of_list (List.map Image.unsafe_data (Composite.bands c))

let to_matrix c =
  let rows = Composite.n_pixels c and cols = Composite.n_bands c in
  let bands = band_arrays c in
  let out = Array.make (rows * cols) 0. in
  Pool.parallel_for_ranges ~lo:0 ~hi:rows ~cost:(float_of_int cols)
    (fun plo phi ->
      for i = plo to phi - 1 do
        let base = i * cols in
        for j = 0 to cols - 1 do
          Array.unsafe_set out (base + j)
            (Array.unsafe_get (Array.unsafe_get bands j) i)
        done
      done);
  Matrix.unsafe_of_array ~rows ~cols out

let of_matrix ~nrow ~ncol m =
  if Matrix.rows m <> nrow * ncol then
    invalid_arg
      (Printf.sprintf "Kernelized.of_matrix: %d rows for %dx%d image"
         (Matrix.rows m) nrow ncol);
  let rows = Matrix.rows m and cols = Matrix.cols m in
  let md = Matrix.unsafe_data m in
  Composite.of_bands
    (List.init cols (fun j ->
         let out = Array.make rows 0. in
         Pool.parallel_for_ranges ~lo:0 ~hi:rows (fun plo phi ->
             for i = plo to phi - 1 do
               Array.unsafe_set out i (Array.unsafe_get md ((i * cols) + j))
             done);
         Image.unsafe_of_array ~nrow ~ncol Pixel.Float8 out))
