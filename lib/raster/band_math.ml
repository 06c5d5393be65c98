let f8 = Pixel.Float8

(* Every operator here is one flat loop over the backing arrays, which
   Image.init_chunks runs once per pool chunk: no closure call and no
   boxed float per pixel.  Results are Float8, or Char 0/1, values their
   quantization maps to themselves, so nothing is quantized. *)

let unary ~label ptype t body =
  Image.init_chunks ~label ~nrow:(Image.img_nrow t) ~ncol:(Image.img_ncol t)
    ptype (body (Image.unsafe_data t))

let binary ~label name a b body =
  if not (Image.img_size_eq a b) then
    invalid_arg
      (Printf.sprintf "Band_math.%s: size mismatch %dx%d vs %dx%d" name
         (Image.img_nrow a) (Image.img_ncol a) (Image.img_nrow b)
         (Image.img_ncol b));
  let ys = Image.unsafe_data b in
  unary ~label f8 a (fun xs -> body xs ys)

let subtract ?(label = "subtract") a b =
  binary ~label "subtract" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (Array.unsafe_get xs i -. Array.unsafe_get ys i)
      done)

let divide ?(label = "divide") a b =
  binary ~label "divide" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        let y = Array.unsafe_get ys i in
        Array.unsafe_set out i
          (if y = 0. then 0. else Array.unsafe_get xs i /. y)
      done)

let ratio ?(label = "ratio") a b =
  binary ~label "ratio" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
        let d = x +. y in
        Array.unsafe_set out i (if d = 0. then 0. else (x -. y) /. d)
      done)

let add ?(label = "add") a b =
  binary ~label "add" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (Array.unsafe_get xs i +. Array.unsafe_get ys i)
      done)

let multiply ?(label = "multiply") a b =
  binary ~label "multiply" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (Array.unsafe_get xs i *. Array.unsafe_get ys i)
      done)

let abs_diff ?(label = "abs-diff") a b =
  binary ~label "abs_diff" a b (fun xs ys out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i
          (Float.abs (Array.unsafe_get xs i -. Array.unsafe_get ys i))
      done)

let scale ?(label = "scale") s t =
  unary ~label f8 t (fun src out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (s *. Array.unsafe_get src i)
      done)

let offset ?(label = "offset") d t =
  unary ~label f8 t (fun src out lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (Array.unsafe_get src i +. d)
      done)

let linear_combination ?(label = "linear-combination") weights imgs =
  let n = List.length imgs in
  if n = 0 then invalid_arg "Band_math.linear_combination: no images";
  if Array.length weights <> n then
    invalid_arg
      (Printf.sprintf "Band_math.linear_combination: %d weights, %d images"
         (Array.length weights) n);
  let first = List.hd imgs in
  List.iter
    (fun img ->
      if not (Image.img_size_eq first img) then
        invalid_arg "Band_math.linear_combination: size mismatch")
    imgs;
  let bands = Array.of_list (List.map Image.unsafe_data imgs) in
  (* band by band onto the zero-filled output: each pixel sums
     0. +. w0*x0 +. w1*x1 ... in band order, as a fold from 0. does *)
  unary ~label f8 first (fun _ out lo hi ->
      for k = 0 to n - 1 do
        let w = Array.unsafe_get weights k and xs = Array.unsafe_get bands k in
        for i = lo to hi - 1 do
          Array.unsafe_set out i
            (Array.unsafe_get out i +. (w *. Array.unsafe_get xs i))
        done
      done)

let normalize ?(label = "normalize") ?(lo = 0.) ?(hi = 1.) t =
  let vmin, vmax = Image.min_max t in
  let span = vmax -. vmin in
  unary ~label f8 t (fun src out a b ->
      if span <= 0. then Array.fill out a (b - a) lo
      else
        for i = a to b - 1 do
          Array.unsafe_set out i
            (lo +. ((Array.unsafe_get src i -. vmin) /. span *. (hi -. lo)))
        done)

let threshold ?(label = "threshold") cutoff t =
  unary ~label Pixel.Char t (fun src out lo hi ->
      for i = lo to hi - 1 do
        if Array.unsafe_get src i >= cutoff then Array.unsafe_set out i 1.
      done)

let threshold_below ?(label = "threshold-below") cutoff t =
  unary ~label Pixel.Char t (fun src out lo hi ->
      for i = lo to hi - 1 do
        if Array.unsafe_get src i < cutoff then Array.unsafe_set out i 1.
      done)
