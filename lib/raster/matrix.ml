module Pool = Gaea_par.Pool

type t = { rows : int; cols : int; data : float array }

let check_dims rows cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg (Printf.sprintf "Matrix: non-positive dims %dx%d" rows cols);
  (* the product must neither wrap around nor exceed an array's length *)
  if rows > Sys.max_array_length / cols then
    invalid_arg
      (Printf.sprintf "Matrix: dims %dx%d exceed the largest matrix" rows cols)

let create ~rows ~cols =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) 0. }

let init ~rows ~cols f =
  check_dims rows cols;
  { rows; cols;
    data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let unsafe_data t = t.data

let unsafe_of_array ~rows ~cols data =
  check_dims rows cols;
  if Array.length data <> rows * cols then
    invalid_arg
      (Printf.sprintf "Matrix.unsafe_of_array: %d values for %dx%d"
         (Array.length data) rows cols);
  { rows; cols; data }

let rows t = t.rows
let cols t = t.cols

let check_bounds t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg
      (Printf.sprintf "Matrix: (%d,%d) outside %dx%d" i j t.rows t.cols)

let get t i j =
  check_bounds t i j;
  t.data.((i * t.cols) + j)

let set t i j v =
  check_bounds t i j;
  t.data.((i * t.cols) + j) <- v

let transpose t = init ~rows:t.cols ~cols:t.rows (fun i j -> get t j i)

let scale s t = { t with data = Array.map (fun v -> s *. v) t.data }

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let out = create ~rows:a.rows ~cols:b.cols in
  (* parallel over output rows (disjoint writes, per-element order
     unchanged); grain sized so a chunk is ~64k multiply-adds *)
  let grain = Stdlib.max 1 (65536 / Stdlib.max 1 (a.cols * b.cols)) in
  Pool.parallel_for_ranges ~grain ~lo:0 ~hi:a.rows (fun rlo rhi ->
      for i = rlo to rhi - 1 do
        for k = 0 to a.cols - 1 do
          let aik = a.data.((i * a.cols) + k) in
          if aik <> 0. then
            for j = 0 to b.cols - 1 do
              out.data.((i * b.cols) + j) <-
                out.data.((i * b.cols) + j)
                +. (aik *. b.data.((k * b.cols) + j))
            done
        done
      done);
  out

let mul_vec t v =
  if Array.length v <> t.cols then
    invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init t.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to t.cols - 1 do
        acc := !acc +. (t.data.((i * t.cols) + j) *. v.(j))
      done;
      !acc)

let equal a b =
  a.rows = b.rows && a.cols = b.cols && a.data = b.data

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let is_symmetric ?(eps = 1e-9) t =
  t.rows = t.cols
  &&
  let ok = ref true in
  for i = 0 to t.rows - 1 do
    for j = i + 1 to t.cols - 1 do
      if Float.abs (get t i j -. get t j i) > eps then ok := false
    done
  done;
  !ok

let frobenius_norm t =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. t.data)

let copy t = { t with data = Array.copy t.data }

let column_means t =
  let means = Array.make t.cols 0. in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      means.(j) <- means.(j) +. t.data.((i * t.cols) + j)
    done
  done;
  Array.map (fun s -> s /. float_of_int t.rows) means

(* [(x -. means.(j)) /. sds.(j)] per element, 0. where [sds.(j) = 0.],
   in one flat pass with no per-element closure *)
let scale_columns t means sds =
  let k = t.cols and src = t.data in
  let out = Array.make (t.rows * k) 0. in
  Pool.parallel_for_ranges ~lo:0 ~hi:t.rows
    (fun rlo rhi ->
      for r = rlo to rhi - 1 do
        let base = r * k in
        for j = 0 to k - 1 do
          let sd = Array.unsafe_get sds j in
          Array.unsafe_set out (base + j)
            (if sd = 0. then 0.
             else
               (Array.unsafe_get src (base + j) -. Array.unsafe_get means j)
               /. sd)
        done
      done);
  { t with data = out }

(* dividing by 1. is exact, so this is the plain difference *)
let center_columns t =
  let means = column_means t in
  (scale_columns t means (Array.make t.cols 1.), means)

let check_observations t =
  if t.rows < 2 then invalid_arg "Matrix.covariance: needs >= 2 observations"

let covariance t =
  check_observations t;
  (* accumulate (x_i - mean_i)(x_j - mean_j) over observation chunks;
     partials combine in chunk order, so any pool size associates the
     float sums identically *)
  let means = column_means t in
  let k = t.cols in
  let data = t.data in
  let partial lo hi =
    let acc = Array.make (k * k) 0. in
    for r = lo to hi - 1 do
      let base = r * k in
      for i = 0 to k - 1 do
        let di = Array.unsafe_get data (base + i) -. means.(i) in
        if di <> 0. then
          for j = 0 to k - 1 do
            acc.((i * k) + j) <-
              acc.((i * k) + j)
              +. (di *. (Array.unsafe_get data (base + j) -. means.(j)))
          done
      done
    done;
    acc
  in
  let total =
    Pool.parallel_for_reduce ~lo:0 ~hi:t.rows
      ~init:(Array.make (k * k) 0.)
      ~reduce:(fun a b ->
        for i = 0 to (k * k) - 1 do
          a.(i) <- a.(i) +. b.(i)
        done;
        a)
      partial
  in
  let s = 1. /. float_of_int (t.rows - 1) in
  { rows = k; cols = k; data = Array.map (fun v -> s *. v) total }

(* The diagonal of [covariance] alone: the same chunks, the same
   per-row [di <> 0.] accumulation (the diagonal entry adds [di *. di],
   the product covariance forms for j = i) and the same chunk-order
   reduce from zeros, so each standard deviation has exactly the bits
   of [sqrt] of covariance's diagonal entry. *)
let column_sds t means =
  let k = t.cols and data = t.data in
  let total =
    Pool.parallel_for_reduce ~lo:0 ~hi:t.rows
      ~init:(Array.make k 0.)
      ~reduce:(fun a b ->
        for i = 0 to k - 1 do
          a.(i) <- a.(i) +. b.(i)
        done;
        a)
      (fun lo hi ->
        let acc = Array.make k 0. in
        for r = lo to hi - 1 do
          let base = r * k in
          for i = 0 to k - 1 do
            let di = Array.unsafe_get data (base + i) -. means.(i) in
            if di <> 0. then acc.(i) <- acc.(i) +. (di *. di)
          done
        done;
        acc)
  in
  let s = 1. /. float_of_int (t.rows - 1) in
  Array.map (fun v -> sqrt (s *. v)) total

let standardize_columns t =
  check_observations t;
  let means = column_means t in
  scale_columns t means (column_sds t means)

let correlation_of_covariance cov =
  let n = cols cov in
  let sd = Array.init n (fun i -> sqrt (get cov i i)) in
  init ~rows:n ~cols:n (fun i j ->
      if i = j then 1.
      else if sd.(i) = 0. || sd.(j) = 0. then 0.
      else get cov i j /. (sd.(i) *. sd.(j)))

let correlation t = correlation_of_covariance (covariance t)
