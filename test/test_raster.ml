(* Tests for the raster substrate: pixels, images, matrices,
   eigendecomposition, band math, composites, statistics, classifiers,
   PCA, interpolation, NDVI, synthetic scenes and the RNG. *)

open Gaea_raster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let bits v = Int64.bits_of_float v

(* [f ()] at a pool of [lanes] domains; more than one lane takes the
   parallel path for every range longer than one grain *)
let at_lanes lanes f =
  let module Pool = Gaea_par.Pool in
  let saved = Pool.size () in
  Pool.set_size lanes;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let rng_int_bounds_prop =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_rng_gaussian_moments () =
  let rng = Rng.create 99 in
  let n = 20000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_close 0.05 "mean ~ 0" 0. mean;
  check_close 0.05 "var ~ 1" 1. var

(* ------------------------------------------------------------------ *)
(* Pixel                                                               *)
(* ------------------------------------------------------------------ *)

let test_pixel_quantize () =
  check_float "char clamps high" 255. (Pixel.quantize Pixel.Char 300.);
  check_float "char clamps low" 0. (Pixel.quantize Pixel.Char (-5.));
  check_float "char rounds" 4. (Pixel.quantize Pixel.Char 4.4);
  check_float "int2 saturates" 32767. (Pixel.quantize Pixel.Int2 1e9);
  check_float "int nan -> 0" 0. (Pixel.quantize Pixel.Int4 Float.nan);
  check_float "float8 identity" 1.25 (Pixel.quantize Pixel.Float8 1.25);
  (* float4 loses precision but is idempotent *)
  let v = Pixel.quantize Pixel.Float4 0.1 in
  check_float "float4 idempotent" v (Pixel.quantize Pixel.Float4 v)

let test_pixel_meta () =
  check_int "char bytes" 1 (Pixel.size_bytes Pixel.Char);
  check_int "float8 bytes" 8 (Pixel.size_bytes Pixel.Float8);
  check_bool "names roundtrip" true
    (List.for_all
       (fun p -> Pixel.of_string (Pixel.to_string p) = Some p)
       [ Pixel.Char; Pixel.Int2; Pixel.Int4; Pixel.Float4; Pixel.Float8 ]);
  check_bool "unknown name" true (Pixel.of_string "uint64" = None)

(* ------------------------------------------------------------------ *)
(* Image                                                               *)
(* ------------------------------------------------------------------ *)

let test_image_basics () =
  let img = Image.init ~nrow:3 ~ncol:4 Pixel.Float8 (fun r c -> float_of_int ((r * 4) + c)) in
  check_int "nrow" 3 (Image.img_nrow img);
  check_int "ncol" 4 (Image.img_ncol img);
  check_int "size" 12 (Image.size img);
  check_float "get" 6. (Image.get img 1 2);
  Alcotest.check_raises "oob" (Invalid_argument "Image: pixel (3,0) outside 3x4")
    (fun () -> ignore (Image.get img 3 0));
  let lo, hi = Image.min_max img in
  check_float "min" 0. lo;
  check_float "max" 11. hi

let test_image_quantizes_on_write () =
  let img = Image.init ~nrow:2 ~ncol:2 Pixel.Char (fun _ _ -> 0.) in
  Image.set img 0 0 300.;
  check_float "clamped" 255. (Image.get img 0 0);
  Image.set img 0 1 3.7;
  check_float "rounded" 4. (Image.get img 0 1)

let test_image_map2_mismatch () =
  let a = Image.init ~nrow:2 ~ncol:2 Pixel.Float8 (fun _ _ -> 0.) in
  let b = Image.init ~nrow:2 ~ncol:3 Pixel.Float8 (fun _ _ -> 0.) in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Image.map2: size mismatch 2x2 vs 2x3") (fun () ->
      ignore (Image.map2 ( +. ) a b))

let test_image_hash_and_equal () =
  let a = Image.init ~nrow:4 ~ncol:4 Pixel.Float8 (fun r c -> float_of_int (r + c)) in
  let b = Image.init ~nrow:4 ~ncol:4 Pixel.Float8 (fun r c -> float_of_int (r + c)) in
  check_bool "equal" true (Image.equal a b);
  check_int "hash equal" (Image.content_hash a) (Image.content_hash b);
  Image.set b 0 0 99.;
  check_bool "not equal" false (Image.equal a b);
  check_bool "hash differs" true (Image.content_hash a <> Image.content_hash b)

(* the boxed-Int64 FNV-1a loop content_hash replaced; the untagged-int
   rewrite must produce the very same values *)
let reference_content_hash img =
  let h = ref 0xcbf29ce484222325L in
  let feed v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  feed (Int64.of_int (Image.img_nrow img));
  feed (Int64.of_int (Image.img_ncol img));
  feed (Int64.of_int (Pixel.size_bytes (Image.img_type img)));
  Image.iter
    (fun v ->
      feed
        (if Float.is_nan v then 0x7ff8000000000000L else Int64.bits_of_float v))
    img;
  Int64.to_int (Int64.shift_right_logical !h 2)

let test_image_hash_matches_boxed_reference () =
  let images =
    [ Image.of_array ~nrow:2 ~ncol:4 Pixel.Float8
        [| 0.; -0.; 1.5; -273.15; Float.nan; infinity; neg_infinity; 1e-300 |];
      Image.init ~nrow:17 ~ncol:13 Pixel.Float8 (fun r c ->
          sin (float_of_int ((r * 13) + c)) *. 1000.);
      Image.init ~nrow:5 ~ncol:5 Pixel.Char (fun r c -> float_of_int (r * c));
      Image.init ~nrow:3 ~ncol:9 Pixel.Int2 (fun r c -> float_of_int ((r * 100) - c));
      Image.init ~nrow:1 ~ncol:1 Pixel.Float4 (fun _ _ -> 0.) ]
  in
  List.iteri
    (fun i img ->
      check_int
        (Printf.sprintf "image %d hashes as before" i)
        (reference_content_hash img) (Image.content_hash img))
    images

let test_image_min_max_skips_nan () =
  (* regression: NaN pixels (cloud holes) used to poison min_max via
     NaN comparisons; they are skipped now *)
  let img =
    Image.of_array ~nrow:1 ~ncol:5 Pixel.Float8
      [| Float.nan; 2.; -3.; Float.nan; 7. |]
  in
  let lo, hi = Image.min_max img in
  check_float "min skips nan" (-3.) lo;
  check_float "max skips nan" 7. hi;
  (* a leading NaN must not stick either *)
  let leading = Image.of_array ~nrow:1 ~ncol:2 Pixel.Float8 [| Float.nan; 4. |] in
  let lo, hi = Image.min_max leading in
  check_float "min after leading nan" 4. lo;
  check_float "max after leading nan" 4. hi;
  (* all-NaN image: the empty-range convention *)
  let all_nan = Image.init ~nrow:2 ~ncol:2 Pixel.Float8 (fun _ _ -> Float.nan) in
  let lo, hi = Image.min_max all_nan in
  check_bool "all-nan min" true (lo = infinity);
  check_bool "all-nan max" true (hi = neg_infinity)

let test_image_of_array_validation () =
  Alcotest.check_raises "length"
    (Invalid_argument "Image.of_array: 3 values for 2x2 image") (fun () ->
      ignore (Image.of_array ~nrow:2 ~ncol:2 Pixel.Float8 [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

let of_rows rs =
  Matrix.init ~rows:(Array.length rs) ~cols:(Array.length rs.(0))
    (fun i j -> rs.(i).(j))

let test_matrix_mul_identity () =
  let m = of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_bool "I*m = m" true (Matrix.equal (Matrix.mul (Matrix.identity 2) m) m);
  check_bool "m*I = m" true (Matrix.equal (Matrix.mul m (Matrix.identity 2)) m)

let test_matrix_transpose () =
  let m = of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose m in
  check_int "rows" 3 (Matrix.rows t);
  check_float "cell" 6. (Matrix.get t 2 1);
  check_bool "involution" true (Matrix.equal (Matrix.transpose t) m)

let test_matrix_mul_known () =
  let a = of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19. (Matrix.get c 0 0);
  check_float "c11" 50. (Matrix.get c 1 1);
  Alcotest.check_raises "dim" (Invalid_argument "Matrix.mul: 2x2 * 3x1")
    (fun () ->
      ignore (Matrix.mul a (Matrix.create ~rows:3 ~cols:1)))

let test_matrix_center () =
  let m = of_rows [| [| 1.; 10. |]; [| 3.; 20. |]; [| 5.; 30. |] |] in
  let centered, means = Matrix.center_columns m in
  Alcotest.(check (array (float 1e-9))) "means" [| 3.; 20. |] means;
  let new_means = Matrix.column_means centered in
  Alcotest.(check (array (float 1e-9))) "centered" [| 0.; 0. |] new_means

let test_matrix_covariance () =
  (* perfectly correlated columns *)
  let m = of_rows [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let cov = Matrix.covariance m in
  check_bool "symmetric" true (Matrix.is_symmetric cov);
  check_float "var x" 1. (Matrix.get cov 0 0);
  check_float "cov xy" 2. (Matrix.get cov 0 1);
  let corr = Matrix.correlation m in
  check_float "perfect corr" 1. (Matrix.get corr 0 1);
  check_float "diag 1" 1. (Matrix.get corr 1 1)

let test_matrix_correlation_constant_column () =
  let m = of_rows [| [| 1.; 5. |]; [| 2.; 5. |]; [| 3.; 5. |] |] in
  let corr = Matrix.correlation m in
  check_float "const col off-diag 0" 0. (Matrix.get corr 0 1);
  check_float "const col diag 1" 1. (Matrix.get corr 1 1)

let mat_gen =
  QCheck.Gen.(
    let dim = int_range 1 5 in
    map3
      (fun r c cells ->
        Matrix.init ~rows:r ~cols:c (fun i j ->
            cells.((i * c) + j)))
      dim dim
      (array_size (return 25) (float_range (-10.) 10.)))

let mat_arb = QCheck.make mat_gen

let matrix_transpose_mul_prop =
  QCheck.Test.make ~name:"(A B)ᵀ = Bᵀ Aᵀ" ~count:200
    QCheck.(pair mat_arb mat_arb)
    (fun (a, b) ->
      QCheck.assume (Matrix.cols a = Matrix.rows b);
      Matrix.approx_equal ~eps:1e-6
        (Matrix.transpose (Matrix.mul a b))
        (Matrix.mul (Matrix.transpose b) (Matrix.transpose a)))

(* [Matrix.standardize_columns] against the composition it replaced:
   subtract the column means, divide by the square root of the
   covariance diagonal, per element.  Cases: [kind] 0 random floats, 1
   every other column constant (sd = 0), 2 random floats with one NaN
   element, 3 integers 0..9; one in four spans three pool chunks. *)
let std_case (big, cols, kind, seed) =
  let rs = Random.State.make [| seed |] in
  let rows =
    if big = 0 then (2 * Gaea_par.Pool.default_grain) + 37
    else 2 + Random.State.int rs 40
  in
  let nan_at = Random.State.int rs (rows * cols) in
  Matrix.init ~rows ~cols (fun i j ->
      match kind with
      | 0 -> Random.State.float rs 200. -. 100.
      | 1 -> if j mod 2 = 1 then 3.5 else Random.State.float rs 10.
      | 2 ->
        if (i * cols) + j = nan_at then Float.nan else Random.State.float rs 10.
      | _ -> float_of_int (Random.State.int rs 10))

let reference_standardize m =
  let means = Matrix.column_means m and cov = Matrix.covariance m in
  ( Matrix.init ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) (fun i j ->
        Matrix.get m i j -. means.(j)),
    Matrix.init ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) (fun i j ->
        let sd = sqrt (Matrix.get cov j j) in
        if sd = 0. then 0. else (Matrix.get m i j -. means.(j)) /. sd) )

let same_bits a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && Array.for_all2
       (fun x y -> bits x = bits y)
       (Matrix.unsafe_data a) (Matrix.unsafe_data b)

let standardize_parity_prop =
  QCheck.Test.make ~name:"standardize_columns = centre, covariance sd, divide"
    ~count:100
    (QCheck.make
       ~print:(fun (big, cols, kind, seed) ->
         Printf.sprintf "big %d, %d column(s), kind %d, seed %d" big cols kind
           seed)
       QCheck.Gen.(
         map
           (fun ((big, cols, kind), seed) -> (big, cols, kind, seed))
           (pair
              (triple (int_bound 3) (int_range 1 6) (int_bound 3))
              (int_bound 1_000_000))))
    (fun case ->
      let m = std_case case in
      let centered, standardized = reference_standardize m in
      List.for_all
        (fun lanes ->
          at_lanes lanes (fun () ->
              same_bits standardized (Matrix.standardize_columns m)
              && same_bits centered (fst (Matrix.center_columns m))))
        [ 1; 2 ])

let test_standardize_one_row () =
  Alcotest.check_raises "one row"
    (Invalid_argument "Matrix.covariance: needs >= 2 observations") (fun () ->
      ignore (Matrix.standardize_columns (of_rows [| [| 1.; 2. |] |])))

(* ------------------------------------------------------------------ *)
(* Eigen                                                               *)
(* ------------------------------------------------------------------ *)

let random_symmetric seed n =
  let rng = Rng.create seed in
  let m = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let v = Rng.float rng 10. -. 5. in
      Matrix.set m i j v;
      Matrix.set m j i v
    done
  done;
  m

let test_eigen_identity () =
  let d = Eigen.decompose (Matrix.identity 4) in
  Array.iter (fun v -> check_close 1e-9 "eigenvalue 1" 1. v) d.Eigen.values

let test_eigen_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 *)
  let m = of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let d = Eigen.decompose m in
  check_close 1e-9 "l1" 3. d.Eigen.values.(0);
  check_close 1e-9 "l2" 1. d.Eigen.values.(1)

let test_eigen_reconstruct () =
  List.iter
    (fun seed ->
      let m = random_symmetric seed 5 in
      let d = Eigen.decompose m in
      check_bool "reconstructs" true
        (Matrix.approx_equal ~eps:1e-7 (Eigen.reconstruct d) m);
      (* descending eigenvalues *)
      let sorted = ref true in
      for i = 0 to 3 do
        if d.Eigen.values.(i) < d.Eigen.values.(i + 1) then sorted := false
      done;
      check_bool "descending" true !sorted;
      (* orthonormal eigenvectors *)
      let vtv =
        Matrix.mul (Matrix.transpose d.Eigen.vectors) d.Eigen.vectors
      in
      check_bool "orthonormal" true
        (Matrix.approx_equal ~eps:1e-7 vtv (Matrix.identity 5)))
    [ 1; 2; 3; 4; 5 ]

let test_eigen_rejects_asymmetric () =
  let m = of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Eigen.decompose: matrix not symmetric") (fun () ->
      ignore (Eigen.decompose m))

let test_eigen_explained () =
  let m = of_rows [| [| 3.; 0. |]; [| 0.; 1. |] |] in
  let d = Eigen.decompose m in
  let e = Eigen.explained_variance d in
  check_close 1e-9 "first" 0.75 e.(0);
  check_close 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. e)

(* ------------------------------------------------------------------ *)
(* Band math / NDVI                                                    *)
(* ------------------------------------------------------------------ *)

let const_img v = Image.init ~nrow:4 ~ncol:4 Pixel.Float8 (fun _ _ -> v)

let test_band_math () =
  let a = const_img 10. and b = const_img 4. in
  check_float "sub" 6. (Image.get (Band_math.subtract a b) 0 0);
  check_float "div" 2.5 (Image.get (Band_math.divide a b) 0 0);
  check_float "div by zero -> 0" 0.
    (Image.get (Band_math.divide a (const_img 0.)) 0 0);
  check_float "ratio" (6. /. 14.) (Image.get (Band_math.ratio a b) 0 0);
  check_float "add" 14. (Image.get (Band_math.add a b) 0 0);
  check_float "mult" 40. (Image.get (Band_math.multiply a b) 0 0);
  check_float "scale" 30. (Image.get (Band_math.scale 3. a) 0 0);
  check_float "abs diff" 6. (Image.get (Band_math.abs_diff b a) 0 0)

let test_linear_combination () =
  let a = const_img 1. and b = const_img 2. and c = const_img 3. in
  let lc = Band_math.linear_combination [| 1.; -2.; 3. |] [ a; b; c ] in
  check_float "1 - 4 + 9" 6. (Image.get lc 0 0);
  Alcotest.check_raises "weight count"
    (Invalid_argument "Band_math.linear_combination: 2 weights, 3 images")
    (fun () ->
      ignore (Band_math.linear_combination [| 1.; 2. |] [ a; b; c ]))

let test_normalize_threshold () =
  let img = Image.of_array ~nrow:1 ~ncol:3 Pixel.Float8 [| 0.; 5.; 10. |] in
  let n = Band_math.normalize img in
  Alcotest.(check (list (float 1e-9))) "normalized" [ 0.; 0.5; 1. ]
    (Image.to_list n);
  let t = Band_math.threshold 5. img in
  Alcotest.(check (list (float 0.))) "threshold" [ 0.; 1.; 1. ]
    (Image.to_list t);
  let flat = Band_math.normalize (const_img 7.) in
  check_float "constant maps to lo" 0. (Image.get flat 0 0)

let test_ndvi () =
  let red = const_img 50. and nir = const_img 150. in
  let v = Ndvi.ndvi ~red ~nir () in
  check_float "ndvi" 0.5 (Image.get v 0 0);
  let lo, hi = Image.min_max v in
  check_bool "range" true (lo >= -1. && hi <= 1.);
  check_float "mean" 0.5 (Ndvi.mean_ndvi v)

(* ------------------------------------------------------------------ *)
(* Composite                                                           *)
(* ------------------------------------------------------------------ *)

let test_composite () =
  let b1 = const_img 1. and b2 = const_img 2. in
  let c = Composite.of_bands [ b1; b2 ] in
  check_int "bands" 2 (Composite.n_bands c);
  check_int "pixels" 16 (Composite.n_pixels c);
  Alcotest.(check (array (float 0.))) "pixel vector" [| 1.; 2. |]
    (Composite.pixel_vector c 0);
  Alcotest.check_raises "empty" (Invalid_argument "Composite.of_bands: no bands")
    (fun () -> ignore (Composite.of_bands []));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Composite.of_bands: band 1 size mismatch") (fun () ->
      ignore
        (Composite.of_bands
           [ b1; Image.init ~nrow:2 ~ncol:2 Pixel.Float8 (fun _ _ -> 0.) ]))

let test_composite_matrix_roundtrip () =
  let b1 = Image.init ~nrow:3 ~ncol:2 Pixel.Float8 (fun r c -> float_of_int ((r * 2) + c)) in
  let b2 = Image.init ~nrow:3 ~ncol:2 Pixel.Float8 (fun r c -> float_of_int (10 + (r * 2) + c)) in
  let c = Composite.of_bands [ b1; b2 ] in
  let m = Composite.to_matrix c in
  check_int "rows = pixels" 6 (Matrix.rows m);
  check_int "cols = bands" 2 (Matrix.cols m);
  let c' = Composite.of_matrix ~nrow:3 ~ncol:2 m in
  check_bool "roundtrip" true (Composite.equal c c')

(* ------------------------------------------------------------------ *)
(* Imgstats                                                            *)
(* ------------------------------------------------------------------ *)

let test_imgstats () =
  let img = Image.of_array ~nrow:1 ~ncol:5 Pixel.Float8 [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "mean" 3. (Imgstats.mean img);
  check_float "variance" 2.5 (Imgstats.variance img);
  check_float "sum" 15. (Imgstats.sum img)

let test_imgstats_agreement () =
  let a = Image.of_array ~nrow:1 ~ncol:4 Pixel.Int4 [| 0.; 1.; 2.; 3. |] in
  let b = Image.of_array ~nrow:1 ~ncol:4 Pixel.Int4 [| 0.; 1.; 9.; 3. |] in
  check_float "agreement" 0.75 (Imgstats.agreement a b);
  check_float "rmse self" 0. (Imgstats.rmse a a)

(* ------------------------------------------------------------------ *)
(* Kmeans                                                              *)
(* ------------------------------------------------------------------ *)

let separated_composite () =
  (* two clearly separated intensity groups *)
  let img =
    Image.init ~nrow:8 ~ncol:8 Pixel.Float8 (fun r _ ->
        if r < 4 then 10. else 200.)
  in
  Composite.of_bands [ img ]

let test_kmeans_recovers_clusters () =
  let c = separated_composite () in
  let result = Kmeans.unsuperclassify ~seed:1 c 2 in
  (* pixels in the same half share a label; labels are 0 and 1 *)
  let l0 = Image.get result.Kmeans.labels 0 0 in
  let l1 = Image.get result.Kmeans.labels 7 7 in
  check_bool "two labels" true (l0 <> l1);
  check_bool "labels in range" true
    (Image.fold (fun acc v -> acc && (v = 0. || v = 1.)) true result.Kmeans.labels);
  (* stable relabeling: cluster 0 has the smaller centroid *)
  check_bool "centroid order" true
    (result.Kmeans.centroids.(0).(0) < result.Kmeans.centroids.(1).(0))

let test_kmeans_deterministic () =
  let scene = Synthetic.landsat_scene ~seed:3 ~nrow:16 ~ncol:16 () in
  let r1 = Kmeans.unsuperclassify ~seed:5 scene.Synthetic.composite 4 in
  let r2 = Kmeans.unsuperclassify ~seed:5 scene.Synthetic.composite 4 in
  check_bool "same labels" true (Image.equal r1.Kmeans.labels r2.Kmeans.labels);
  check_float "same inertia" r1.Kmeans.inertia r2.Kmeans.inertia

let test_kmeans_inertia_decreases_with_k () =
  let scene = Synthetic.landsat_scene ~seed:4 ~nrow:16 ~ncol:16 () in
  let i1 = (Kmeans.unsuperclassify ~seed:5 scene.Synthetic.composite 1).Kmeans.inertia in
  let i4 = (Kmeans.unsuperclassify ~seed:5 scene.Synthetic.composite 4).Kmeans.inertia in
  check_bool "k=4 fits better than k=1" true (i4 <= i1)

let test_kmeans_validation () =
  let c = separated_composite () in
  Alcotest.check_raises "k<1" (Invalid_argument "Kmeans.unsuperclassify: k < 1")
    (fun () -> ignore (Kmeans.unsuperclassify c 0));
  Alcotest.check_raises "k>n"
    (Invalid_argument "Kmeans.unsuperclassify: k=65 > 64 pixels") (fun () ->
      ignore (Kmeans.unsuperclassify c 65))

let test_kmeans_k1 () =
  let c = separated_composite () in
  let r = Kmeans.unsuperclassify c 1 in
  check_bool "all zero" true
    (Image.fold (fun acc v -> acc && v = 0.) true r.Kmeans.labels)

(* Reference Lloyd: the plain algorithm with one array per pixel, a
   squared distance per centroid and a full argmin that sends ties to
   the lowest index, summed in the domain pool's chunk order.
   [Kmeans.unsuperclassify] skips distances with bounds, and must agree
   with it bit for bit. *)
module Lloyd = struct
  let sq_dist a b =
    let acc = ref 0. in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc

  let assign centroids v =
    let best = ref 0 and best_d = ref (sq_dist centroids.(0) v) in
    for j = 1 to Array.length centroids - 1 do
      let d = sq_dist centroids.(j) v in
      if d < !best_d then begin
        best := j;
        best_d := d
      end
    done;
    !best

  let seed_centroids rng points k =
    let n = Array.length points in
    let centroids = Array.make k points.(0) in
    centroids.(0) <- points.(Rng.int rng n);
    let dists = Array.map (fun p -> sq_dist p centroids.(0)) points in
    for j = 1 to k - 1 do
      let total = Array.fold_left ( +. ) 0. dists in
      let chosen =
        if total <= 0. then Rng.int rng n
        else begin
          let target = Rng.float rng total in
          let acc = ref 0. and idx = ref (n - 1) in
          (try
             Array.iteri
               (fun i d ->
                 acc := !acc +. d;
                 if !acc >= target then begin
                   idx := i;
                   raise Exit
                 end)
               dists
           with Exit -> ());
          !idx
        end
      in
      centroids.(j) <- points.(chosen);
      Array.iteri
        (fun i p -> dists.(i) <- Float.min dists.(i) (sq_dist p centroids.(j)))
        points
    done;
    Array.map Array.copy centroids

  (* [f lo hi] per pool chunk, in chunk order *)
  let chunks n f =
    let g = Gaea_par.Pool.default_grain in
    List.init ((n + g - 1) / g) (fun c -> f (c * g) (min n ((c + 1) * g)))

  let run ?(seed = 42) ?(max_iter = 100) composite k =
    let n = Composite.n_pixels composite in
    let dims = Composite.n_bands composite in
    let points = Array.init n (Composite.pixel_vector composite) in
    let centroids = ref (seed_centroids (Rng.create seed) points k) in
    let labels = Array.make n 0 in
    let iterations = ref 0 and changed = ref true in
    while !changed && !iterations < max_iter do
      incr iterations;
      changed := false;
      let cs = !centroids in
      Array.iteri
        (fun i p ->
          let j = assign cs p in
          if j <> labels.(i) then begin
            labels.(i) <- j;
            changed := true
          end)
        points;
      if !changed then begin
        let sums = Array.init k (fun _ -> Array.make dims 0.) in
        let counts = Array.make k 0 in
        List.iter
          (fun (ps, pc) ->
            for j = 0 to k - 1 do
              counts.(j) <- counts.(j) + pc.(j);
              for d = 0 to dims - 1 do
                sums.(j).(d) <- sums.(j).(d) +. ps.(j).(d)
              done
            done)
          (chunks n (fun lo hi ->
               let ps = Array.init k (fun _ -> Array.make dims 0.) in
               let pc = Array.make k 0 in
               for i = lo to hi - 1 do
                 let j = labels.(i) in
                 pc.(j) <- pc.(j) + 1;
                 for d = 0 to dims - 1 do
                   ps.(j).(d) <- ps.(j).(d) +. points.(i).(d)
                 done
               done;
               (ps, pc)));
        centroids :=
          Array.mapi
            (fun j s ->
              if counts.(j) = 0 then cs.(j)
              else Array.map (fun x -> x /. float_of_int counts.(j)) s)
            sums
      end
    done;
    let cs = !centroids in
    let order = Array.init k (fun j -> j) in
    Array.sort (fun a b -> compare cs.(a) cs.(b)) order;
    let rank = Array.make k 0 in
    Array.iteri (fun r j -> rank.(j) <- r) order;
    let inertia =
      List.fold_left ( +. ) 0.
        (chunks n (fun lo hi ->
             let acc = ref 0. in
             for i = lo to hi - 1 do
               acc := !acc +. sq_dist points.(i) cs.(labels.(i))
             done;
             !acc))
    in
    let ncol = Composite.ncol composite in
    { Kmeans.labels =
        Image.init ~nrow:(Composite.nrow composite) ~ncol Pixel.Int4 (fun r c ->
            float_of_int rank.(labels.((r * ncol) + c)));
      centroids = Array.map (fun j -> cs.(j)) order;
      iterations = !iterations;
      inertia;
      distances = !iterations * n * k;
      incremental = false }
end

let same_kmeans (a : Kmeans.result) (b : Kmeans.result) =
  Image.equal a.Kmeans.labels b.Kmeans.labels
  && Array.length a.Kmeans.centroids = Array.length b.Kmeans.centroids
  && Array.for_all2
       (fun x y -> Array.map bits x = Array.map bits y)
       a.Kmeans.centroids b.Kmeans.centroids
  && a.Kmeans.iterations = b.Kmeans.iterations
  && bits a.Kmeans.inertia = bits b.Kmeans.inertia

(* Small composites built from a seed: [kind] 0 holds integers 0..3
   (many ties and duplicate pixels), 1 random floats, 2 copies of three
   random pixels, 3 random floats with every other band constant, 4
   the hand-made tie 0, 10, 5 (5 is as near 0 as 10), 5 multiples of
   1e-162 (their squares underflow, so distinct distances tie at 0) and
   6 integers with a NaN or infinite pixel now and then.  Kinds 7-11
   sit at the boundary of the exact incremental update: 7 integers
   whose largest magnitude M has M * n just below 2^53, 8 M * n at or
   above it (the chunked path), 9 integers with -0. pixels, 10 Int2
   bands and 11 Int4 bands.  One shape in ten spans two pool chunks.
   [kpick] 0 is k = 1, 1 is k = n (capped at 12 on the two-chunk
   shape), else k is drawn from 1..min n 12. *)
let kmeans_case (shape, dims, kind, kpick, seed) =
  let rs = Random.State.make [| seed |] in
  let nrow, ncol =
    if kind = 4 then (1, 3)
    else if shape = 0 then (65, 64)
    else (1 + Random.State.int rs 12, 1 + Random.State.int rs 12)
  in
  let n = nrow * ncol and dims = if kind = 4 then 1 else dims in
  let palette =
    Array.init 3 (fun _ -> Array.init dims (fun _ -> Random.State.float rs 50.))
  in
  let which = Array.init n (fun _ -> Random.State.int rs 3) in
  (* kind 7: the largest M with M * n < 2^53; kind 8: the least M
     with M * n >= 2^53 *)
  let big_m =
    if kind = 7 then ((1 lsl 53) - 1) / n else ((1 lsl 53) + n - 1) / n
  in
  let ptype =
    match kind with 10 -> Pixel.Int2 | 11 -> Pixel.Int4 | _ -> Pixel.Float8
  in
  let band b =
    Image.init ~nrow ~ncol ptype (fun r c ->
        let i = (r * ncol) + c in
        match kind with
        | 0 -> float_of_int (Random.State.int rs 4)
        | 1 -> Random.State.float rs 100.
        | 2 -> palette.(which.(i)).(b)
        | 3 -> if b mod 2 = 1 then 7. else Random.State.float rs 100.
        | 4 -> [| 0.; 10.; 5. |].(i)
        | 5 -> 1e-162 *. float_of_int (Random.State.int rs 5)
        | 7 | 8 ->
          if i = 0 && b = 0 then float_of_int big_m
          else float_of_int (big_m / 4 * (Random.State.int rs 9 - 4))
        | 9 -> [| -0.; 0.; -0.; 1.; -2.; 3. |].(Random.State.int rs 6)
        | 10 -> float_of_int (Random.State.int rs 65536 - 32768)
        | 11 ->
          float_of_int (Random.State.int rs 1_000_000 * 2147 - 1_073_741_824)
        | _ -> (
          match Random.State.int rs 40 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | v -> float_of_int (v mod 4)))
  in
  let comp = Composite.of_bands (List.init dims band) in
  let k =
    match kpick with
    | 0 -> 1
    | 1 -> if n <= 144 then n else 12
    | _ -> 1 + Random.State.int rs (min n 12)
  in
  (comp, k, seed)

(* whether k-means may keep its centroid sums across iterations: every
   band value an integer and max |v| * n below 2^53 *)
let exact_sums comp =
  let n = Composite.n_pixels comp in
  let vs =
    List.concat_map
      (fun b -> Array.to_list (Image.unsafe_data b))
      (Composite.bands comp)
  in
  List.for_all Float.is_integer vs
  && Float.of_int n
     *. List.fold_left (fun m v -> Float.max m (Float.abs v)) 0. vs
     < 0x1p53

(* [max_iter] 1 ends on the first assignment, which the seeding pass
   supplies; 2 and 3 end on the first bounded steps *)
let kmeans_oracle_prop =
  let gen =
    QCheck.Gen.(
      map
        (fun ((shape, dims, kind, kpick), (seed, max_iter)) ->
          (shape, dims, kind, kpick, seed, max_iter))
        (pair
           (quad (int_bound 9) (int_range 1 4) (int_bound 11) (int_bound 3))
           (pair (int_bound 1_000_000) (oneofl [ 1; 2; 3; 100 ]))))
  in
  let print (shape, dims, kind, kpick, seed, max_iter) =
    Printf.sprintf
      "shape %d, %d band(s), kind %d, kpick %d, seed %d, max_iter %d" shape
      dims kind kpick seed max_iter
  in
  QCheck.Test.make ~name:"matches reference Lloyd" ~count:400
    (QCheck.make ~print gen)
    (fun (shape, dims, kind, kpick, seed, max_iter) ->
      let comp, k, seed = kmeans_case (shape, dims, kind, kpick, seed) in
      let expected = Lloyd.run ~seed ~max_iter comp k in
      let exact = exact_sums comp in
      List.for_all
        (fun lanes ->
          let r =
            at_lanes lanes (fun () -> Kmeans.unsuperclassify ~seed ~max_iter comp k)
          in
          same_kmeans expected r && r.Kmeans.incremental = exact)
        [ 1; 2 ])

(* Fig 3's P20 scene, pinned to the plain Lloyd loop the bounded one
   replaced: its label hash, centroid bits, iteration count and inertia
   bits *)
let p20_centroid_bits =
  [| [| 0x406206b0fa89a66bL; 0x40671cb8fd736fccL; 0x4050705765994f05L |];
     [| 0x406261fcebfdf2a9L; 0x40681f50e3197af5L; 0x405173793ec29b9eL |];
     [| 0x40627bbf4a8c6cbdL; 0x406725c0f57e3fb5L; 0x40529643b5f3a89cL |];
     [| 0x40631a061381ffaeL; 0x40675c5cbdf61611L; 0x40507c8fe8f971b0L |];
     [| 0x4065809fee3add04L; 0x40513ec0238a45f8L; 0x4063ab624a698280L |];
     [| 0x40681e807fd56389L; 0x4066b219f75837edL; 0x404b99ccbbc16a32L |];
     [| 0x4068df8b25ab6f79L; 0x405b745f53cbb946L; 0x405ba2d5b7bc592dL |];
     [| 0x406908e228d59858L; 0x405d1fa80c907da5L; 0x405a11857f36f826L |];
     [| 0x4069a69966996699L; 0x405b668ca68ca68dL; 0x405a25da25da25daL |];
     [| 0x4069b8da2bfc7b29L; 0x40630d8ffb4ee1ccL; 0x4054a45347d81e7fL |];
     [| 0x406a1e426df134a7L; 0x4062d4e2d8b18832L; 0x4052a915523d353bL |];
     [| 0x406acaf88bf0ca00L; 0x406332cdf4be70ddL; 0x40543723bee5af62L |] |]

let test_kmeans_p20_pinned () =
  let comp =
    (Synthetic.landsat_scene ~seed:1 ~nrow:128 ~ncol:128 ()).Synthetic.composite
  in
  List.iter
    (fun lanes ->
      let r = at_lanes lanes (fun () -> Kmeans.unsuperclassify comp 12) in
      let at = Printf.sprintf " @%d" lanes in
      check_int ("label hash" ^ at) 2751130003890160826
        (Image.content_hash r.Kmeans.labels);
      check_bool ("centroid bits" ^ at) true
        (Array.map (Array.map bits) r.Kmeans.centroids = p20_centroid_bits);
      check_int ("iterations" ^ at) 94 r.Kmeans.iterations;
      check_bool ("inertia bits" ^ at) true
        (bits r.Kmeans.inertia = 0x412509a82dbd10aaL);
      check_bool ("skips distances" ^ at) true
        (r.Kmeans.distances < r.Kmeans.iterations * 128 * 128 * 12 / 2);
      check_bool ("incremental update" ^ at) true r.Kmeans.incremental)
    [ 1; 2 ];
  check_bool "the reference agrees" true
    (same_kmeans (Lloyd.run comp 12) (Kmeans.unsuperclassify comp 12))

(* Fig 5's change image: k = 5 on the second standardized component of
   two 6-band scenes, pinned to the plain Lloyd loop the bounded one
   replaced.  Its Float8 values take the chunked update, as the P20
   scene's integers take the incremental one. *)
let fig5_centroid_bits =
  [| 0xc0037c14033ef428L; 0xbff9c42420a0500eL; 0xbfdee364e92bc638L;
     0x3feae610960b2e12L; 0x40008f811c8de6faL |]

let test_kmeans_fig5_pinned () =
  let scene seed =
    Composite.bands
      (Synthetic.landsat_scene ~seed ~nrow:128 ~ncol:128 ()).Synthetic.composite
  in
  let spca = Pca.spca ~components:2 (Composite.of_bands (scene 1 @ scene 2)) in
  let comp = Composite.of_bands [ Composite.band spca.Pca.components 1 ] in
  List.iter
    (fun lanes ->
      let r = at_lanes lanes (fun () -> Kmeans.unsuperclassify comp 5) in
      let at = Printf.sprintf " @%d" lanes in
      check_int ("label hash" ^ at) 1381050554751042746
        (Image.content_hash r.Kmeans.labels);
      check_bool ("centroid bits" ^ at) true
        (Array.map (fun c -> bits c.(0)) r.Kmeans.centroids = fig5_centroid_bits);
      check_int ("iterations" ^ at) 13 r.Kmeans.iterations;
      check_bool ("inertia bits" ^ at) true
        (bits r.Kmeans.inertia = 0x4094dd16b2e6bcebL);
      check_bool ("chunked update" ^ at) false r.Kmeans.incremental)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Maxlike                                                             *)
(* ------------------------------------------------------------------ *)

let test_maxlike_recovers_truth () =
  let scene = Synthetic.landsat_scene ~seed:11 ~nrow:24 ~ncol:24 ~classes:3 () in
  let model = Maxlike.train scene.Synthetic.composite scene.Synthetic.truth in
  check_int "three classes" 3 (List.length model);
  let predicted = Maxlike.classify model scene.Synthetic.composite in
  let agreement = Imgstats.agreement scene.Synthetic.truth predicted in
  check_bool
    (Printf.sprintf "high self-agreement (%.2f)" agreement)
    true (agreement > 0.85)

let test_maxlike_loglik_prefers_own_mean () =
  let scene = Synthetic.landsat_scene ~seed:12 ~nrow:16 ~ncol:16 ~classes:2 () in
  let model = Maxlike.train scene.Synthetic.composite scene.Synthetic.truth in
  match model with
  | [ c0; c1 ] ->
    check_bool "own mean likelier (c0)" true
      (Maxlike.log_likelihood c0 c0.Maxlike.mean
       > Maxlike.log_likelihood c1 c0.Maxlike.mean)
  | _ -> Alcotest.fail "expected 2 classes"

let test_maxlike_unlabelled_skipped () =
  let comp = separated_composite () in
  let truth =
    Image.init ~nrow:8 ~ncol:8 Pixel.Int4 (fun r _ ->
        if r = 0 then -1. (* unlabelled *) else if r < 4 then 0. else 1.)
  in
  let model = Maxlike.train comp truth in
  check_int "two classes despite holes" 2 (List.length model)

(* the flat classify kernel against the per-pixel argmax of
   [log_likelihood], first class on a tie *)
let test_maxlike_matches_loglik () =
  let scene = Synthetic.landsat_scene ~seed:4 ~nrow:20 ~ncol:20 ~bands:4 () in
  let comp = scene.Synthetic.composite in
  let model = Maxlike.train comp scene.Synthetic.truth in
  let expected =
    Image.init ~nrow:20 ~ncol:20 Pixel.Int4 (fun r c ->
        let v = Composite.pixel_vector comp ((r * 20) + c) in
        fst
          (List.fold_left
             (fun (best, best_ll) cm ->
               let ll = Maxlike.log_likelihood cm v in
               if ll > best_ll then (float_of_int cm.Maxlike.class_id, ll)
               else (best, best_ll))
             (-1., neg_infinity) model))
  in
  check_bool "same class image" true
    (Image.equal expected (Maxlike.classify model comp));
  Alcotest.check_raises "band count"
    (Invalid_argument "Maxlike.classify: class 0 has 4 bands, the image 1")
    (fun () -> ignore (Maxlike.classify model (separated_composite ())))

let test_maxlike_no_labels () =
  let comp = separated_composite () in
  let truth = Image.init ~nrow:8 ~ncol:8 Pixel.Int4 (fun _ _ -> -1.) in
  Alcotest.check_raises "no labels"
    (Invalid_argument "Maxlike.train: no labelled pixels") (fun () ->
      ignore (Maxlike.train comp truth))

(* ------------------------------------------------------------------ *)
(* PCA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pca_variance_concentration () =
  (* band2 = 2*band1 + noise: the first PC should explain almost all *)
  let rng = Rng.create 8 in
  let b1 = Image.init ~nrow:16 ~ncol:16 Pixel.Float8 (fun _ _ -> Rng.float rng 100.) in
  let b2 = Image.map (fun v -> (2. *. v) +. 0.001) b1 in
  let r = Pca.pca (Composite.of_bands [ b1; b2 ]) in
  check_bool "first component dominates" true (r.Pca.explained.(0) > 0.99);
  check_int "components" 2 (Composite.n_bands r.Pca.components)

let test_pca_components_uncorrelated () =
  let scene = Synthetic.landsat_scene ~seed:15 ~nrow:16 ~ncol:16 ~bands:3 () in
  let r = Pca.pca scene.Synthetic.composite in
  let cov = Matrix.covariance (Composite.to_matrix r.Pca.components) in
  check_close 1e-6 "pc1 pc2 cov 0" 0. (Matrix.get cov 0 1);
  check_close 1e-6 "pc1 pc3 cov 0" 0. (Matrix.get cov 0 2)

let test_spca_scale_invariant () =
  (* standardized PCA ignores per-band scaling *)
  let scene = Synthetic.landsat_scene ~seed:16 ~nrow:12 ~ncol:12 ~bands:2 () in
  let bands = Composite.bands scene.Synthetic.composite in
  let scaled =
    Composite.of_bands
      (List.mapi
         (fun i b -> if i = 0 then Band_math.scale 100. b else b)
         bands)
  in
  let r1 = Pca.spca scene.Synthetic.composite in
  let r2 = Pca.spca scaled in
  Array.iteri
    (fun i v -> check_close 1e-6 (Printf.sprintf "eig %d" i) v r2.Pca.eigenvalues.(i))
    r1.Pca.eigenvalues

(* the content hash of the standardized components of a fixed
   128x128x6 scene, as the covariance-diagonal composition produced
   them; the Float8 components take k-means' chunked update *)
let test_spca_pinned () =
  let comp =
    (Synthetic.landsat_scene ~seed:1 ~nrow:128 ~ncol:128 ~bands:6 ())
      .Synthetic.composite
  in
  List.iter
    (fun lanes ->
      let r = at_lanes lanes (fun () -> Pca.spca ~components:2 comp) in
      check_int (Printf.sprintf "spca hash @%d" lanes) 2852384272758623835
        (Composite.content_hash r.Pca.components);
      check_bool
        (Printf.sprintf "chunked update @%d" lanes)
        false
        (at_lanes lanes (fun () -> Kmeans.unsuperclassify r.Pca.components 5))
          .Kmeans.incremental)
    [ 1; 2 ]

let test_pca_validation () =
  let scene = Synthetic.landsat_scene ~seed:17 ~nrow:8 ~ncol:8 ~bands:2 () in
  Alcotest.check_raises "components range"
    (Invalid_argument "Pca: components=3 outside 1..2") (fun () ->
      ignore (Pca.pca ~components:3 scene.Synthetic.composite))

(* ------------------------------------------------------------------ *)
(* Interpolation                                                       *)
(* ------------------------------------------------------------------ *)

let test_temporal_interpolation () =
  let t1 = Gaea_geo.Abstime.of_ymd 1986 1 1 in
  let t2 = Gaea_geo.Abstime.of_ymd 1986 1 11 in
  let mid = Gaea_geo.Abstime.of_ymd 1986 1 6 in
  let i1 = const_img 10. and i2 = const_img 20. in
  check_float "at t1" 10.
    (Image.get (Interpolate.temporal_linear ~at:t1 (t1, i1) (t2, i2)) 0 0);
  check_float "at mid" 15.
    (Image.get (Interpolate.temporal_linear ~at:mid (t1, i1) (t2, i2)) 0 0);
  (* extrapolation *)
  let t3 = Gaea_geo.Abstime.of_ymd 1986 1 21 in
  check_float "extrapolated" 30.
    (Image.get (Interpolate.temporal_linear ~at:t3 (t1, i1) (t2, i2)) 0 0);
  Alcotest.check_raises "same time"
    (Invalid_argument "Interpolate.temporal_linear: identical timestamps")
    (fun () ->
      ignore (Interpolate.temporal_linear ~at:t1 (t1, i1) (t1, i2)))

let test_resize () =
  let img = Image.init ~nrow:4 ~ncol:4 Pixel.Float8 (fun r c -> float_of_int ((r * 4) + c)) in
  let up = Interpolate.resize_nearest img ~nrow:8 ~ncol:8 in
  check_int "upsampled rows" 8 (Image.img_nrow up);
  check_float "corner preserved" 0. (Image.get up 0 0);
  let down = Interpolate.resize_bilinear img ~nrow:2 ~ncol:2 in
  check_int "down rows" 2 (Image.img_nrow down);
  (* bilinear of a linear ramp stays within the value range *)
  let lo, hi = Image.min_max down in
  check_bool "within range" true (lo >= 0. && hi <= 15.);
  (* same-size bilinear resize is identity on pixel centers *)
  let same = Interpolate.resize_bilinear img ~nrow:4 ~ncol:4 in
  check_close 1e-9 "identity" (Image.get img 2 3) (Image.get same 2 3)

let test_fill_missing () =
  let img = Image.init ~nrow:4 ~ncol:4 Pixel.Float8 (fun _ _ -> 5.) in
  Image.set img 1 1 Float.nan;
  Image.set img 2 2 Float.nan;
  let filled = Interpolate.fill_missing img in
  check_bool "no nan left" true
    (Image.fold (fun acc v -> acc && not (Float.is_nan v)) true filled);
  check_float "filled value" 5. (Image.get filled 1 1);
  check_float "untouched" 5. (Image.get filled 0 0)

let test_fill_missing_all () =
  let img = Image.init ~nrow:3 ~ncol:3 Pixel.Float8 (fun _ _ -> Float.nan) in
  let filled = Interpolate.fill_missing img in
  check_bool "no nan" true
    (Image.fold (fun acc v -> acc && not (Float.is_nan v)) true filled)

(* ------------------------------------------------------------------ *)
(* Synthetic                                                           *)
(* ------------------------------------------------------------------ *)

let test_synthetic_deterministic () =
  let s1 = Synthetic.landsat_scene ~seed:9 ~nrow:16 ~ncol:16 () in
  let s2 = Synthetic.landsat_scene ~seed:9 ~nrow:16 ~ncol:16 () in
  check_bool "composites equal" true
    (Composite.equal s1.Synthetic.composite s2.Synthetic.composite);
  check_bool "truth equal" true (Image.equal s1.Synthetic.truth s2.Synthetic.truth);
  let s3 = Synthetic.landsat_scene ~seed:10 ~nrow:16 ~ncol:16 () in
  check_bool "different seed differs" false
    (Composite.equal s1.Synthetic.composite s3.Synthetic.composite)

let test_synthetic_truth_classes () =
  let truth = Synthetic.landcover_truth ~seed:2 ~nrow:32 ~ncol:32 ~classes:4 in
  let lo, hi = Image.min_max truth in
  check_bool "labels in 0..3" true (lo >= 0. && hi <= 3.)

let test_synthetic_noise_range () =
  let noise = Synthetic.value_noise ~seed:1 ~nrow:16 ~ncol:16 () in
  let lo, hi = Image.min_max noise in
  check_bool "in [0,1]" true (lo >= 0. && hi <= 1.)

let test_synthetic_rainfall () =
  let rain = Synthetic.rainfall_map ~seed:1 ~nrow:16 ~ncol:16 ~max_mm:500. () in
  let lo, hi = Image.min_max rain in
  check_bool "range" true (lo >= 0. && hi <= 500.)

let test_red_nir_vegetation_signal () =
  (* higher vegetation shift should raise mean NDVI *)
  let r0, n0 = Synthetic.red_nir_pair ~seed:5 ~nrow:24 ~ncol:24 () in
  let r1, n1 =
    Synthetic.red_nir_pair ~seed:5 ~nrow:24 ~ncol:24 ~vegetation_shift:0.3 ()
  in
  let m0 = Ndvi.mean_ndvi (Ndvi.ndvi ~red:r0 ~nir:n0 ()) in
  let m1 = Ndvi.mean_ndvi (Ndvi.ndvi ~red:r1 ~nir:n1 ()) in
  check_bool "greening raises NDVI" true (m1 > m0)

(* Value noise as a per-pixel formula: every octave hashes the four
   corners of the pixel's cell through a boxed accumulator and adds its
   weighted bilinear sample, from 0.; the sum is divided by the total
   weight.  [value_noise] must match it bit for bit. *)
let reference_lattice_value seed octave gx gy =
  let h = ref (Int64.of_int ((seed * 0x9E3779B1) lxor octave)) in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001B3L;
    h := Int64.logxor !h (Int64.shift_right_logical !h 29)
  in
  mix (gx * 2654435761);
  mix (gy * 40503);
  Int64.to_float (Int64.logand !h 0xFFFFFFL) /. 16777215.

let reference_noise ~seed ~nrow ~ncol ~octaves ~lattice =
  let smoothstep t = t *. t *. (3. -. (2. *. t)) in
  let sample octave cell r c =
    let fr = float_of_int r /. float_of_int cell
    and fc = float_of_int c /. float_of_int cell in
    let r0 = int_of_float (Float.floor fr)
    and c0 = int_of_float (Float.floor fc) in
    let dr = smoothstep (fr -. float_of_int r0)
    and dc = smoothstep (fc -. float_of_int c0) in
    let v00 = reference_lattice_value seed octave c0 r0
    and v01 = reference_lattice_value seed octave (c0 + 1) r0
    and v10 = reference_lattice_value seed octave c0 (r0 + 1)
    and v11 = reference_lattice_value seed octave (c0 + 1) (r0 + 1) in
    ((v00 *. (1. -. dc)) +. (v01 *. dc)) *. (1. -. dr)
    +. (((v10 *. (1. -. dc)) +. (v11 *. dc)) *. dr)
  in
  let total_weight = ref 0. and weights = Array.make octaves 0. in
  for o = 0 to octaves - 1 do
    weights.(o) <- 1. /. float_of_int (1 lsl o);
    total_weight := !total_weight +. weights.(o)
  done;
  Array.init (nrow * ncol) (fun i ->
      let acc = ref 0. in
      for o = 0 to octaves - 1 do
        let cell = Stdlib.max 1 (lattice lsr o) in
        acc := !acc +. (weights.(o) *. sample o cell (i / ncol) (i mod ncol))
      done;
      !acc /. !total_weight)

let noise_sizes = [ (1, 1); (2, 2); (5, 37); (33, 7); (128, 128) ]
let noise_seeds = [ 1; 4242; -1; -987654321 ]

let check_bits what expected img =
  let got = Image.unsafe_data img in
  check_int (what ^ " size") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i v ->
      if bits v <> bits got.(i) then
        Alcotest.failf "%s: pixel %d is %h, the formula gives %h" what i
          got.(i) v)
    expected

let test_value_noise_oracle () =
  List.iter
    (fun (nrow, ncol) ->
      List.iter
        (fun seed ->
          for octaves = 1 to 6 do
            (* 200 is coarser than every image *)
            List.iter
              (fun lattice ->
                let what =
                  Printf.sprintf "seed %d %dx%d octaves %d lattice %d" seed
                    nrow ncol octaves lattice
                in
                let img =
                  Synthetic.value_noise ~seed ~nrow ~ncol ~octaves ~lattice ()
                in
                check_bool (what ^ " Float8") true
                  (Image.img_type img = Pixel.Float8);
                check_bits what
                  (reference_noise ~seed ~nrow ~ncol ~octaves ~lattice)
                  img)
              [ 1; 3; 16; 200 ]
          done)
        noise_seeds)
    noise_sizes

(* synth_band is 255 times the default noise (3 octaves, lattice 16),
   a Float8 image labelled "scale" as it was when Band_math.scale made
   it *)
let test_synth_band_oracle () =
  let reg = Gaea_adt.Registry.with_builtins () in
  let module Value = Gaea_adt.Value in
  let band seed nrow ncol =
    Gaea_adt.Registry.apply reg "synth_band"
      [ Value.int seed; Value.int nrow; Value.int ncol ]
  in
  List.iter
    (fun (nrow, ncol) ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "synth_band(%d, %d, %d)" seed nrow ncol in
          match Result.bind (band seed nrow ncol) Value.to_image with
          | Error e -> Alcotest.failf "%s: %s" what e
          | Ok img ->
            Alcotest.(check string) (what ^ " label") "scale"
              (Image.img_label img);
            check_bits what
              (Array.map
                 (fun v -> 255. *. v)
                 (reference_noise ~seed ~nrow ~ncol ~octaves:3 ~lattice:16))
              img)
        noise_seeds)
    noise_sizes;
  List.iter
    (fun (nrow, ncol, msg) ->
      match band 1 nrow ncol with
      | Ok _ -> Alcotest.failf "synth_band(1, %d, %d) succeeded" nrow ncol
      | Error e -> Alcotest.(check string) "error" ("synth_band: " ^ msg) e)
    [ (0, 4, "Image: non-positive dims 0x4");
      (4, -1, "Image: non-positive dims 4x-1");
      (max_int, 3, Printf.sprintf "Image: dims %dx3 exceed the largest image"
                     max_int) ]

let test_value_noise_errors () =
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  (* argument checks come before the dimension check *)
  raises "Synthetic.value_noise: octaves < 1" (fun () ->
      Synthetic.value_noise ~seed:1 ~nrow:0 ~ncol:0 ~octaves:0 ());
  raises "Synthetic.value_noise: lattice < 1" (fun () ->
      Synthetic.value_noise ~seed:1 ~nrow:0 ~ncol:0 ~lattice:0 ());
  raises "Image: non-positive dims 0x3" (fun () ->
      Synthetic.value_noise ~seed:1 ~nrow:0 ~ncol:3 ());
  raises "Image: non-positive dims 3x-2" (fun () ->
      Synthetic.rainfall_map ~seed:1 ~nrow:3 ~ncol:(-2) ())

(* content hashes of the generated scenes, recorded when every
   generator filled its images pixel by pixel through Image.init and
   Image.map *)
let test_synthetic_pinned () =
  let h = Image.content_hash in
  let scene = Synthetic.landsat_scene ~seed:1 ~nrow:64 ~ncol:48 () in
  Alcotest.(check (list int)) "landsat bands"
    [ 4588604424478470869; 180160931422221013; 1753623643420832469 ]
    (List.map h (Composite.bands scene.Synthetic.composite));
  check_int "landsat truth" 3681033016812701070 (h scene.Synthetic.truth);
  let red, nir =
    Synthetic.red_nir_pair ~seed:1 ~nrow:64 ~ncol:48 ~vegetation_shift:0.15 ()
  in
  check_int "red" 499599845616726741 (h red);
  check_int "nir" 421200268509786837 (h nir);
  check_int "rainfall" 3819930295559980430
    (h (Synthetic.rainfall_map ~seed:1 ~nrow:64 ~ncol:48 ~max_mm:37.3 ()));
  check_int "truth" 3436149787074430350
    (h (Synthetic.landcover_truth ~seed:1 ~nrow:64 ~ncol:48 ~classes:7));
  Alcotest.(check (list string)) "labels"
    [ "band-1"; "band-2"; "band-3"; "truth"; "red"; "nir"; "rainfall-mm" ]
    (List.map Image.img_label
       (Composite.bands scene.Synthetic.composite
       @ [ scene.Synthetic.truth; red; nir;
           Synthetic.rainfall_map ~seed:1 ~nrow:2 ~ncol:2 () ]))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)
let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "raster"
    [ ( "rng",
        [ tc "deterministic" test_rng_deterministic;
          tc "gaussian moments" test_rng_gaussian_moments ] );
      qsuite "rng-props" [ rng_int_bounds_prop ];
      ( "pixel",
        [ tc "quantize" test_pixel_quantize; tc "meta" test_pixel_meta ] );
      ( "image",
        [ tc "basics" test_image_basics;
          tc "quantizes on write" test_image_quantizes_on_write;
          tc "map2 mismatch" test_image_map2_mismatch;
          tc "hash and equal" test_image_hash_and_equal;
          tc "hash matches boxed reference" test_image_hash_matches_boxed_reference;
          tc "min_max skips nan" test_image_min_max_skips_nan;
          tc "of_array validation" test_image_of_array_validation ] );
      ( "matrix",
        [ tc "mul identity" test_matrix_mul_identity;
          tc "transpose" test_matrix_transpose;
          tc "mul known" test_matrix_mul_known;
          tc "center columns" test_matrix_center;
          tc "covariance/correlation" test_matrix_covariance;
          tc "constant column" test_matrix_correlation_constant_column;
          tc "standardize needs two rows" test_standardize_one_row ] );
      qsuite "matrix-props"
        [ matrix_transpose_mul_prop; standardize_parity_prop ];
      ( "eigen",
        [ tc "identity" test_eigen_identity;
          tc "known 2x2" test_eigen_known;
          tc "reconstruction" test_eigen_reconstruct;
          tc "rejects asymmetric" test_eigen_rejects_asymmetric;
          tc "explained variance" test_eigen_explained ] );
      ( "band-math",
        [ tc "arithmetic" test_band_math;
          tc "linear combination" test_linear_combination;
          tc "normalize/threshold" test_normalize_threshold;
          tc "ndvi" test_ndvi ] );
      ( "composite",
        [ tc "basics" test_composite;
          tc "matrix roundtrip" test_composite_matrix_roundtrip ] );
      ( "imgstats",
        [ tc "descriptive" test_imgstats;
          tc "agreement/confusion" test_imgstats_agreement ] );
      ( "kmeans",
        [ tc "recovers clusters" test_kmeans_recovers_clusters;
          tc "deterministic" test_kmeans_deterministic;
          tc "inertia vs k" test_kmeans_inertia_decreases_with_k;
          tc "validation" test_kmeans_validation;
          tc "k=1" test_kmeans_k1;
          tc "P20 scene pinned" test_kmeans_p20_pinned;
          tc "Fig 5 change image pinned" test_kmeans_fig5_pinned ] );
      qsuite "kmeans-props" [ kmeans_oracle_prop ];
      ( "maxlike",
        [ tc "recovers truth" test_maxlike_recovers_truth;
          tc "log-likelihood" test_maxlike_loglik_prefers_own_mean;
          tc "unlabelled skipped" test_maxlike_unlabelled_skipped;
          tc "no labels" test_maxlike_no_labels;
          tc "classify = loglik argmax" test_maxlike_matches_loglik ] );
      ( "pca",
        [ tc "variance concentration" test_pca_variance_concentration;
          tc "uncorrelated components" test_pca_components_uncorrelated;
          tc "spca scale invariance" test_spca_scale_invariant;
          tc "spca pinned" test_spca_pinned;
          tc "validation" test_pca_validation ] );
      ( "interpolate",
        [ tc "temporal" test_temporal_interpolation;
          tc "resize" test_resize;
          tc "fill missing" test_fill_missing;
          tc "fill all-missing" test_fill_missing_all ] );
      ( "synthetic",
        [ tc "deterministic" test_synthetic_deterministic;
          tc "truth classes" test_synthetic_truth_classes;
          tc "noise range" test_synthetic_noise_range;
          tc "rainfall" test_synthetic_rainfall;
          tc "vegetation signal" test_red_nir_vegetation_signal;
          tc "value noise = per-pixel formula" test_value_noise_oracle;
          tc "synth_band = 255 x formula" test_synth_band_oracle;
          tc "value noise errors" test_value_noise_errors;
          tc "scenes pinned" test_synthetic_pinned ] ) ]
