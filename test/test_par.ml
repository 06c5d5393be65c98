(* Tests for the domain pool (lib/par) and for the parity invariant the
   parallel raster kernels rely on: chunk layout depends only on
   (lo, hi, grain), reductions combine in ascending chunk order, so a
   kernel produces bit-identical results at any pool size — and the
   fused closure-free kernels are bit-identical to their map/map2/fold
   reference implementations. *)

open Gaea_raster
module Pool = Gaea_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f

(* On a single-core host the adaptive cutoff resolves to max_int and
   every entry point would take the sequential path — all the parity
   tests below would silently compare sequential against sequential.
   Forcing the cutoff to 0 keeps the dispatch machinery engaged
   regardless of the host. *)
let () = Pool.set_min_parallel_work (Some 0)

(* run [f] with the pool forced to [n] lanes, restoring the default *)
let with_size n f =
  let saved = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_covers () =
  with_size 4 (fun () ->
      let n = 100_000 in
      let a = Array.make n 0 in
      Pool.parallel_for ~lo:0 ~hi:n (fun i -> a.(i) <- (i * 2) + 1);
      let all = ref true in
      Array.iteri (fun i v -> if v <> (i * 2) + 1 then all := false) a;
      check_bool "every index written once" true !all)

let test_parallel_for_ranges_partition () =
  with_size 4 (fun () ->
      let n = 50_000 in
      let a = Array.make n 0 in
      Pool.parallel_for_ranges ~grain:1000 ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- a.(i) + 1
          done);
      check_bool "ranges partition the interval" true
        (Array.for_all (( = ) 1) a))

let test_map_chunks_layout_independent_of_size () =
  let layout lanes =
    with_size lanes (fun () ->
        Pool.map_chunks ~grain:1000 ~lo:0 ~hi:10_500 (fun lo hi -> (lo, hi)))
  in
  let l1 = layout 1 and l4 = layout 4 in
  Alcotest.(check (array (pair int int))) "same chunks at any size" l1 l4;
  check_int "ceil(10500/1000) chunks" 11 (Array.length l4);
  let contiguous = ref true in
  Array.iteri
    (fun i (lo, hi) ->
      if lo <> i * 1000 then contiguous := false;
      if hi <> Stdlib.min 10_500 ((i + 1) * 1000) then contiguous := false)
    l4;
  check_bool "chunks contiguous and grain-aligned" true !contiguous

let test_grain_exceeds_range () =
  (* a grain larger than the range degrades to a single chunk covering
     the whole interval, on both the chunked and the iteration paths *)
  with_size 4 (fun () ->
      let chunks =
        Pool.map_chunks ~grain:10_000 ~lo:5 ~hi:105 (fun lo hi -> (lo, hi))
      in
      Alcotest.(check (array (pair int int))) "one whole-range chunk"
        [| (5, 105) |] chunks;
      let a = Array.make 100 0 in
      Pool.parallel_for ~grain:10_000 ~lo:0 ~hi:100 (fun i -> a.(i) <- 1);
      check_bool "covered" true (Array.for_all (( = ) 1) a);
      check_int "empty range has no chunks" 0
        (Array.length (Pool.map_chunks ~grain:10 ~lo:7 ~hi:7 (fun _ _ -> ()))))

let test_reduce_combines_in_chunk_order () =
  (* list append is not commutative: any out-of-order combine shows up *)
  let run lanes =
    with_size lanes (fun () ->
        Pool.parallel_for_reduce ~grain:10 ~lo:0 ~hi:100 ~init:[]
          ~reduce:( @ )
          (fun lo _hi -> [ lo ]))
  in
  Alcotest.(check (list int)) "ascending chunk order"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (run 4);
  Alcotest.(check (list int)) "same at size 1" (run 1) (run 4)

let test_reduce_sum () =
  with_size 4 (fun () ->
      let n = 123_457 in
      let total =
        Pool.parallel_for_reduce ~lo:0 ~hi:n ~init:0 ~reduce:( + )
          (fun lo hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
      in
      check_int "gauss sum" (n * (n - 1) / 2) total)

let test_exception_propagates () =
  with_size 4 (fun () ->
      let raised =
        try
          Pool.parallel_for ~grain:10 ~lo:0 ~hi:1000 (fun i ->
              if i = 777 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      check_bool "body exception re-raised to caller" true raised)

let test_pool_reusable_after_exception () =
  (* a chunk exception must not wedge the pool: the remaining chunks
     still drain and the next dispatch works normally *)
  with_size 4 (fun () ->
      (try
         Pool.parallel_for ~grain:10 ~lo:0 ~hi:1000 (fun i ->
             if i = 500 then failwith "kaboom")
       with Failure _ -> ());
      let n = 10_000 in
      let total =
        Pool.parallel_for_reduce ~grain:100 ~lo:0 ~hi:n ~init:0 ~reduce:( + )
          (fun lo hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
      in
      check_int "pool still dispatches" (n * (n - 1) / 2) total)

let test_nested_region_falls_back () =
  (* a parallel body issuing another parallel call must not deadlock:
     the inner call detects the region and runs sequentially *)
  with_size 4 (fun () ->
      let a = Array.make 10_000 0 in
      Pool.parallel_for_ranges ~grain:10 ~lo:0 ~hi:200 (fun lo hi ->
          for i = lo to hi - 1 do
            Pool.parallel_for ~grain:1 ~lo:0 ~hi:50 (fun j ->
                a.((i * 50) + j) <- 1)
          done);
      check_bool "nested body completed" true (Array.for_all (( = ) 1) a))

let test_set_size_clamps () =
  with_size 1 (fun () ->
      Pool.set_size 99;
      check_int "clamped to max_size" Pool.max_size (Pool.size ());
      Pool.set_size 0;
      check_int "clamped to 1" 1 (Pool.size ()))

let test_set_size_deferred_inside_region () =
  (* resizing from inside a parallel region would deadlock on the
     region mutex; the request is recorded instead and applied at the
     next region entry *)
  with_size 4 (fun () ->
      Pool.parallel_for_ranges ~grain:64 ~lo:0 ~hi:1024 (fun _ _ ->
          Pool.set_size 2);
      check_int "request applied after the region" 2 (Pool.size ());
      (* the resized pool dispatches fine *)
      let a = Array.make 5000 0 in
      Pool.parallel_for ~lo:0 ~hi:5000 (fun i -> a.(i) <- 1);
      check_bool "resized pool works" true (Array.for_all (( = ) 1) a))

let test_cutoff_override () =
  Fun.protect
    ~finally:(fun () -> Pool.set_min_parallel_work (Some 0))
    (fun () ->
      Pool.set_min_parallel_work (Some 123);
      check_int "override respected" 123 (Pool.min_parallel_work ());
      (* a cutoff above the range size forces the sequential path;
         results are unchanged *)
      Pool.set_min_parallel_work (Some max_int);
      with_size 4 (fun () ->
          let n = 10_000 in
          let a = Array.make n 0 in
          Pool.parallel_for ~lo:0 ~hi:n (fun i -> a.(i) <- i + 1);
          let ok = ref true in
          Array.iteri (fun i v -> if v <> i + 1 then ok := false) a;
          check_bool "sequential fallback correct" true !ok))

(* ------------------------------------------------------------------ *)
(* Parity: kernels are bit-identical at pool sizes 1, 2 and 8.         *)
(* 72x72 = 5184 pixels > default grain, so multi-lane runs really      *)
(* take the multi-chunk path.                                          *)
(* ------------------------------------------------------------------ *)

let scene = lazy (Synthetic.landsat_scene ~seed:5 ~nrow:72 ~ncol:72 ())
let par_sizes = [ 2; 8 ]

let test_parity_kmeans () =
  let s = Lazy.force scene in
  let run lanes =
    with_size lanes (fun () -> Kmeans.unsuperclassify ~seed:3 s.Synthetic.composite 6)
  in
  let r1 = run 1 in
  List.iter
    (fun lanes ->
      let r = run lanes in
      check_bool
        (Printf.sprintf "labels bit-identical @%d" lanes)
        true
        (Image.equal r1.Kmeans.labels r.Kmeans.labels);
      check_bool
        (Printf.sprintf "centroids bit-identical @%d" lanes)
        true
        (r1.Kmeans.centroids = r.Kmeans.centroids);
      check_bool
        (Printf.sprintf "inertia bit-identical @%d" lanes)
        true
        (Float.equal r1.Kmeans.inertia r.Kmeans.inertia);
      check_int
        (Printf.sprintf "same iterations @%d" lanes)
        r1.Kmeans.iterations r.Kmeans.iterations)
    par_sizes

let test_parity_maxlike () =
  let s = Lazy.force scene in
  let model = Maxlike.train s.Synthetic.composite s.Synthetic.truth in
  let c1 = with_size 1 (fun () -> Maxlike.classify model s.Synthetic.composite) in
  List.iter
    (fun lanes ->
      let c = with_size lanes (fun () -> Maxlike.classify model s.Synthetic.composite) in
      check_bool
        (Printf.sprintf "labels bit-identical @%d" lanes)
        true (Image.equal c1 c))
    par_sizes

let test_parity_composite_matrix () =
  let s = Lazy.force scene in
  let comp = s.Synthetic.composite in
  let m1 = with_size 1 (fun () -> Composite.to_matrix comp) in
  let back lanes =
    with_size lanes (fun () ->
        Composite.of_matrix ~nrow:(Composite.nrow comp)
          ~ncol:(Composite.ncol comp) Pixel.Float8 m1)
  in
  let b1 = back 1 in
  List.iter
    (fun lanes ->
      let m = with_size lanes (fun () -> Composite.to_matrix comp) in
      check_bool
        (Printf.sprintf "to_matrix bit-identical @%d" lanes)
        true (Matrix.equal m1 m);
      check_bool
        (Printf.sprintf "of_matrix bit-identical @%d" lanes)
        true
        (Composite.equal b1 (back lanes)))
    par_sizes

let test_parity_ndvi () =
  let red, nir = Synthetic.red_nir_pair ~seed:8 ~nrow:72 ~ncol:72 () in
  let n1 = with_size 1 (fun () -> Ndvi.ndvi ~red ~nir ()) in
  List.iter
    (fun lanes ->
      let n = with_size lanes (fun () -> Ndvi.ndvi ~red ~nir ()) in
      check_bool
        (Printf.sprintf "ndvi bit-identical @%d" lanes)
        true (Image.equal n1 n))
    par_sizes

let test_parity_covariance () =
  let s = Lazy.force scene in
  let obs = Composite.to_matrix s.Synthetic.composite in
  let c1 = with_size 1 (fun () -> Matrix.covariance obs) in
  List.iter
    (fun lanes ->
      let c = with_size lanes (fun () -> Matrix.covariance obs) in
      (* exact, not approx: partial sums combine in chunk order *)
      check_bool
        (Printf.sprintf "covariance bit-identical @%d" lanes)
        true (Matrix.equal c1 c))
    par_sizes

(* ------------------------------------------------------------------ *)
(* Fused kernels vs their closure references.  The sequential map /    *)
(* map2 / fold implementations are the specification: the fused        *)
(* closure-free loops must match them bit for bit, at every pool size. *)
(* ------------------------------------------------------------------ *)

let rn_pair = lazy (Synthetic.red_nir_pair ~seed:8 ~nrow:72 ~ncol:72 ())

let check_fused name reference fused =
  let img1 = with_size 1 fused in
  check_bool (name ^ " matches reference") true (Image.equal reference img1);
  List.iter
    (fun lanes ->
      check_bool
        (Printf.sprintf "%s bit-identical @%d" name lanes)
        true
        (Image.equal img1 (with_size lanes fused)))
    par_sizes

let test_fused_band_math () =
  let a, b = Lazy.force rn_pair in
  check_fused "add"
    (Image.map2 ~ptype:Pixel.Float8 ( +. ) a b)
    (fun () -> Band_math.add a b);
  check_fused "subtract"
    (Image.map2 ~ptype:Pixel.Float8 (fun x y -> x -. y) a b)
    (fun () -> Band_math.subtract a b);
  (* a char band too: both write Float8 whatever the input type *)
  let c = Image.map ~ptype:Pixel.Char (fun v -> 255. *. v) a in
  List.iter
    (fun img ->
      check_fused "scale"
        (Image.map ~ptype:Pixel.Float8 (fun v -> 2.5 *. v) img)
        (fun () -> Band_math.scale 2.5 img);
      check_fused "offset"
        (Image.map ~ptype:Pixel.Float8 (fun v -> v +. -0.75) img)
        (fun () -> Band_math.offset (-0.75) img))
    [ a; c ]

let test_fused_ndvi () =
  let red, nir = Lazy.force rn_pair in
  check_fused "ndvi"
    (Image.map2 ~ptype:Pixel.Float8
       (fun n r ->
         let d = n +. r in
         if d = 0. then 0. else (n -. r) /. d)
       nir red)
    (fun () -> Ndvi.ndvi ~red ~nir ())

let test_fused_composite_matrix () =
  let s = Lazy.force scene in
  let comp = s.Synthetic.composite in
  (* Composite.to_matrix / of_matrix are the references; Kernelized is
     the fused path used by PCA *)
  let reference = with_size 1 (fun () -> Composite.to_matrix comp) in
  let m1 = with_size 1 (fun () -> Kernelized.to_matrix comp) in
  check_bool "to_matrix matches reference" true (Matrix.equal reference m1);
  List.iter
    (fun lanes ->
      check_bool
        (Printf.sprintf "to_matrix bit-identical @%d" lanes)
        true
        (Matrix.equal m1 (with_size lanes (fun () -> Kernelized.to_matrix comp))))
    par_sizes;
  let nrow = Composite.nrow comp and ncol = Composite.ncol comp in
  let ref_back =
    with_size 1 (fun () -> Composite.of_matrix ~nrow ~ncol Pixel.Float8 m1)
  in
  let back lanes =
    with_size lanes (fun () -> Kernelized.of_matrix ~nrow ~ncol m1)
  in
  check_bool "of_matrix matches reference" true
    (Composite.equal ref_back (back 1));
  List.iter
    (fun lanes ->
      check_bool
        (Printf.sprintf "of_matrix bit-identical @%d" lanes)
        true
        (Composite.equal ref_back (back lanes)))
    par_sizes

let test_fused_imgstats_fold_parity () =
  (* single-chunk image (below the default grain): the fused sum /
     mean / variance must reproduce the sequential fold association
     exactly, not just approximately *)
  let rng = Rng.create 21 in
  let img =
    Image.init ~nrow:40 ~ncol:25 Pixel.Float8 (fun _ _ ->
        Rng.float rng 2. -. 1.)
  in
  let n = float_of_int (Image.size img) in
  let ref_sum = Image.fold ( +. ) 0. img in
  let ref_mean = ref_sum /. n in
  let ref_var =
    Image.fold
      (fun acc v ->
        let d = v -. ref_mean in
        acc +. (d *. d))
      0. img
    /. (n -. 1.)
  in
  with_size 4 (fun () ->
      check_bool "sum = fold" true (Float.equal ref_sum (Imgstats.sum img));
      check_bool "mean = fold" true (Float.equal ref_mean (Imgstats.mean img));
      check_bool "variance = fold" true
        (Float.equal ref_var (Imgstats.variance img)));
  (* and on a multi-chunk image the chunked result is size-independent *)
  let big = Lazy.force scene in
  let band = List.hd (Composite.bands big.Synthetic.composite) in
  let s1 = with_size 1 (fun () -> Imgstats.sum band) in
  let v1 = with_size 1 (fun () -> Imgstats.variance band) in
  List.iter
    (fun lanes ->
      check_bool
        (Printf.sprintf "sum bit-identical @%d" lanes)
        true
        (Float.equal s1 (with_size lanes (fun () -> Imgstats.sum band)));
      check_bool
        (Printf.sprintf "variance bit-identical @%d" lanes)
        true
        (Float.equal v1 (with_size lanes (fun () -> Imgstats.variance band))))
    par_sizes

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ tc "parallel_for covers" test_parallel_for_covers;
          tc "ranges partition" test_parallel_for_ranges_partition;
          tc "chunk layout vs size" test_map_chunks_layout_independent_of_size;
          tc "grain exceeds range" test_grain_exceeds_range;
          tc "reduce order" test_reduce_combines_in_chunk_order;
          tc "reduce sum" test_reduce_sum;
          tc "exception propagates" test_exception_propagates;
          tc "reusable after exception" test_pool_reusable_after_exception;
          tc "nested fallback" test_nested_region_falls_back;
          tc "set_size clamps" test_set_size_clamps;
          tc "set_size deferred in region" test_set_size_deferred_inside_region;
          tc "cutoff override" test_cutoff_override ] );
      ( "parity",
        [ tc "kmeans" test_parity_kmeans;
          tc "maxlike" test_parity_maxlike;
          tc "composite<->matrix" test_parity_composite_matrix;
          tc "ndvi" test_parity_ndvi;
          tc "covariance" test_parity_covariance ] );
      ( "fused",
        [ tc "band math" test_fused_band_math;
          tc "ndvi" test_fused_ndvi;
          tc "composite<->matrix" test_fused_composite_matrix;
          tc "imgstats fold parity" test_fused_imgstats_fold_parity ] ) ]
