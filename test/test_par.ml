(* Tests for the domain pool (lib/par) and for the parity invariant the
   parallel raster kernels rely on: chunk layout depends only on
   (lo, hi, grain), reductions combine in ascending chunk order, so a
   kernel produces bit-identical results at any pool size — and the
   flat-loop raster operators are bit-identical to their sequential
   map/map2/init/fold reference implementations. *)

open Gaea_raster
module Pool = Gaea_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f

(* run [f] with the pool forced to [n] lanes, restoring the default;
   more than one lane takes the parallel path for every range longer
   than one grain, whatever the host's core count *)
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

(* The one rule: a range longer than one grain splits into one body
   call per chunk at size > 1, and runs as a single call at size 1, when
   it fits in one grain, or when nested inside a region.  Every path
   writes the same values. *)
let test_sequential_rule () =
  let grain = 1000 and n = 10_500 in
  (* the (lo, hi) of every body call in ascending order, and the array
     the calls wrote *)
  let calls ~lo ~hi () =
    let seen = Array.make n None and a = Array.make n 0 in
    Pool.parallel_for_ranges ~grain ~lo ~hi (fun clo chi ->
        seen.(clo) <- Some (clo, chi);
        for i = clo to chi - 1 do
          a.(i) <- (i * 3) + 1
        done);
    (List.filter_map Fun.id (Array.to_list seen), a)
  in
  let bounds = Alcotest.(list (pair int int)) in
  let b2, a2 = with_size 2 (calls ~lo:0 ~hi:n) in
  let chunks =
    with_size 2 (fun () ->
        Pool.map_chunks ~grain ~lo:0 ~hi:n (fun lo hi -> (lo, hi)))
  in
  check_int "size 2: one call per chunk" 11 (List.length b2);
  Alcotest.check bounds "size 2: the map_chunks bounds" (Array.to_list chunks)
    b2;
  let b1, a1 = with_size 1 (calls ~lo:0 ~hi:n) in
  Alcotest.check bounds "size 1: one call" [ (0, n) ] b1;
  let bg, ag = with_size 2 (calls ~lo:500 ~hi:(500 + grain)) in
  Alcotest.check bounds "one grain at size 2: one call" [ (500, 500 + grain) ]
    bg;
  let nested = ref [] and an = ref [||] in
  with_size 2 (fun () ->
      Pool.parallel_for_ranges ~grain:1 ~lo:0 ~hi:2 (fun clo _ ->
          if clo = 0 then begin
            let b, a = calls ~lo:0 ~hi:n () in
            nested := b;
            an := a
          end));
  Alcotest.check bounds "nested in a region: one call" [ (0, n) ] !nested;
  check_bool "same values at size 1 and 2" true (a1 = a2);
  check_bool "same values nested" true (!an = a2);
  check_bool "same values in one grain" true
    (Array.sub ag 500 grain = Array.sub a2 500 grain)

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
          ~ncol:(Composite.ncol comp) m1)
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
(* Flat loops vs their references.  The sequential map / map2 / init  *)
(* / fold forms are the specification: each operator's flat loop must *)
(* match them bit for bit, at every pool size.                        *)
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

(* Every other registry image operator against its sequential
   map / map2 / init form.  The inputs carry the edge cases the flat
   loops must keep: a Char band, NaN pixels, zero denominators. *)

let edge_bands =
  lazy
    (let a, b = Lazy.force rn_pair in
     let ncol = Image.img_ncol a in
     (* NaN every 7th pixel of [a]; [b] is 0 every 5th pixel and -a
        every 11th, so both divide's and ratio's denominators vanish *)
     let a =
       Image.init ~nrow:(Image.img_nrow a) ~ncol Pixel.Float8 (fun r c ->
           if ((r * ncol) + c) mod 7 = 3 then Float.nan else Image.get a r c)
     in
     let b =
       Image.init ~nrow:(Image.img_nrow b) ~ncol Pixel.Float8 (fun r c ->
           let i = (r * ncol) + c in
           if i mod 5 = 0 then 0.
           else if i mod 11 = 0 then -.Image.get a r c
           else Image.get b r c)
     in
     let c =
       Image.map ~ptype:Pixel.Char
         (fun v -> (1.7 *. v) -. 60.)
         (fst (Lazy.force rn_pair))
     in
     (a, b, c))

let f8 = Pixel.Float8

let test_fused_binary_ops () =
  let a, b, c = Lazy.force edge_bands in
  let binary name op f =
    List.iter
      (fun (x, y, tag) ->
        check_fused (name ^ tag) (Image.map2 ~ptype:f8 f x y) (fun () -> op x y))
      [ (a, b, ""); (b, a, " swapped"); (c, b, " char") ]
  in
  binary "divide" Band_math.divide (fun x y -> if y = 0. then 0. else x /. y);
  binary "ratio" Band_math.ratio (fun x y ->
      let d = x +. y in
      if d = 0. then 0. else (x -. y) /. d);
  binary "multiply" Band_math.multiply ( *. );
  binary "abs_diff" Band_math.abs_diff (fun x y -> Float.abs (x -. y));
  binary "add" Band_math.add ( +. );
  binary "subtract" Band_math.subtract ( -. );
  let t0 = Gaea_geo.Abstime.of_ymd 1988 1 1
  and t1 = Gaea_geo.Abstime.of_ymd 1989 1 1
  and at = Gaea_geo.Abstime.of_ymd 1988 7 1 in
  let w =
    float_of_int Gaea_geo.Abstime.(to_seconds at - to_seconds t0)
    /. float_of_int Gaea_geo.Abstime.(to_seconds t1 - to_seconds t0)
  in
  binary "temporal_linear"
    (fun x y -> Interpolate.temporal_linear ~at (t0, x) (t1, y))
    (fun x y -> x +. (w *. (y -. x)))

let test_fused_unary_ops () =
  let a, b, c = Lazy.force edge_bands in
  List.iter
    (fun (img, tag) ->
      let lo, hi = Image.min_max img in
      let span = hi -. lo in
      check_fused ("normalize" ^ tag)
        (Image.map ~ptype:f8 (fun v -> 0. +. ((v -. lo) /. span *. (1. -. 0.))) img)
        (fun () -> Band_math.normalize img);
      check_fused ("threshold" ^ tag)
        (Image.map ~ptype:Pixel.Char (fun v -> if v >= 100. then 1. else 0.) img)
        (fun () -> Band_math.threshold 100. img);
      let below =
        Image.map ~ptype:Pixel.Char (fun v -> if v < 100. then 1. else 0.) img
      in
      check_fused ("threshold_below" ^ tag) below (fun () ->
          match
            Gaea_adt.Registry.apply
              (Gaea_adt.Registry.with_builtins ())
              "img_threshold_below"
              [ Gaea_adt.Value.image img; Gaea_adt.Value.float 100. ]
          with
          | Ok (Gaea_adt.Value.VImage i) -> i
          | _ -> Alcotest.fail "img_threshold_below"))
    [ (a, ""); (b, " zeros"); (c, " char") ];
  (* a constant image maps to lo, on both sides of the span test *)
  let flat = Image.map ~ptype:f8 (fun _ -> 42.) a in
  check_fused "normalize constant"
    (Image.map ~ptype:f8 (fun _ -> -2.) flat)
    (fun () -> Band_math.normalize ~lo:(-2.) ~hi:3. flat);
  let lo, hi = Image.min_max b in
  check_fused "normalize onto [-2, 3]"
    (Image.map ~ptype:f8
       (fun v -> -2. +. ((v -. lo) /. (hi -. lo) *. (3. -. -2.)))
       b)
    (fun () -> Band_math.normalize ~lo:(-2.) ~hi:3. b)

let test_fused_linear_combination () =
  let a, b, c = Lazy.force edge_bands in
  let zero = Image.map ~ptype:f8 (fun _ -> 0.) a in
  let reference weights imgs =
    let first = List.hd imgs in
    let ncol = Image.img_ncol first in
    Image.init ~nrow:(Image.img_nrow first) ~ncol f8 (fun r c ->
        let i = (r * ncol) + c in
        List.fold_left
          (fun (acc, k) img ->
            (acc +. (weights.(k) *. Image.get_linear img i), k + 1))
          (0., 0) imgs
        |> fst)
  in
  List.iter
    (fun (name, weights, imgs) ->
      check_fused name (reference weights imgs) (fun () ->
          Band_math.linear_combination weights imgs))
    [ ("linear_combination", [| 0.5; -1.25; 3. |], [ a; b; c ]);
      (* -1 * 0 is -0.; the fold starts from 0., so the pixel is +0. *)
      ("linear_combination -0.", [| -1. |], [ zero ]);
      ("linear_combination -0. twice", [| -1.; -2. |], [ zero; zero ]) ];
  check_bool "-0. products sum to +0." true
    (1. /. Image.get (Band_math.linear_combination [| -1. |] [ zero ]) 0 0
     = infinity)

let test_fused_resize () =
  let a, _, c = Lazy.force edge_bands in
  let nearest img ~nrow ~ncol =
    let src_r = Image.img_nrow img and src_c = Image.img_ncol img in
    Image.init ~nrow ~ncol (Image.img_type img) (fun r c ->
        Image.get img
          (Stdlib.min (r * src_r / nrow) (src_r - 1))
          (Stdlib.min (c * src_c / ncol) (src_c - 1)))
  in
  let bilinear img ~nrow ~ncol =
    let src_r = Image.img_nrow img and src_c = Image.img_ncol img in
    Image.init ~nrow ~ncol f8 (fun r c ->
        let fy =
          ((float_of_int r +. 0.5) /. float_of_int nrow *. float_of_int src_r)
          -. 0.5
        and fx =
          ((float_of_int c +. 0.5) /. float_of_int ncol *. float_of_int src_c)
          -. 0.5
        in
        let fy = Float.max 0. (Float.min fy (float_of_int (src_r - 1)))
        and fx = Float.max 0. (Float.min fx (float_of_int (src_c - 1))) in
        let y0 = int_of_float (Float.floor fy)
        and x0 = int_of_float (Float.floor fx) in
        let y1 = Stdlib.min (y0 + 1) (src_r - 1)
        and x1 = Stdlib.min (x0 + 1) (src_c - 1) in
        let dy = fy -. float_of_int y0 and dx = fx -. float_of_int x0 in
        let v00 = Image.get img y0 x0 and v01 = Image.get img y0 x1 in
        let v10 = Image.get img y1 x0 and v11 = Image.get img y1 x1 in
        (((v00 *. (1. -. dx)) +. (v01 *. dx)) *. (1. -. dy))
        +. (((v10 *. (1. -. dx)) +. (v11 *. dx)) *. dy))
  in
  List.iter
    (fun (img, tag) ->
      List.iter
        (fun (nrow, ncol) ->
          let name op = Printf.sprintf "%s%s to %dx%d" op tag nrow ncol in
          check_fused (name "resize_nearest") (nearest img ~nrow ~ncol)
            (fun () -> Interpolate.resize_nearest img ~nrow ~ncol);
          check_fused (name "resize_bilinear") (bilinear img ~nrow ~ncol)
            (fun () -> Interpolate.resize_bilinear img ~nrow ~ncol))
        [ (37, 53); (101, 97); (1, 1) ])
    [ (a, ""); (c, " char") ]

(* fill_missing as it was written on the image ADT: rounds of
   8-neighbour means over a copy, read through Image.get, written
   through the quantizing Image.set *)
let fill_missing_reference ~missing img =
  let nrow = Image.img_nrow img and ncol = Image.img_ncol img in
  let is_missing v =
    if Float.is_nan missing then Float.is_nan v else v = missing
  in
  let valid_sum = ref 0. and valid_n = ref 0 in
  Image.iter
    (fun v ->
      if not (is_missing v) then begin
        valid_sum := !valid_sum +. v;
        incr valid_n
      end)
    img;
  let global_mean =
    if !valid_n = 0 then 0. else !valid_sum /. float_of_int !valid_n
  in
  let current = ref (Image.map Fun.id img) and remaining = ref true in
  let rounds = ref 0 in
  while !remaining && !rounds <= nrow + ncol do
    incr rounds;
    remaining := false;
    let next = Image.map Fun.id !current and any_filled = ref false in
    for r = 0 to nrow - 1 do
      for c = 0 to ncol - 1 do
        if is_missing (Image.get !current r c) then begin
          let sum = ref 0. and n = ref 0 in
          for dr = -1 to 1 do
            for dc = -1 to 1 do
              let rr = r + dr and cc = c + dc in
              if (dr <> 0 || dc <> 0) && rr >= 0 && rr < nrow && cc >= 0
                 && cc < ncol
              then begin
                let v = Image.get !current rr cc in
                if not (is_missing v) then begin
                  sum := !sum +. v;
                  incr n
                end
              end
            done
          done;
          if !n > 0 then begin
            Image.set next r c (!sum /. float_of_int !n);
            any_filled := true
          end
          else remaining := true
        end
      done
    done;
    if !remaining && not !any_filled then begin
      for r = 0 to nrow - 1 do
        for c = 0 to ncol - 1 do
          if is_missing (Image.get next r c) then Image.set next r c global_mean
        done
      done;
      remaining := false
    end;
    current := next
  done;
  !current

let test_fused_fill_missing () =
  let a, b, c = Lazy.force edge_bands in
  let ncol = Image.img_ncol a in
  (* a 20x20 hole takes ten rounds; a -1 sentinel leaves NaN valid *)
  let block =
    Image.init ~nrow:(Image.img_nrow b) ~ncol Pixel.Float8 (fun r c ->
        if r >= 30 && r < 50 && c >= 10 && c < 30 then Float.nan
        else Image.get b r c)
  in
  let sentinel = Image.map ~ptype:f8 (fun v -> if v < 60. then -1. else v) a in
  let char_zero = Image.map ~ptype:Pixel.Char (fun v -> if v < 80. then 0. else v) c in
  let all_missing = Image.map ~ptype:f8 (fun _ -> Float.nan) a in
  List.iter
    (fun (name, missing, img) ->
      check_fused name (fill_missing_reference ~missing img) (fun () ->
          Interpolate.fill_missing ~missing img))
    [ ("fill_missing scattered", Float.nan, a);
      ("fill_missing block", Float.nan, block);
      ("fill_missing sentinel", -1., sentinel);
      ("fill_missing char 0", 0., char_zero);
      ("fill_missing all", Float.nan, all_missing);
      ("fill_missing none", Float.nan, b) ]

let test_fused_composite_matrix () =
  let s = Lazy.force scene in
  let comp = s.Synthetic.composite in
  let rows = Composite.n_pixels comp and cols = Composite.n_bands comp in
  let reference =
    Matrix.init ~rows ~cols (fun i j -> Image.get_linear (Composite.band comp j) i)
  in
  let m1 = with_size 1 (fun () -> Composite.to_matrix comp) in
  check_bool "to_matrix matches reference" true (Matrix.equal reference m1);
  List.iter
    (fun lanes ->
      check_bool
        (Printf.sprintf "to_matrix bit-identical @%d" lanes)
        true
        (Matrix.equal m1 (with_size lanes (fun () -> Composite.to_matrix comp))))
    par_sizes;
  let nrow = Composite.nrow comp and ncol = Composite.ncol comp in
  let ref_back =
    Composite.of_bands
      (List.init cols (fun j ->
           Image.init ~nrow ~ncol Pixel.Float8 (fun r c ->
               Matrix.get m1 ((r * ncol) + c) j)))
  in
  let back lanes =
    with_size lanes (fun () -> Composite.of_matrix ~nrow ~ncol m1)
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
          tc "sequential rule" test_sequential_rule ] );
      ( "parity",
        [ tc "kmeans" test_parity_kmeans;
          tc "maxlike" test_parity_maxlike;
          tc "composite<->matrix" test_parity_composite_matrix;
          tc "ndvi" test_parity_ndvi;
          tc "covariance" test_parity_covariance ] );
      ( "fused",
        [ tc "band math" test_fused_band_math;
          tc "ndvi" test_fused_ndvi;
          tc "binary image operators" test_fused_binary_ops;
          tc "unary image operators" test_fused_unary_ops;
          tc "linear combination" test_fused_linear_combination;
          tc "resize" test_fused_resize;
          tc "fill missing" test_fused_fill_missing;
          tc "composite<->matrix" test_fused_composite_matrix;
          tc "imgstats fold parity" test_fused_imgstats_fold_parity ] ) ]
