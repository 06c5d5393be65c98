(* Gaea reproduction benchmark harness.

   The paper (VLDB 1993) contains no quantitative evaluation — its five
   figures are architectural.  This harness therefore (a) regenerates an
   executable artifact for every figure and (b) measures the mechanism
   experiments E1–E8, E10 and E13–E18 defined in DESIGN.md (E9, E11
   and E12 are retired), printing the series that
   EXPERIMENTS.md records.  One Bechamel Test.make exists per experiment
   (micro timing of its kernel operation); the macro sweeps print their
   own tables.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Filebased = Gaea_core.Filebased
module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Dataflow = Gaea_adt.Dataflow
module Net = Gaea_petri.Net
module Marking = Gaea_petri.Marking
module Backchain = Gaea_petri.Backchain
module Reachability = Gaea_petri.Reachability
module R = Gaea_raster
module Pool = Gaea_par.Pool
module Process = Gaea_core.Process
module Task = Gaea_core.Task
module Persist = Gaea_core.Persist
module Schema = Gaea_core.Schema
module Template = Gaea_core.Template
module Vtype = Gaea_adt.Vtype

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench setup: " ^ Gaea_core.Gaea_error.to_string e)

(* --smoke: one quick pass over every experiment (a CI sanity check, not
   a measurement run) — small sweeps, single repeats, tiny bechamel
   quota. *)
let smoke = Array.exists (( = ) "--smoke") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Wall clock, not [Sys.time]: the latter is CPU time summed over all
   domains, which under-reports sequential phases and over-reports
   parallel kernels (k domains burn k seconds of CPU per elapsed
   second).  All printed times are elapsed milliseconds. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let time_avg ?(repeats = 3) f =
  let total = ref 0. in
  let result = ref None in
  for _ = 1 to repeats do
    let r, dt = time_once f in
    result := Some r;
    total := !total +. dt
  done;
  (Option.get !result, !total /. float_of_int repeats)

(* Measurement discipline for the recorded (JSON) series: one unmeasured
   warmup run first — it faults in code paths and spawns/warms the
   domain pool — then the median of [repeats] timed runs, which is
   robust against a straggler sample in a way the mean is not.  Each
   run times [f] on the output of [setup], which runs outside the
   timer. *)
let time_median_of ?(warmup = 1) ?(repeats = 5) ~setup f =
  for _ = 1 to warmup do
    ignore (f (setup ()))
  done;
  let samples =
    Array.init repeats (fun _ ->
        let x = setup () in
        let _, dt = time_once (fun () -> f x) in
        dt)
  in
  Array.sort compare samples;
  samples.(repeats / 2)

let time_median ?warmup ?repeats f =
  time_median_of ?warmup ?repeats ~setup:ignore f

(* ------------------------------------------------------------------ *)
(* Figure artifacts                                                    *)
(* ------------------------------------------------------------------ *)

let fig1_architecture () =
  section "Fig 1 artifact: one query through every architecture layer";
  (* parser -> optimizer -> executor -> metadata manager -> storage *)
  let session = Gaea_query.Session.create () in
  let script =
    {|
DEFINE CLASS rainfall (data image, spatialextent box, timestamp abstime);
DEFINE CLASS desert (cutoff float, data image, spatialextent box, timestamp abstime)
  DERIVED BY desert-250;
DEFINE PROCESS desert-250 OUTPUT desert ARGS (rain rainfall)
  PARAM cutoff = 250.0
  MAP cutoff = $cutoff
  MAP data = img_threshold_below(rain.data, $cutoff)
  MAP spatialextent = rain.spatialextent
  MAP timestamp = rain.timestamp
END;
INSERT INTO rainfall (data = synth_rainfall(1, 32, 32),
  spatialextent = make_box(0.0,0.0,10.0,10.0), timestamp = make_abstime(1986,1,1));
DERIVE desert;
SELECT cutoff FROM desert
|}
  in
  match Gaea_query.Session.run_string session script with
  | Ok responses ->
    Printf.printf
      "parsed, planned and executed %d statements (DDL, process DDL, \
       ingest, derivation, retrieval): OK\n"
      (List.length responses)
  | Error e ->
    Printf.printf "FAILED: %s\n" (Gaea_core.Gaea_error.to_string e)

let fig2_layers () =
  section "Fig 2 artifact: the three semantic layers";
  let k, build_time =
    time_once (fun () ->
        let k = Kernel.create () in
        ok (Figures.install_all k);
        k)
  in
  let concepts = Gaea_core.Concept.all (Kernel.concepts k) in
  let isa_edges =
    List.fold_left
      (fun acc c ->
        acc
        + List.length
            (Gaea_core.Concept.parents (Kernel.concepts k)
               c.Gaea_core.Concept.name))
      0 concepts
  in
  Printf.printf
    "high level:   %d concepts, %d ISA edges\n\
     derivation:   %d classes, %d processes\n\
     system level: %d primitive classes, %d operators\n\
     schema build time: %.1f ms\n"
    (List.length concepts) isa_edges
    (List.length (Kernel.classes k))
    (List.length (Kernel.processes k))
    (List.length (Registry.all_classes (Kernel.registry k)))
    (Registry.operator_count (Kernel.registry k))
    (build_time *. 1000.)

let fig4_network () =
  section "Fig 4 artifact: the PCA compound-operator dataflow network";
  let k = Kernel.create () in
  match Registry.find_compound (Kernel.registry k) "pca" with
  | Some net -> print_endline (Dataflow.describe net)
  | None -> print_endline "pca network missing!"

(* ------------------------------------------------------------------ *)
(* E1: Gaea vs file-based GIS workflow                                 *)
(* ------------------------------------------------------------------ *)

let e1_gaea_vs_filebased () =
  section "E1: Gaea vs file-based GIS (IDRISI/GRASS baseline)";
  Printf.printf
    "workload: s scientists each need the same NDVI-change product \
     (64x64 pixels)\n\n";
  Printf.printf "%-12s %-24s %-20s %s\n" "scientists"
    "file-based computations" "gaea process runs" "recomputation factor";
  List.iter
    (fun n_scientists ->
      (* file-based: each scientist reruns the 3-step pipeline because a
         colleague's file names carry no derivation metadata *)
      let fb = Filebased.create () in
      let red, nir = R.Synthetic.red_nir_pair ~seed:1 ~nrow:64 ~ncol:64 () in
      Filebased.save fb ~name:"red88" red;
      Filebased.save fb ~name:"nir88" nir;
      let red89, nir89 =
        R.Synthetic.red_nir_pair ~seed:1 ~nrow:64 ~ncol:64
          ~vegetation_shift:0.2 ()
      in
      Filebased.save fb ~name:"red89" red89;
      Filebased.save fb ~name:"nir89" nir89;
      for s = 1 to n_scientists do
        let who = Printf.sprintf "scientist%d" s in
        let ndvi = function
          | [ r; n ] -> R.Ndvi.ndvi ~red:r ~nir:n ()
          | _ -> assert false
        in
        ignore
          (Filebased.run_analysis fb ~scientist:who ~output:"ndvi88"
             ~inputs:[ "red88"; "nir88" ] ndvi);
        ignore
          (Filebased.run_analysis fb ~scientist:who ~output:"ndvi89"
             ~inputs:[ "red89"; "nir89" ] ndvi);
        ignore
          (Filebased.run_analysis fb ~scientist:who ~output:"change"
             ~inputs:[ "ndvi89"; "ndvi88" ]
             (function
               | [ a; b ] -> R.Band_math.subtract a b
               | _ -> assert false))
      done;
      let fb_runs = (Filebased.stats fb).Filebased.computations in
      (* gaea: first request derives, every later request retrieves *)
      let k = Kernel.create () in
      ok (Figures.install_vegetation k);
      let _ = ok (Figures.load_avhrr_year k ~seed:1 ~year:1988 ()) in
      let _ =
        ok (Figures.load_avhrr_year k ~seed:1 ~year:1989 ~vegetation_shift:0.2 ())
      in
      for _ = 1 to n_scientists do
        match Kernel.objects_of_class k Figures.veg_change_class with
        | [] ->
          let _ = ok (Derivation.request ~need:2 k Figures.ndvi_class) in
          let p = Option.get (Kernel.find_process k Figures.p_change_sub) in
          let binding =
            ok
              (Kernel.find_binding k p
                 ~available:
                   [ ( Figures.ndvi_class,
                       Kernel.objects_of_class k Figures.ndvi_class ) ])
          in
          ignore (ok (Kernel.execute_process k p ~inputs:binding))
        | _ :: _ ->
          (Kernel.counters k).Kernel.retrievals <-
            (Kernel.counters k).Kernel.retrievals + 1
      done;
      let gaea_runs = (Kernel.counters k).Kernel.executions in
      Printf.printf "%-12d %-24d %-20d %.1fx\n" n_scientists fb_runs gaea_runs
        (float_of_int fb_runs /. float_of_int gaea_runs))
    (if smoke then [ 2 ] else [ 1; 2; 4; 8; 16 ])

(* ------------------------------------------------------------------ *)
(* E2: retrieval vs interpolation vs derivation                        *)
(* ------------------------------------------------------------------ *)

let e2_crossover () =
  section "E2: query answering — retrieval vs interpolation vs derivation";
  Printf.printf "%-8s %-16s %-18s %-16s\n" "size" "retrieve (ms)"
    "interpolate (ms)" "derive P20 (ms)";
  List.iter
    (fun n ->
      (* derivation cost: P20 on n x n *)
      let k = Kernel.create () in
      ok (Figures.install_fig3 k);
      let _ = ok (Figures.load_tm_bands k ~seed:3 ~nrow:n ~ncol:n ()) in
      let _, derive_t =
        time_once (fun () -> ok (Derivation.request k Figures.land_cover_class))
      in
      (* retrieval cost: ask again *)
      let _, retrieve_t =
        time_avg (fun () -> ok (Derivation.request k Figures.land_cover_class))
      in
      (* interpolation cost: two land-cover snapshots, mid-point query *)
      let k2 = Kernel.create () in
      ok (Figures.install_fig3 k2);
      let insert day seed =
        let extent =
          Gaea_geo.Extent.make
            (Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:10. ~ymax:10.)
            (Gaea_geo.Interval.instant (Gaea_geo.Abstime.of_ymd 1986 1 day))
        in
        ignore (ok (Figures.load_tm_bands k2 ~seed ~nrow:n ~ncol:n ~extent ()))
      in
      insert 1 10;
      insert 21 11;
      let _ = ok (Derivation.request ~need:2 k2 Figures.land_cover_class) in
      let _, interp_t =
        time_once (fun () ->
            ok
              (Derivation.request_at k2 ~cls:Figures.land_cover_class
                 ~at:(Gaea_geo.Abstime.of_ymd 1986 1 11) ()))
      in
      Printf.printf "%-8s %-16.3f %-18.3f %-16.1f\n"
        (Printf.sprintf "%dx%d" n n)
        (retrieve_t *. 1000.) (interp_t *. 1000.) (derive_t *. 1000.))
    (if smoke then [ 32 ] else [ 32; 64; 96 ]);
  print_endline
    "(expected shape: retrieval ~constant; interpolation linear in pixels;\n\
    \ derivation dominated by classification — the paper's priority order\n\
    \ 'retrieve, then interpolate, then derive' is also the cost order)"

(* ------------------------------------------------------------------ *)
(* E3: Fig 3 / P20 task execution sweep                                *)
(* ------------------------------------------------------------------ *)

let e3_p20_scaling () =
  section "E3 (Fig 3): unsupervised-classification task execution";
  Printf.printf "%-10s %-8s %-14s %-14s %s\n" "image" "k" "time (ms)"
    "Mpixel/s" "reproducible";
  List.iter
    (fun n ->
      let k = Kernel.create () in
      ok (Figures.install_fig3 k);
      let _ = ok (Figures.load_tm_bands k ~seed:7 ~nrow:n ~ncol:n ()) in
      let outcome, dt =
        time_once (fun () -> ok (Derivation.request k Figures.land_cover_class))
      in
      let oid = List.hd outcome.Derivation.objects in
      let reproducible = ok (Lineage.verify_object k oid) in
      let mpix = float_of_int (n * n * 3) /. dt /. 1e6 in
      Printf.printf "%-10s %-8d %-14.1f %-14.2f %b\n"
        (Printf.sprintf "%dx%d" n n)
        12 (dt *. 1000.) mpix reproducible)
    (if smoke then [ 32 ] else [ 32; 64; 128 ])

(* ------------------------------------------------------------------ *)
(* E4: Fig 4 PCA network                                               *)
(* ------------------------------------------------------------------ *)

let e4_failed = ref false

(* The SPCA network (Fig 4's standardized variant, the first step of
   Fig 5) on a 128x128x6 scene at one lane: elapsed ms and minor words
   per matrix element, gated at 1.  Its stages run in flat passes; with
   per-element closures that boxed their floats it read about 9. *)
let e4_spca_words reg =
  let n = 128 and bands = 6 in
  let scene = R.Synthetic.landsat_scene ~seed:5 ~nrow:n ~ncol:n ~bands () in
  let args = [ Value.composite scene.R.Synthetic.composite; Value.int 2 ] in
  let saved = Pool.size () in
  Pool.set_size 1;
  ignore (Registry.apply reg "spca" args);
  let w0 = Gc.minor_words () in
  let _, dt = time_once (fun () -> Registry.apply reg "spca" args) in
  let words = Gc.minor_words () -. w0 in
  Pool.set_size saved;
  let per_elem = words /. float_of_int (n * n * bands) in
  Printf.printf
    "\nspca network (%dx%dx%d, 2 components) at 1 lane: %.2f ms, %.3f minor \
     words per matrix element\n"
    n n bands (dt *. 1000.) per_elem;
  if per_elem > 1. then begin
    Printf.printf
      "E4 FAILURE: the spca network allocated %.2f minor words per matrix \
       element (at most 1) — a per-element allocation is back\n"
      per_elem;
    e4_failed := true
  end

let e4_pca () =
  section "E4 (Fig 4): PCA compound-operator network vs native, and SPCA";
  let reg = Registry.with_builtins () in
  Printf.printf "%-8s %-8s %-16s %-16s %-12s %s\n" "bands" "size"
    "network (ms)" "native (ms)" "overhead" "max rms diff";
  List.iter
    (fun (b, n) ->
      let scene = R.Synthetic.landsat_scene ~seed:5 ~nrow:n ~ncol:n ~bands:b () in
      let c = Value.composite scene.R.Synthetic.composite in
      let args = [ c; Value.int 2 ] in
      let net_result, net_t = time_avg (fun () -> Registry.apply reg "pca" args) in
      let native_result, native_t =
        time_avg (fun () -> Registry.apply reg "pca_native" args)
      in
      let diff =
        match net_result, native_result with
        | Ok (Value.VComposite x), Ok (Value.VComposite y) ->
          List.fold_left2
            (fun acc a b -> Float.max acc (R.Imgstats.rmse a b))
            0. (R.Composite.bands x) (R.Composite.bands y)
        | _ -> Float.nan
      in
      Printf.printf "%-8d %-8s %-16.2f %-16.2f %-12.2f %.2e\n" b
        (Printf.sprintf "%dx%d" n n)
        (net_t *. 1000.) (native_t *. 1000.)
        (net_t /. native_t) diff)
    (if smoke then [ (2, 32) ] else [ (2, 32); (3, 64); (6, 64) ]);
  print_endline
    "(the dataflow network and the native implementation run the same\n\
    \ Matrix functions, so they agree bit for bit; interpretation overhead\n\
    \ of the compound operator is small)";
  e4_spca_words reg

(* ------------------------------------------------------------------ *)
(* E5: Petri backward chaining scale                                   *)
(* ------------------------------------------------------------------ *)

let build_chain_net ~depth ~fan_in =
  (* a derivation chain of [depth] stages; each stage's transition needs
     [fan_in] tokens of the previous class *)
  let net = Net.create () in
  let places =
    Array.init (depth + 1) (fun i ->
        Net.add_place net ~name:(Printf.sprintf "c%d" i))
  in
  for d = 0 to depth - 1 do
    ignore
      (Result.get_ok
         (Net.add_transition net
            ~name:(Printf.sprintf "p%d" d)
            ~inputs:[ (places.(d), fan_in) ]
            ~outputs:[ places.(d + 1) ]
            ()))
  done;
  let marking = ref Marking.empty in
  for tok = 1 to (fan_in * fan_in) + 2 do
    marking := Marking.add !marking places.(0) tok
  done;
  (net, Marking.view !marking, places.(depth))

let e5_backchain () =
  section "E5: backward chaining over the derivation net";
  Printf.printf "%-8s %-8s %-14s %-12s %-12s %s\n" "depth" "fan-in"
    "plan (µs)" "plan cost" "plan depth" "reach (µs)";
  List.iter
    (fun (depth, fan_in) ->
      let net, marking, goal = build_chain_net ~depth ~fan_in in
      let plan, plan_t =
        time_avg ~repeats:5 (fun () -> Backchain.search net marking goal)
      in
      let _, reach_t =
        time_avg ~repeats:5 (fun () -> Reachability.analyze net marking)
      in
      match plan with
      | Some p ->
        Printf.printf "%-8d %-8d %-14.1f %-12d %-12d %.1f\n" depth fan_in
          (plan_t *. 1e6) (Backchain.cost p) (Backchain.depth p)
          (reach_t *. 1e6)
      | None -> Printf.printf "%-8d %-8d no plan!\n" depth fan_in)
    (if smoke then [ (4, 1) ]
     else
       [ (1, 1); (2, 1); (4, 1); (8, 1); (16, 1); (32, 1); (64, 1);
         (4, 2); (8, 2); (4, 3) ]);
  (* wide nets: many classes, only one chain relevant to the goal *)
  Printf.printf "\n%-12s %-14s %s\n" "classes" "plan (µs)" "reach (µs)";
  List.iter
    (fun width ->
      let net = Net.create () in
      let base = Net.add_place net ~name:"base" in
      let goal = Net.add_place net ~name:"goal" in
      for i = 0 to width - 3 do
        let p = Net.add_place net ~name:(Printf.sprintf "x%d" i) in
        ignore
          (Result.get_ok
             (Net.add_transition net
                ~name:(Printf.sprintf "tx%d" i)
                ~inputs:[ (base, 1) ] ~outputs:[ p ] ()))
      done;
      ignore
        (Result.get_ok
           (Net.add_transition net ~name:"tg" ~inputs:[ (base, 1) ]
              ~outputs:[ goal ] ()));
      let marking = Marking.view (Marking.of_list [ (base, [ 1 ]) ]) in
      let _, plan_t =
        time_avg ~repeats:5 (fun () -> Backchain.search net marking goal)
      in
      let _, reach_t =
        time_avg ~repeats:5 (fun () -> Reachability.analyze net marking)
      in
      Printf.printf "%-12d %-14.1f %.1f\n" width (plan_t *. 1e6)
        (reach_t *. 1e6))
    (if smoke then [ 10 ] else [ 10; 100; 1000 ])

(* ------------------------------------------------------------------ *)
(* E6: Fig 5 compound process + reproducibility                        *)
(* ------------------------------------------------------------------ *)

let e6_fig5 () =
  section "E6 (Fig 5): compound land-change-detection + exact reproducibility";
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  ok (Figures.install_fig5 k);
  let _ = ok (Figures.load_tm_bands k ~seed:1986 ~nrow:64 ~ncol:64 ()) in
  let _ = ok (Figures.load_tm_bands k ~seed:1989 ~nrow:64 ~ncol:64 ()) in
  let outcome, dt =
    time_once (fun () ->
        ok (Derivation.request k Figures.land_cover_changes_class))
  in
  Printf.printf
    "derived %s through %d task(s) in %.1f ms (compound expanded to its \
     primitive steps)\n"
    Figures.land_cover_changes_class
    (List.length outcome.Derivation.new_tasks)
    (dt *. 1000.);
  let tasks = Kernel.tasks k in
  let reproduced = List.filter (fun t -> ok (Lineage.verify_task k t)) tasks in
  Printf.printf "reproducibility: %d/%d tasks recompute bit-identically\n"
    (List.length reproduced) (List.length tasks);
  let result = List.hd outcome.Derivation.objects in
  Printf.printf "base inputs of the result: %d TM band objects\n"
    (List.length (Lineage.base_inputs k result))

(* ------------------------------------------------------------------ *)
(* E7: domain-pool speedup on the parallel raster kernels              *)
(* ------------------------------------------------------------------ *)

type e7_row = {
  e7_kernel : string;
  e7_pixels : int;
  e7_by_domains : (int * float) list; (* pool size, elapsed seconds *)
}

let e7_rows : e7_row list ref = ref []

let e7_failed = ref false

(* Fig 3's P20 scene at one lane: minor words per pixel per Lloyd
   iteration (gated at 1: the flat point layout allocates nothing per
   pixel, the per-pixel arrays it replaced 25) and the share of Lloyd's
   point-to-centroid distances computed (gated at 5%: a count that
   repeats exactly; the Hamerly bounds alone computed 9.3%, the drift
   ledgers, pair pruning and seeded first step 2.8%) *)
let e7_max_distance_share = 0.05

let e7_kmeans_p20 () =
  let n = 128 and k = 12 in
  let comp =
    (R.Synthetic.landsat_scene ~seed:1 ~nrow:n ~ncol:n ()).R.Synthetic.composite
  in
  let saved = Pool.size () in
  Pool.set_size 1;
  let w0 = Gc.minor_words () in
  let r, dt = time_once (fun () -> R.Kmeans.unsuperclassify comp k) in
  let words = Gc.minor_words () -. w0 in
  Pool.set_size saved;
  let px_iters = float_of_int (n * n * r.R.Kmeans.iterations) in
  let per_px_iter = words /. px_iters in
  let lloyd = px_iters *. float_of_int k in
  let share = float_of_int r.R.Kmeans.distances /. lloyd in
  Printf.printf
    "\nkmeans P20 scene (%dx%dx3, k=%d) at 1 lane: %d iterations, %.1f ms, \
     %.2f minor words per pixel per iteration, %d of %.0f distance \
     evaluations computed (%.1f%% skipped), %s update\n"
    n n k r.R.Kmeans.iterations (dt *. 1000.) per_px_iter
    r.R.Kmeans.distances lloyd
    (100. *. (1. -. share))
    (if r.R.Kmeans.incremental then "incremental (moved pixels)"
     else "chunked (all pixels)");
  if per_px_iter > 1. then begin
    Printf.printf
      "E7 FAILURE: k-means allocated %.2f minor words per pixel per \
       iteration (at most 1) — a per-pixel allocation is back\n"
      per_px_iter;
    e7_failed := true
  end;
  if share > e7_max_distance_share then begin
    Printf.printf
      "E7 FAILURE: k-means computed %.1f%% of Lloyd's distances (at most \
       %.0f%%) — the bounds stopped skipping\n"
      (100. *. share) (100. *. e7_max_distance_share);
    e7_failed := true
  end

let e7_parallel_speedup () =
  section "E7: parallel raster kernels — domain-pool speedup sweep";
  let n = if smoke then 96 else 512 in
  let repeats = if smoke then 1 else 5 in
  let scene = R.Synthetic.landsat_scene ~seed:11 ~nrow:n ~ncol:n () in
  let comp = scene.R.Synthetic.composite in
  let model = R.Maxlike.train comp scene.R.Synthetic.truth in
  let red, nir = R.Synthetic.red_nir_pair ~seed:11 ~nrow:n ~ncol:n () in
  let t1 = Gaea_geo.Abstime.of_ymd 1986 1 1 in
  let t2 = Gaea_geo.Abstime.of_ymd 1986 2 1 in
  let at = Gaea_geo.Abstime.of_ymd 1986 1 16 in
  let obs = R.Composite.to_matrix comp in
  let kernels =
    [ ("kmeans-k8",
       fun () -> ignore (R.Kmeans.unsuperclassify ~max_iter:10 comp 8));
      ("maxlike-classify", fun () -> ignore (R.Maxlike.classify model comp));
      ("ndvi", fun () -> ignore (R.Ndvi.ndvi ~red ~nir ()));
      ("band-subtract", fun () -> ignore (R.Band_math.subtract nir red));
      ("interpolate",
       fun () ->
         ignore (R.Interpolate.temporal_linear ~at (t1, red) (t2, nir)));
      ("covariance", fun () -> ignore (R.Matrix.covariance obs)) ]
  in
  let sizes = [ 1; 2; 4; 8 ] in
  Printf.printf
    "wall-clock ms per run at %dx%d (median of %d after warmup), pool \
     size swept 1/2/4/8\n\
     (this host reports %d hardware thread(s); with 1 the sweep checks\n\
    \ overhead only — the speedup materializes on multicore hosts)\n\n"
    n n repeats
    (Domain.recommended_domain_count ());
  Printf.printf "%-18s %11s %11s %11s %11s %8s\n" "kernel" "1 dom (ms)"
    "2 dom (ms)" "4 dom (ms)" "8 dom (ms)" "best x";
  let saved = Pool.size () in
  List.iter
    (fun (name, f) ->
      let by_domains =
        List.map
          (fun s ->
            Pool.set_size s;
            let dt = time_median ~repeats (fun () -> f ()) in
            (s, dt))
          sizes
      in
      let seq = List.assoc 1 by_domains in
      let best =
        List.fold_left
          (fun acc (s, dt) -> if s > 1 then Float.min acc dt else acc)
          Float.infinity by_domains
      in
      let ms s = List.assoc s by_domains *. 1000. in
      Printf.printf "%-18s %11.2f %11.2f %11.2f %11.2f %8.2f\n" name (ms 1)
        (ms 2) (ms 4) (ms 8)
        (seq /. best);
      e7_rows :=
        { e7_kernel = name; e7_pixels = n * n; e7_by_domains = by_domains }
        :: !e7_rows)
    kernels;
  Pool.set_size saved;
  e7_rows := List.rev !e7_rows;
  e7_kmeans_p20 ()

(* ------------------------------------------------------------------ *)
(* E8: reuse of derived objects                                        *)
(* ------------------------------------------------------------------ *)

let e8_stats : (float * float * Kernel.cache_stats) option ref = ref None
let e8_failed = ref false

(* a fresh Fig 3 kernel and its P20 binding, built outside any timer *)
let e8_kernel n =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  let _ = ok (Figures.load_tm_bands k ~seed:9 ~nrow:n ~ncol:n ()) in
  let p = Option.get (Kernel.find_process k Figures.p20_name) in
  let binding =
    ok
      (Kernel.find_binding k p
         ~available:
           [ ( Figures.landsat_class,
               Kernel.objects_of_class k Figures.landsat_class ) ])
  in
  (k, p, binding)

let e8_cache () =
  section "E8: reuse of derived objects — repeated-DERIVE hit-rate sweep";
  let n = if smoke then 32 else 64 in
  Printf.printf
    "workload: r identical DERIVE requests for %s (%dx%d P20) on a fresh \
     kernel;\nthe first computes, the rest must reuse its task\n\n"
    Figures.land_cover_class n n;
  Printf.printf "%-10s %-7s %-8s %-10s %-14s %-14s %s\n" "requests" "hits"
    "misses" "hit rate" "total (ms)" "naive (ms)" "saved";
  let row label r (c : Kernel.counters) total =
    (* naive = recompute on every request (per-miss cost x r) *)
    let naive =
      total /. float_of_int c.Kernel.cache_misses *. float_of_int r
    in
    Printf.printf "%-10s %-7d %-8d %-10.2f %-14.2f %-14.2f %.1fx\n" label
      c.Kernel.cache_hits c.Kernel.cache_misses
      (float_of_int c.Kernel.cache_hits /. float_of_int r)
      (total *. 1000.) (naive *. 1000.)
      (naive /. total)
  in
  List.iter
    (fun r ->
      let k, p, binding = e8_kernel n in
      let first = ref None in
      let _, total =
        time_once (fun () ->
            for _ = 1 to r do
              let t = ok (Kernel.execute_process k p ~inputs:binding) in
              match !first with
              | None -> first := Some t
              | Some f -> assert (t.Task.task_id = f.Task.task_id)
            done)
      in
      row (string_of_int r) r (Kernel.counters k) total)
    (if smoke then [ 4 ] else [ 1; 2; 4; 8; 16; 32 ]);
  (* the same two requests with a save -> load between them: the
     loaded kernel must reuse the first request's task *)
  let k, p, binding = e8_kernel n in
  let first, t_first =
    time_once (fun () -> ok (Kernel.execute_process k p ~inputs:binding))
  in
  let loaded = ok (Persist.load (Persist.save k)) in
  let p' = Option.get (Kernel.find_process loaded Figures.p20_name) in
  let again, t_again =
    time_once (fun () -> ok (Kernel.execute_process loaded p' ~inputs:binding))
  in
  let c = Kernel.counters loaded in
  row "2 (load)" 2 c (t_first +. t_again);
  if
    again.Task.task_id <> first.Task.task_id
    || c.Kernel.cache_hits <> 1 || c.Kernel.cache_misses <> 1
  then begin
    print_endline "E8 FAILURE: the repeat after save -> load was not a hit";
    e8_failed := true
  end;
  (* timing split: one cold miss vs one warm hit *)
  let k, p, binding = e8_kernel n in
  let run_once () = ok (Kernel.execute_process k p ~inputs:binding) in
  let t0, cold = time_once run_once in
  let t1', warm = time_once run_once in
  assert (t0.Task.task_id = t1'.Task.task_id);
  Printf.printf
    "\ncold miss %.2f ms, warm hit %.4f ms (%.0fx); executions recorded: %d\n"
    (cold *. 1000.) (warm *. 1000.) (cold /. warm)
    (Kernel.counters k).Kernel.executions;
  (* re-versioning the process ends the reuse of its tasks *)
  let before = Kernel.cache_stats k in
  let edited =
    ok (Process.edit p ~name:Figures.p20_name ~params:[ ("k", Value.int 8) ] ())
  in
  ok (Kernel.define_process k edited);
  let after = Kernel.cache_stats k in
  let _, recompute = time_once run_once in
  Printf.printf
    "re-versioning %s: reuse entries %d -> %d (%d ended);\n\
     next identical request recomputes (%.2f ms) — stale results cannot \
     survive a process edit\n"
    Figures.p20_name before.Kernel.entries after.Kernel.entries
    (after.Kernel.invalidations - before.Kernel.invalidations)
    (recompute *. 1000.);
  e8_stats := Some (cold, warm, Kernel.cache_stats k)

(* ------------------------------------------------------------------ *)
(* E10: incremental refresh — invalidate k of n pipeline inputs        *)
(* ------------------------------------------------------------------ *)

type e10_data = {
  e10_n : int;
  e10_k : int;
  e10_total_derived : int;
  e10_refreshed : int;
  e10_refresh_s : float;
  e10_full_s : float;
  e10_identical : bool;
  e10_deterministic : bool;
}

let e10_result : e10_data option ref = ref None
let e10_failed = ref false

(* n independent 2-stage pipelines: src_i -> e10s1 -> mid_i -> e10s2 ->
   out_i.  Updating one src must stale (and refresh) exactly its own
   mid and out, never the other pipelines. *)
let e10_kernel ~n ~npix ~seed_of () =
  let open Template in
  let k = Kernel.create () in
  let base_attrs =
    [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
      ("timestamp", Vtype.Abstime) ]
  in
  ok (Kernel.define_class k (ok (Schema.define ~name:"e10src" ~attributes:base_attrs ())));
  ok
    (Kernel.define_class k
       (ok (Schema.define ~name:"e10mid" ~attributes:base_attrs ~derived_by:"e10s1" ())));
  ok
    (Kernel.define_class k
       (ok (Schema.define ~name:"e10out" ~attributes:base_attrs ~derived_by:"e10s2" ())));
  let stage name src_cls out_cls factor =
    ok
      (Kernel.define_process k
         (ok
            (Process.define_primitive ~name ~output_class:out_cls
               ~args:[ Process.scalar_arg "x" src_cls ]
               ~template:
                 (make ~assertions:[]
                    ~mappings:
                      [ { target = "data";
                          rhs =
                            Apply
                              ("img_scale",
                               [ Const (Value.float factor);
                                 Attr_of ("x", "data") ]) };
                        { target = "spatialextent";
                          rhs = Attr_of ("x", "spatialextent") };
                        { target = "timestamp"; rhs = Attr_of ("x", "timestamp") } ])
               ())))
  in
  stage "e10s1" "e10src" "e10mid" 2.0;
  stage "e10s2" "e10mid" "e10out" 3.0;
  let srcs =
    Array.init n (fun i ->
        let img =
          R.Synthetic.value_noise ~seed:(seed_of i) ~nrow:npix ~ncol:npix ()
        in
        ok
          (Kernel.insert_object k ~cls:"e10src"
             [ ("data", Value.image img);
               ("spatialextent",
                Value.box (Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
               ("timestamp", Value.abstime (Gaea_geo.Abstime.of_ymd 1986 1 1)) ]))
  in
  (k, srcs)

let e10_derive_all k srcs =
  let p1 = Option.get (Kernel.find_process k "e10s1") in
  let p2 = Option.get (Kernel.find_process k "e10s2") in
  Array.map
    (fun oid ->
      let t1 = ok (Kernel.execute_process k p1 ~inputs:[ ("x", [ oid ]) ]) in
      let mid = List.hd t1.Task.outputs in
      let t2 = ok (Kernel.execute_process k p2 ~inputs:[ ("x", [ mid ]) ]) in
      (mid, List.hd t2.Task.outputs))
    srcs

let e10_out_hashes k pairs =
  Array.to_list
    (Array.map
       (fun (_, out) ->
         match Kernel.object_attr k ~cls:"e10out" out "data" with
         | Some v -> Value.content_hash v
         | None -> 0)
       pairs)

let e10_update_src k srcs i ~npix =
  let img =
    R.Synthetic.value_noise ~seed:(1000 + i) ~nrow:npix ~ncol:npix ()
  in
  ok (Kernel.update_object k ~cls:"e10src" srcs.(i) [ ("data", Value.image img) ])

let e10_incremental_refresh () =
  section "E10: incremental refresh — invalidate k of n pipeline inputs";
  let n = if smoke then 4 else 8 in
  let k_inv = 1 in
  let npix = if smoke then 32 else 64 in
  let total = 2 * n in
  Printf.printf
    "workload: %d independent 2-stage pipelines over %dx%d images (%d \
     derived objects);\nupdate %d input(s), REFRESH ALL, and compare \
     against a cold full re-derivation\n\n"
    n npix npix total k_inv;
  (* -- timing: incremental refresh vs full recompute -- *)
  let fresh_seed i = i + 1 in
  let k, srcs = e10_kernel ~n ~npix ~seed_of:fresh_seed () in
  let _ = e10_derive_all k srcs in
  for i = 0 to k_inv - 1 do
    e10_update_src k srcs i ~npix
  done;
  let stale_before = List.length (Kernel.stale_objects k) in
  let t0 = Unix.gettimeofday () in
  let report = Kernel.refresh_stale k in
  let dt_refresh = Unix.gettimeofday () -. t0 in
  (* full recompute of the same post-update state, from a cold kernel *)
  let seed_updated i = if i < k_inv then 1000 + i else fresh_seed i in
  let k_cold, srcs_cold = e10_kernel ~n ~npix ~seed_of:seed_updated () in
  let t0 = Unix.gettimeofday () in
  let pairs_cold = e10_derive_all k_cold srcs_cold in
  let dt_full = Unix.gettimeofday () -. t0 in
  (* refreshed values must match the cold derivation bit for bit *)
  let k2, srcs2 = e10_kernel ~n ~npix ~seed_of:fresh_seed () in
  let pairs2 = e10_derive_all k2 srcs2 in
  for i = 0 to k_inv - 1 do
    e10_update_src k2 srcs2 i ~npix
  done;
  let _ = Kernel.refresh_stale k2 in
  let identical = e10_out_hashes k2 pairs2 = e10_out_hashes k_cold pairs_cold in
  (* -- determinism: events, tasks and values at pool sizes 1/2/8 -- *)
  let saved = Pool.size () in
  let snapshot s =
    Pool.set_size s;
    let k, srcs = e10_kernel ~n ~npix:32 ~seed_of:fresh_seed () in
    let pairs = e10_derive_all k srcs in
    for i = 0 to k_inv - 1 do
      e10_update_src k srcs i ~npix:32
    done;
    let r = Kernel.refresh_stale k in
    ( List.map
        (fun (seq, ev) -> (seq, Gaea_core.Events.event_to_string ev))
        (Kernel.event_log k),
      List.map
        (fun (t : Task.t) -> (t.Task.task_id, t.Task.process, t.Task.outputs))
        (Kernel.tasks k),
      e10_out_hashes k pairs,
      r.Kernel.refreshed )
  in
  let s1 = snapshot 1 in
  let deterministic = s1 = snapshot 2 && s1 = snapshot 8 in
  Pool.set_size saved;
  Printf.printf "stale after update: %d of %d derived object(s)\n" stale_before
    total;
  Printf.printf "refreshed: %d object(s) in %.2f ms (full recompute: %.2f ms)\n"
    report.Kernel.refreshed (dt_refresh *. 1000.) (dt_full *. 1000.);
  Printf.printf "refreshed values identical to cold re-derivation: %b\n"
    identical;
  Printf.printf "provenance/event order identical at pool sizes 1/2/8: %b\n"
    deterministic;
  if report.Kernel.refreshed >= total then begin
    print_endline
      "E10 FAILURE: refresh recomputed every derived object — incremental \
       path degraded to full recompute";
    e10_failed := true
  end;
  if not identical then begin
    print_endline "E10 FAILURE: refreshed values diverge from cold derivation";
    e10_failed := true
  end;
  if not deterministic then begin
    print_endline "E10 FAILURE: refresh scheduling changed provenance order";
    e10_failed := true
  end;
  e10_result :=
    Some
      { e10_n = n; e10_k = k_inv; e10_total_derived = total;
        e10_refreshed = report.Kernel.refreshed; e10_refresh_s = dt_refresh;
        e10_full_s = dt_full; e10_identical = identical;
        e10_deterministic = deterministic }

(* ------------------------------------------------------------------ *)
(* E13: OVERLAPS at database scale                                     *)
(* ------------------------------------------------------------------ *)

let e13_failed = ref false

(* minor words per returned row of the catalog-shaped E13 query: its
   reading (59.7) plus 25% *)
let e13_words_per_row_bound = 74.6

(* A sqrt(n) x sqrt(n) grid of unit boxes, one scene per cell. *)
let e13_kernel n =
  let k = Kernel.create () in
  ok
    (Kernel.define_class k
       (ok
          (Schema.define ~name:"scene"
             ~attributes:
               [ ("n", Vtype.Int); ("spatialextent", Vtype.Box);
                 ("timestamp", Vtype.Abstime) ]
             ())));
  let side = int_of_float (Float.sqrt (float_of_int n)) in
  for i = 0 to n - 1 do
    let x = float_of_int (i mod side) and y = float_of_int (i / side) in
    ignore
      (ok
         (Kernel.insert_object k ~cls:"scene"
            [ ("n", Value.int i);
              ( "spatialextent",
                Value.box
                  (Gaea_geo.Box.make ~xmin:x ~ymin:y ~xmax:(x +. 1.)
                     ~ymax:(y +. 1.)) );
              ( "timestamp",
                Value.abstime
                  (Gaea_geo.Abstime.of_ymd 1990 1 (1 + (i mod 28))) ) ]))
  done;
  k

(* The catalog shape of perfbench: 2,000 boxes 1–4 units a side on a
   96×96 domain, churned by 4,000 interleaved inserts and deletes after
   the first probe built the window index, queried with 8×8 windows. *)
let e13_catalog ~queries =
  let rng = Random.State.make [| 13 |] in
  let k = Kernel.create () in
  ok
    (Kernel.define_class k
       (ok
          (Schema.define ~name:"scene"
             ~attributes:
               [ ("n", Vtype.Int); ("spatialextent", Vtype.Box);
                 ("timestamp", Vtype.Abstime) ]
             ())));
  let insert i =
    let x = float (Random.State.int rng 96)
    and y = float (Random.State.int rng 96) in
    let w = float (1 + Random.State.int rng 4)
    and h = float (1 + Random.State.int rng 4) in
    ok
      (Kernel.insert_object k ~cls:"scene"
         [ ("n", Value.int i);
           ( "spatialextent",
             Value.box
               (Gaea_geo.Box.make ~xmin:x ~ymin:y ~xmax:(x +. w)
                  ~ymax:(y +. h)) );
           ( "timestamp",
             Value.abstime (Gaea_geo.Abstime.of_ymd 1990 1 (1 + (i mod 28))) ) ])
  in
  let live = Queue.create () in
  for i = 1 to 2_000 do Queue.add (insert i) live done;
  let windows =
    Array.init 64 (fun _ ->
        let x = float (Random.State.int rng 90) +. 0.5
        and y = float (Random.State.int rng 90) +. 0.5 in
        match
          Gaea_query.Parser.parse_one
            (Printf.sprintf
               "SELECT oid FROM scene WHERE spatialextent OVERLAPS \
                BOX(%g, %g, %g, %g) ORDER BY timestamp"
               x y (x +. 8.) (y +. 8.))
        with
        | Ok stmt -> stmt
        | Error e -> failwith (Gaea_core.Gaea_error.to_string e))
  in
  let ex = Gaea_query.Executor.create ~kernel:k () in
  let run i =
    match Gaea_query.Executor.execute ex windows.(i land 63) with
    | Ok (Gaea_query.Executor.Rows { rows; _ }) -> List.length rows
    | _ -> failwith "E13: the catalog SELECT failed"
  in
  ignore (run 0);
  for i = 2_001 to 6_000 do
    ok (Kernel.delete_object k ~cls:"scene" (Queue.pop live));
    Queue.add (insert i) live
  done;
  ignore (run 0);
  let rows = ref 0 in
  let w0 = Gc.minor_words () in
  let _, dt =
    time_once (fun () -> for i = 1 to queries do rows := !rows + run i done)
  in
  let words = Gc.minor_words () -. w0 in
  let per_query v = v /. float_of_int queries
  and per_row v = v /. float_of_int (max 1 !rows) in
  Printf.printf
    "\ncatalog shape (2000 boxes of 1-4 units on 96x96, churned; 8x8 windows)\n";
  Printf.printf "%-8s %-14s %-18s %-12s %s\n" "rows/q" "us/query"
    "minor words/query" "us/row" "minor words/row";
  Printf.printf "%-8.1f %-14.2f %-18.0f %-12.3f %.1f\n"
    (per_query (float_of_int !rows)) (per_query (dt *. 1e6)) (per_query words)
    (per_row (dt *. 1e6)) (per_row words);
  (* the probe and the row path allocate per returned row, not per
     stored box: past this bound they copy or re-test rows again *)
  let bound = e13_words_per_row_bound in
  if per_row words > bound then begin
    Printf.printf
      "E13 FAILURE: %.1f minor words per returned row on the catalog shape \
       (bound %.1f)\n"
      (per_row words) bound;
    e13_failed := true
  end

let e13_overlaps () =
  section "E13: OVERLAPS at database scale — cost per query against table size";
  let src =
    "SELECT oid FROM scene WHERE spatialextent OVERLAPS BOX(2.5, 2.5, 4.5, 4.5) \
     ORDER BY timestamp"
  in
  let stmt =
    match Gaea_query.Parser.parse_one src with
    | Ok stmt -> stmt
    | Error e -> failwith (Gaea_core.Gaea_error.to_string e)
  in
  Printf.printf "workload: %s\n(a window matching 9 unit boxes of the grid)\n\n" src;
  Printf.printf "%-8s %-6s %-14s %s\n" "N" "rows" "us/query" "minor words/query";
  let queries = if smoke then 200 else 2000 in
  let measure n =
    let ex = Gaea_query.Executor.create ~kernel:(e13_kernel n) () in
    let run () =
      match Gaea_query.Executor.execute ex stmt with
      | Ok (Gaea_query.Executor.Rows { rows; _ }) -> List.length rows
      | _ -> failwith "E13: the SELECT returned no rows"
    in
    (* the first probe builds the window index *)
    let rows = run () in
    let w0 = Gc.minor_words () in
    let _, dt = time_once (fun () -> for _ = 1 to queries do ignore (run ()) done) in
    let words = (Gc.minor_words () -. w0) /. float_of_int queries in
    Printf.printf "%-8d %-6d %-14.2f %.0f\n" n rows
      (dt *. 1e6 /. float_of_int queries) words;
    (n, words)
  in
  let sizes = if smoke then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  let results = List.map measure sizes in
  let n0, smallest = List.hd results and n1, largest = List.hd (List.rev results) in
  (* allocation, unlike time, does not depend on the host's noise *)
  if largest > 2. *. smallest then begin
    Printf.printf
      "E13 FAILURE: %.0f words per query at N = %d against %.0f at N = %d — \
       the cost grows with the table\n"
      largest n1 smallest n0;
    e13_failed := true
  end;
  e13_catalog ~queries

(* ------------------------------------------------------------------ *)
(* E14: DERIVE at database scale                                       *)
(* ------------------------------------------------------------------ *)

let e14_failed = ref false

(* mean µs and minor words of [f] over [runs] calls, [reset] untimed
   after each *)
let measure ~runs ?(reset = ignore) f =
  let dt = ref 0. and words = ref 0. in
  for _ = 1 to runs do
    let w0 = Gc.minor_words () in
    let _, t = time_once f in
    words := !words +. (Gc.minor_words () -. w0);
    dt := !dt +. t;
    reset ()
  done;
  (!dt *. 1e6 /. float_of_int runs, !words /. float_of_int runs)

let parse_stmt src =
  match Gaea_query.Parser.parse_one src with
  | Ok stmt -> stmt
  | Error e -> failwith (Gaea_core.Gaea_error.to_string e)

(* One scene, an empty derived class, and N objects of a class the
   derivation never reads. *)
let e14_kernel n =
  let k = Kernel.create () in
  let session = Gaea_query.Session.create ~kernel:k () in
  ignore
    (ok
       (Gaea_query.Session.run_string session
          "DEFINE CLASS scene ( data image, spatialextent box, timestamp \
           abstime );\n\
           DEFINE CLASS normalized ( data image, spatialextent box, \
           timestamp abstime ) DERIVED BY normalize;\n\
           DEFINE CLASS other ( n int );\n\
           DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) MAP \
           data = img_scale(0.5, s.data) MAP spatialextent = \
           s.spatialextent MAP timestamp = s.timestamp END;\n\
           INSERT INTO scene ( data = synth_rainfall(1, 2, 2), \
           spatialextent = BOX(0, 0, 1, 1), timestamp = DATE '1988-06-01' \
           );"));
  for i = 1 to n do
    ignore (ok (Kernel.insert_object k ~cls:"other" [ ("n", Value.int i) ]))
  done;
  k

let e14_derive_scale () =
  section "E14: DERIVE at database scale — cost per DERIVE against unrelated data";
  Printf.printf
    "workload: one scene, an empty class derived from it, N objects of an\n\
     unrelated class; plan = Derivation.derivation_plan, DERIVE = a firing\n\
     `DERIVE normalized` (its object is deleted, untimed, before the next)\n\n";
  Printf.printf "%-8s %-10s %-14s %-10s %s\n" "N" "plan us" "plan words"
    "DERIVE us" "DERIVE words";
  let stmt = parse_stmt "DERIVE normalized" in
  let plans = if smoke then 100 else 1000 in
  let derives = if smoke then 50 else 500 in
  let row n =
    let k = e14_kernel n in
    let ex = Gaea_query.Executor.create ~kernel:k () in
    let plan () =
      if Derivation.derivation_plan k "normalized" = None then
        failwith "E14: no plan for normalized"
    in
    (* the class is empty before each run, so a DERIVE that succeeds
       has fired *)
    let derive () =
      match Gaea_query.Executor.execute ex stmt with
      | Ok _ -> ()
      | Error e -> failwith ("E14: " ^ Gaea_core.Gaea_error.to_string e)
    in
    let reset () =
      List.iter
        (fun oid -> ignore (ok (Kernel.delete_object k ~cls:"normalized" oid)))
        (Kernel.objects_of_class k "normalized")
    in
    (* one unmeasured run of each builds the net and warms the paths *)
    plan ();
    derive ();
    reset ();
    let plan_us, plan_words = measure ~runs:plans plan in
    let derive_us, derive_words = measure ~runs:derives ~reset derive in
    Printf.printf "%-8d %-10.1f %-14.0f %-10.1f %.0f\n" n plan_us plan_words
      derive_us derive_words;
    (n, plan_words, derive_words)
  in
  let sizes = if smoke then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  let results = List.map row sizes in
  let n0, plan0, derive0 = List.hd results
  and n1, plan1, derive1 = List.hd (List.rev results) in
  (* allocation, unlike time, does not depend on the host's noise *)
  List.iter
    (fun (what, smallest, largest) ->
      if largest > 2. *. smallest then begin
        Printf.printf
          "E14 FAILURE: %s allocates %.0f words at N = %d against %.0f at N = \
           %d — the cost grows with unrelated data\n"
          what largest n1 smallest n0;
        e14_failed := true
      end)
    [ ("planning", plan0, plan1); ("a firing DERIVE", derive0, derive1) ]

(* ------------------------------------------------------------------ *)
(* E15 and E16: a DERIVE over stored and fired history                 *)
(* ------------------------------------------------------------------ *)

let e15_failed = ref false
let e16_failed = ref false

(* N scenes of 2x2 images and the normalized products of all of them
   but scene [unfired] (0-based), each fired through
   Kernel.execute_process. *)
let history_kernel n ~unfired =
  let k = Kernel.create () in
  ignore
    (ok
       (Gaea_query.Session.run_string
          (Gaea_query.Session.create ~kernel:k ())
          "DEFINE CLASS scene ( data image, spatialextent box, timestamp \
           abstime );\n\
           DEFINE CLASS normalized ( data image, spatialextent box, \
           timestamp abstime ) DERIVED BY normalize;\n\
           DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) MAP \
           data = img_scale(0.5, s.data) MAP spatialextent = \
           s.spatialextent MAP timestamp = s.timestamp END;"));
  let data = Value.image (R.Synthetic.rainfall_map ~seed:1 ~nrow:2 ~ncol:2 ())
  and box = Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.
  and day = Gaea_geo.Abstime.of_ymd 1988 6 1 in
  let scenes =
    List.init n (fun _ ->
        ok
          (Kernel.insert_object k ~cls:"scene"
             [ ("data", data); ("spatialextent", Value.box box);
               ("timestamp", Value.abstime day) ]))
  in
  let p = Option.get (Kernel.find_process k "normalize") in
  List.iteri
    (fun i scene ->
      if i <> unfired then
        ignore (ok (Kernel.execute_process k p ~inputs:[ ("s", [ scene ]) ])))
    scenes;
  k

(* run [stmt] through the executor; [fired] says whether it must fire,
   which the reply's last line, "fired ... (task #id)", tells *)
let derive_through ex stmt ~fired () =
  match Gaea_query.Executor.execute ex stmt with
  | Ok (Gaea_query.Executor.Message m) ->
    let has_fired = String.ends_with ~suffix:")" m in
    if has_fired <> fired then failwith ("E15/E16: unexpected reply " ^ m)
  | Ok _ -> failwith "E15/E16: a DERIVE returned rows"
  | Error e -> failwith ("E15/E16: " ^ Gaea_core.Gaea_error.to_string e)

(* delete the object the last firing DERIVE added: its binding is
   unfired again *)
let drop_newest k () =
  match List.rev (Kernel.objects_of_class k "normalized") with
  | oid :: _ -> ignore (ok (Kernel.delete_object k ~cls:"normalized" oid))
  | [] -> ()

let e15_sizes = if smoke then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ]

let e15_fired_history () =
  section "E15: a firing DERIVE against fired history";
  Printf.printf
    "workload: N scenes, normalize already fired on all but the newest;\n\
     `DERIVE normalized NEED N` plans the one unfired scene from\n\
     normalize's frontier (the new object is deleted, untimed, before the\n\
     next run), against a retrieval `DERIVE normalized NEED N-1`\n\n";
  Printf.printf "%-8s %-12s %-20s %-16s %s\n" "N" "us/DERIVE" "minor words/DERIVE"
    "retrieve words" "ratio";
  let runs = if smoke then 5 else 10 in
  let row n =
    let k = history_kernel n ~unfired:(n - 1) in
    let ex = Gaea_query.Executor.create ~kernel:k () in
    let stmt need =
      parse_stmt (Printf.sprintf "DERIVE normalized NEED %d" need)
    in
    let derive = derive_through ex (stmt n) ~fired:true
    and retrieve = derive_through ex (stmt (n - 1)) ~fired:false in
    derive ();
    drop_newest k ();
    retrieve ();
    let us, words = measure ~runs ~reset:(drop_newest k) derive in
    let _, retrieve_words = measure ~runs retrieve in
    let ratio = words /. retrieve_words in
    Printf.printf "%-8d %-12.1f %-20.0f %-16.0f %.2f\n" n us words
      retrieve_words ratio;
    (n, ratio)
  in
  (* past fired history, firing one object may cost no more than twice
     returning the ones already stored, at every N *)
  List.iter
    (fun (n, ratio) ->
      if ratio > 2. then begin
        Printf.printf
          "E15 FAILURE: at N = %d a firing DERIVE allocates %.2fx the \
           retrieval of NEED N-1 (bound 2) — it pays per fired binding\n"
          n ratio;
        e15_failed := true
      end)
    (List.map row e15_sizes)

let e16_deficit () =
  section "E16: firing one object versus retrieving the stored ones";
  Printf.printf
    "workload: N scenes and the products of all but the first (as in\n\
     perfbench catalog); a firing `DERIVE normalized NEED N` against a\n\
     retrieval `DERIVE normalized NEED N-1`, both through the executor\n\n";
  Printf.printf "%-8s %-12s %-14s %-12s %-14s %s\n" "N" "fire us" "fire words"
    "retrieve us" "retrieve words" "ratio";
  let runs = if smoke then 20 else 50 in
  let row n =
    let k = history_kernel n ~unfired:0 in
    let ex = Gaea_query.Executor.create ~kernel:k () in
    let stmt need =
      parse_stmt (Printf.sprintf "DERIVE normalized NEED %d" need)
    in
    let fire = derive_through ex (stmt n) ~fired:true
    and retrieve = derive_through ex (stmt (n - 1)) ~fired:false in
    fire ();
    drop_newest k ();
    retrieve ();
    let fire_us, fire_words = measure ~runs ~reset:(drop_newest k) fire in
    let retrieve_us, retrieve_words = measure ~runs retrieve in
    let ratio = fire_words /. retrieve_words in
    Printf.printf "%-8d %-12.1f %-14.0f %-12.1f %-14.0f %.2f\n" n fire_us
      fire_words retrieve_us retrieve_words ratio;
    (n, ratio, retrieve_words /. float_of_int (n - 1))
  in
  let rows = List.map row e15_sizes in
  (* a retrieval's reply costs its OID list (3 words per OID) and the
     text; walking the heap or growing a buffer costs more *)
  List.iter
    (fun (n, _, per_oid) ->
      if per_oid > 4. then begin
        Printf.printf
          "E16 FAILURE: at N = %d a retrieval allocates %.2f minor words per \
           returned OID (bound 4)\n"
          n per_oid;
        e16_failed := true
      end)
    rows;
  let n1, ratio, _ = List.hd (List.rev rows) in
  (* firing one object may cost no more than twice returning the ones
     already stored *)
  if ratio > 2. then begin
    Printf.printf
      "E16 FAILURE: at N = %d a firing DERIVE allocates %.2fx what the \
       retrieval does — it pays per stored object for more than listing it\n"
      n1 ratio;
    e16_failed := true
  end

(* ------------------------------------------------------------------ *)
(* E17: the ingest path                                                *)
(* ------------------------------------------------------------------ *)

let e17_failed = ref false

(* the text perfbench's derive-refresh ingests with, one per arrival *)
let e17_insert =
  "INSERT INTO inbox ( data = synth_band(123456789, 16, 16), spatialextent \
   = BOX(0, 0, 1, 1), timestamp = DATE '1987-03-14' );"

(* Words a call allocates, minor and major: a 128x128 result is
   allocated in the major heap directly. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Every registry image operator at 128x128, one lane, through
   Registry.apply: what a call allocates beyond the value it returns.
   A flat loop over the backing arrays allocates its result and a few
   dozen words; a closure per pixel boxes each result float. *)
let e17_operators gate =
  let side = 128 in
  let pixels = float_of_int (side * side) in
  let reg = Registry.with_builtins () in
  let band seed =
    Value.image
      (R.Synthetic.value_noise ~seed ~nrow:side ~ncol:side ~scale:255. ())
  in
  let a = band 1 and b = band 2 in
  (* cloud holes: the 5% of band 1 above 200 *)
  let holes =
    Value.image
      (R.Image.map
         (fun v -> if v > 200. then Float.nan else v)
         (Result.get_ok (Value.to_image a)))
  in
  let date m = Value.abstime (Gaea_geo.Abstime.of_ymd 1988 m 1) in
  let two = [ a; b ] and cutoff = Value.float 128. in
  let operators =
    [ ("img_add", two); ("img_subtract", two); ("img_multiply", two);
      ("img_divide", two); ("img_ratio", two); ("img_abs_diff", two);
      ("ndvi", two);
      ("img_scale", [ Value.float 2.; a ]);
      ("img_offset", [ Value.float 2.; a ]);
      ("img_threshold", [ a; cutoff ]);
      ("img_threshold_below", [ a; cutoff ]);
      ("img_normalize", [ a ]);
      ("img_linear_combination", [ Value.vector [| 0.5; -1.25 |]; a; b ]);
      ("temporal_interpolate", [ a; date 1; b; date 12; date 6 ]);
      ("resize_nearest", [ a; Value.int side; Value.int side ]);
      ("resize_bilinear", [ a; Value.int side; Value.int side ]);
      ("fill_missing", [ holes ]);
      ("img_rmse", two);
      ("img_agreement", two) ]
  in
  let runs = if smoke then 20 else 50 in
  let saved = Pool.size () in
  Pool.set_size 1;
  Printf.printf "%-24s %10s %14s\n" "operator at 128x128" "us" "words/pixel";
  List.iter
    (fun (name, args) ->
      let apply () =
        match Registry.apply reg name args with
        | Ok v -> v
        | Error e -> failwith ("E17: " ^ e)
      in
      let result = Obj.reachable_words (Obj.repr (apply ())) in
      (* settle the collector the pool resize and earlier rows left
         mid-cycle: it would charge its bookkeeping to this row *)
      Gc.full_major ();
      let t0 = Unix.gettimeofday () and w0 = allocated_words () in
      for _ = 1 to runs do
        ignore (apply ())
      done;
      let words = (allocated_words () -. w0) /. float_of_int runs in
      let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int runs in
      let beyond = (words -. float_of_int result) /. pixels in
      Printf.printf "%-24s %10.1f %14.2f\n" name us beyond;
      gate (name ^ " words beyond its result, per pixel") ~bound:1. beyond)
    operators;
  Pool.set_size saved

(* perfbench's statement shapes, one row each: derive-refresh's INSERT,
   DELETE, retrieval and SHOW STALE, and catalog's OVERLAPS and AT
   SELECTs.  The bound on minor words per [Parser.parse_one] is the
   reading when it was set (170, 36, 39, 27, 101, 80) plus about 25%
   headroom; the token-list parser read 402, 89, 92, 70, 249 and 189. *)
let e17_statements =
  [ ("derive-refresh INSERT", e17_insert, 213.);
    ("DELETE FROM inbox N", "DELETE FROM inbox 2417;", 45.);
    ("DERIVE out NEED N", "DERIVE out NEED 250;", 49.);
    ("SHOW STALE", "SHOW STALE;", 34.);
    ( "catalog OVERLAPS SELECT",
      "SELECT * FROM src WHERE spatialextent OVERLAPS BOX(42.5, 17.5, 50.5, \
       25.5) ORDER BY timestamp;",
      126. );
    ( "catalog AT SELECT",
      "SELECT timestamp FROM src WHERE timestamp AT DATE '1987-03-14';",
      100. ) ]

(* Each statement parsed hot, in batches: the best batch's time per
   statement, and the minor words of one statement (the same in every
   batch). *)
let e17_parse gate =
  let calls = if smoke then 20_000 else 200_000 in
  List.iter
    (fun (name, src, bound) ->
      ignore (parse_stmt src);
      let batch () =
        let w0 = Gc.minor_words () in
        let (), dt =
          time_once (fun () ->
              for _ = 1 to calls do
                ignore (Gaea_query.Parser.parse_one src)
              done)
        in
        (dt, (Gc.minor_words () -. w0) /. float_of_int calls)
      in
      let batches = List.init 5 (fun _ -> batch ()) in
      let best = List.fold_left (fun b (dt, _) -> Float.min b dt) infinity batches in
      let words = snd (List.hd batches) in
      Printf.printf "parse_one %s: %.3f us, %.0f minor words\n" name
        (best *. 1e6 /. float_of_int calls) words;
      gate ("parse_one " ^ name ^ " minor words") ~bound words)
    e17_statements

let e17_ingest () =
  section
    "E17: the ingest path — synth_band, img_scale, the image operators, the \
     lexer and parser, CHECK ALL";
  let gate name ~bound value =
    let pass = value <= bound in
    Printf.printf "%-58s %10.2f (bound %.2f) %s\n" name value bound
      (if pass then "ok" else "FAILED");
    if not pass then e17_failed := true
  in
  let runs = if smoke then 200 else 2000 in
  let reg = Registry.with_builtins () in
  let args = [ Value.int 1; Value.int 16; Value.int 16 ] in
  let band () =
    match Registry.apply reg "synth_band" args with
    | Ok _ -> ()
    | Error e -> failwith ("E17: " ^ e)
  in
  band ();
  let band_us, band_words = measure ~runs band in
  Printf.printf "synth_band 16x16: %.2f us, %.0f minor words\n" band_us
    band_words;
  gate "synth_band minor words per pixel" ~bound:4. (band_words /. 256.);
  (* the scale every catalog and derive-refresh DERIVE and REFRESH runs *)
  let scale_args =
    match Registry.apply reg "synth_band" args with
    | Ok band -> [ Value.float 2.; band ]
    | Error e -> failwith ("E17: " ^ e)
  in
  let scale () =
    match Registry.apply reg "img_scale" scale_args with
    | Ok _ -> ()
    | Error e -> failwith ("E17: " ^ e)
  in
  scale ();
  let scale_us, scale_words = measure ~runs scale in
  Printf.printf "img_scale 16x16: %.2f us, %.0f minor words\n" scale_us
    scale_words;
  let scaled =
    Obj.reachable_words
      (Obj.repr (Result.get_ok (Registry.apply reg "img_scale" scale_args)))
  in
  gate "img_scale words beyond the image it returns, per pixel" ~bound:1.
    ((scale_words -. float_of_int scaled) /. 256.);
  let toks = Result.get_ok (Gaea_query.Lexer.tokenize e17_insert) in
  let ntok = List.length toks
  and list_words = Obj.reachable_words (Obj.repr toks) in
  let lex_us, lex_words =
    measure ~runs:(10 * runs) (fun () ->
        ignore (Gaea_query.Lexer.tokenize e17_insert))
  in
  Printf.printf
    "tokenize derive-refresh INSERT: %.2f us, %.0f minor words, %d tokens \
     in a list of %d words\n"
    lex_us lex_words ntok list_words;
  gate "tokenize words beyond its token list, per token" ~bound:2.
    ((lex_words -. float_of_int list_words) /. float_of_int ntok);
  e17_parse gate;
  e17_operators gate;
  (* CHECK ALL over N fired tasks of a process with one version *)
  let check = parse_stmt "CHECK ALL" in
  let row n =
    let k = history_kernel n ~unfired:n in
    let ex = Gaea_query.Executor.create ~kernel:k () in
    let run () = ignore (ok (Gaea_query.Executor.execute ex check)) in
    run ();
    let us, words = measure ~runs:(if smoke then 20 else 100) run in
    Printf.printf "CHECK ALL over %d fired tasks: %.1f us, %.0f minor words\n"
      n us words;
    words
  in
  let sizes = if smoke then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  let words = List.map row sizes in
  gate
    (Printf.sprintf "CHECK ALL words at %d over %d fired tasks"
       (List.hd (List.rev sizes)) (List.hd sizes))
    ~bound:1.5
    (List.hd (List.rev words) /. List.hd words)

(* ------------------------------------------------------------------ *)
(* E18: a firing DERIVE of a two-stage pipeline, and refresh history   *)
(* ------------------------------------------------------------------ *)

let e18_failed = ref false

(* words per fired task: 976 when the bound was set (about 25%
   headroom); 1,039 before a one-argument binding search walked the
   OID list without a Seq, 1,494 before process versions were compiled
   and commits went by position, 2,445 before the unfired frontiers *)
let e18_words_per_task = 1_220.

(* words per task REFRESH ALL refreshes after one src update (two
   tasks): 853 when the bound was set (about 25% headroom); 1,582
   before process versions were compiled *)
let e18_words_per_refreshed_task = 1_070.

(* perfbench derive-refresh's database: [n] pipelines src -> mid -> out
   over 16x16 images, each fired through Kernel.execute_process, and
   the empty staging pipeline inbox -> inmid -> inout *)
let e18_band seed =
  match
    Registry.apply (Registry.with_builtins ()) "synth_band"
      [ Value.int seed; Value.int 16; Value.int 16 ]
  with
  | Ok v -> v
  | Error e -> failwith ("E18: " ^ e)

let pipelines_kernel n =
  let k = Kernel.create () in
  let session = Gaea_query.Session.create ~kernel:k () in
  let image_class ?by name =
    Printf.sprintf
      "DEFINE CLASS %s ( data image, spatialextent box, timestamp abstime )%s;"
      name
      (match by with Some p -> " DERIVED BY " ^ p | None -> "")
  and scale name ~input ~output f =
    Printf.sprintf
      "DEFINE PROCESS %s OUTPUT %s ARGS ( x %s ) MAP data = img_scale(%.1f, \
       x.data) MAP spatialextent = x.spatialextent MAP timestamp = \
       x.timestamp END;"
      name output input f
  in
  ignore
    (ok
       (Gaea_query.Session.run_string session
          (String.concat "\n"
             [ image_class "src"; image_class ~by:"s1" "mid";
               image_class ~by:"s2" "out";
               scale "s1" ~input:"src" ~output:"mid" 2.0;
               scale "s2" ~input:"mid" ~output:"out" 0.5;
               image_class "inbox"; image_class ~by:"t1" "inmid";
               image_class ~by:"t2" "inout";
               scale "t1" ~input:"inbox" ~output:"inmid" 2.0;
               scale "t2" ~input:"inmid" ~output:"inout" 0.5 ])));
  let insert cls seed =
    ok
      (Kernel.insert_object k ~cls
         [ ("data", e18_band seed);
           ("spatialextent",
            Value.box (Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
           ("timestamp", Value.abstime (Gaea_geo.Abstime.of_ymd 1990 3 14)) ])
  in
  let proc name = Option.get (Kernel.find_process k name) in
  let srcs =
    List.init n (fun i ->
        let src = insert "src" (i + 1) in
        let mid =
          ok (Kernel.execute_process k (proc "s1") ~inputs:[ ("x", [ src ]) ])
        in
        ignore
          (ok
             (Kernel.execute_process k (proc "s2")
                ~inputs:[ ("x", mid.Task.outputs) ]));
        src)
  in
  (k, srcs, insert)

let e18_pipelines () =
  section "E18: a firing DERIVE of a two-stage pipeline, and refresh history";
  Printf.printf
    "workload: perfbench derive-refresh's 500 pipelines; two new inbox\n\
     objects, then `DERIVE inout NEED 2` fires t1 and t2 on both (the six\n\
     objects are deleted, untimed, before the next run).  Then one src\n\
     object is updated and refreshed 256 times: its update may allocate at\n\
     most 1.5x what it did after one refresh\n\n";
  let k, srcs, insert = pipelines_kernel 500 in
  let ex = Gaea_query.Executor.create ~kernel:k () in
  let derive = derive_through ex (parse_stmt "DERIVE inout NEED 2") ~fired:true in
  let seed = ref 1_000 in
  let arrive () =
    List.iter
      (fun _ ->
        incr seed;
        ignore (insert "inbox" !seed))
      [ 1; 2 ]
  in
  let retire () =
    List.iter
      (fun cls ->
        List.iter
          (fun oid -> ignore (ok (Kernel.delete_object k ~cls oid)))
          (Kernel.objects_of_class k cls))
      [ "inout"; "inmid"; "inbox" ]
  in
  arrive ();
  derive ();
  retire ();
  arrive ();
  let runs = if smoke then 50 else 500 in
  let us, words =
    measure ~runs
      ~reset:(fun () ->
        retire ();
        arrive ())
      derive
  in
  let per_task = words /. 4. in
  Printf.printf
    "DERIVE inout NEED 2: %.1f us, %.0f minor words, %.0f per fired task \
     (bound %.0f)\n"
    us words per_task e18_words_per_task;
  if per_task > e18_words_per_task then begin
    Printf.printf
      "E18 FAILURE: a firing DERIVE allocates %.0f words per fired task \
       (bound %.0f)\n"
      per_task e18_words_per_task;
    e18_failed := true
  end;
  let src = List.hd srcs in
  let data = e18_band 7 in
  let refresh = parse_stmt "REFRESH ALL" in
  let update () = ignore (ok (Kernel.update_object k ~cls:"src" src [ ("data", data) ])) in
  let refresh_words = ref 0. in
  let cycle () =
    update ();
    let w0 = Gc.minor_words () in
    ignore (ok (Gaea_query.Executor.execute ex refresh));
    refresh_words := Gc.minor_words () -. w0
  in
  cycle ();
  let _, after_one = measure ~runs:1 update in
  ignore (ok (Gaea_query.Executor.execute ex refresh));
  let refresh_one = !refresh_words in
  for _ = 3 to 256 do cycle () done;
  let _, after_many = measure ~runs:1 update in
  ignore (ok (Gaea_query.Executor.execute ex refresh));
  Printf.printf
    "UPDATE src after 1 refresh: %.0f minor words; after 256: %.0f (bound \
     1.5x); the 1st REFRESH ALL: %.0f, the 256th: %.0f\n"
    after_one after_many refresh_one !refresh_words;
  (* the update invalidates mid and out: REFRESH ALL refreshes 2 tasks *)
  let per_refreshed = refresh_one /. 2. in
  Printf.printf "REFRESH ALL: %.0f minor words per refreshed task (bound %.0f)\n"
    per_refreshed e18_words_per_refreshed_task;
  if per_refreshed > e18_words_per_refreshed_task then begin
    Printf.printf
      "E18 FAILURE: a REFRESH allocates %.0f words per refreshed task \
       (bound %.0f)\n"
      per_refreshed e18_words_per_refreshed_task;
    e18_failed := true
  end;
  if after_many > 1.5 *. after_one then begin
    Printf.printf
      "E18 FAILURE: an UPDATE after 256 refreshes allocates %.2fx what it \
       did after 1 — its cost grows with refresh history\n"
      (after_many /. after_one);
    e18_failed := true
  end

(* ------------------------------------------------------------------ *)
(* Fused-kernel parity gate                                            *)
(* ------------------------------------------------------------------ *)

let parity_failed = ref false

(* The flat-loop raster operators must match their sequential
   map/map2/init/fold references bit for bit — CI runs this (via
   --smoke) and the harness exits non-zero on any divergence.  The
   cutoff override forces the pool dispatch path even on single-core
   hosts. *)
let parity_gate () =
  section "Fused-kernel parity gate";
  let red, nir = R.Synthetic.red_nir_pair ~seed:8 ~nrow:96 ~ncol:96 () in
  let scene = R.Synthetic.landsat_scene ~seed:5 ~nrow:96 ~ncol:96 () in
  let comp = scene.R.Synthetic.composite in
  let same = R.Image.equal in
  let map2 f = R.Image.map2 ~ptype:R.Pixel.Float8 f red nir in
  let checks =
    [ ("band-add",
       fun () ->
         R.Image.equal (R.Band_math.add red nir)
           (R.Image.map2 ~ptype:R.Pixel.Float8 ( +. ) red nir));
      ("band-subtract",
       fun () ->
         R.Image.equal
           (R.Band_math.subtract red nir)
           (R.Image.map2 ~ptype:R.Pixel.Float8 (fun x y -> x -. y) red nir));
      ("band-scale",
       fun () ->
         R.Image.equal (R.Band_math.scale 2.5 red)
           (R.Image.map ~ptype:R.Pixel.Float8 (fun v -> 2.5 *. v) red));
      ("band-offset",
       fun () ->
         R.Image.equal (R.Band_math.offset (-0.75) red)
           (R.Image.map ~ptype:R.Pixel.Float8 (fun v -> v +. -0.75) red));
      ("ndvi",
       fun () ->
         R.Image.equal
           (R.Ndvi.ndvi ~red ~nir ())
           (R.Image.map2 ~ptype:R.Pixel.Float8
              (fun nv rv ->
                let d = nv +. rv in
                if d = 0. then 0. else (nv -. rv) /. d)
              nir red));
      ("band-multiply",
       fun () -> same (R.Band_math.multiply red nir) (map2 ( *. )));
      ("band-divide",
       fun () ->
         same (R.Band_math.divide red nir)
           (map2 (fun x y -> if y = 0. then 0. else x /. y)));
      ("band-ratio",
       fun () ->
         same (R.Band_math.ratio red nir)
           (map2 (fun x y ->
                let d = x +. y in
                if d = 0. then 0. else (x -. y) /. d)));
      ("band-abs-diff",
       fun () ->
         same (R.Band_math.abs_diff red nir)
           (map2 (fun x y -> Float.abs (x -. y))));
      ("linear-combination",
       fun () ->
         same
           (R.Band_math.linear_combination [| 0.5; -1.25 |] [ red; nir ])
           (map2 (fun x y -> 0. +. (0.5 *. x) +. (-1.25 *. y))));
      ("normalize",
       fun () ->
         let lo, hi = R.Image.min_max red in
         same (R.Band_math.normalize red)
           (R.Image.map ~ptype:R.Pixel.Float8
              (fun v -> 0. +. ((v -. lo) /. (hi -. lo) *. (1. -. 0.)))
              red));
      ("threshold",
       fun () ->
         same (R.Band_math.threshold 100. red)
           (R.Image.map ~ptype:R.Pixel.Char
              (fun v -> if v >= 100. then 1. else 0.)
              red));
      ("threshold-below",
       fun () ->
         same (R.Band_math.threshold_below 100. red)
           (R.Image.map ~ptype:R.Pixel.Char
              (fun v -> if v < 100. then 1. else 0.)
              red));
      ("temporal-interp",
       fun () ->
         let day d = Gaea_geo.Abstime.of_ymd 1988 1 d in
         let w = 10. /. 30. in
         same
           (R.Interpolate.temporal_linear ~at:(day 11) (day 1, red) (day 31, nir))
           (map2 (fun x y -> x +. (w *. (y -. x)))));
      ("resize-nearest",
       fun () ->
         List.for_all
           (fun (nrow, ncol) ->
             same
               (R.Interpolate.resize_nearest red ~nrow ~ncol)
               (R.Image.init ~nrow ~ncol (R.Image.img_type red) (fun r c ->
                    R.Image.get red (r * 96 / nrow) (c * 96 / ncol))))
           [ (37, 53); (101, 97) ]);
      ("resize-bilinear",
       fun () ->
         (* 96x96 onto 192x192: source (r - 0.5) / 2, clamped at 0 and 95 *)
         let at v =
           Float.max 0.
             (Float.min (((float_of_int v +. 0.5) /. 192. *. 96.) -. 0.5) 95.)
         in
         same
           (R.Interpolate.resize_bilinear red ~nrow:192 ~ncol:192)
           (R.Image.init ~nrow:192 ~ncol:192 R.Pixel.Float8 (fun r c ->
                let fy = at r and fx = at c in
                let y0 = int_of_float fy and x0 = int_of_float fx in
                let y1 = Int.min (y0 + 1) 95 and x1 = Int.min (x0 + 1) 95 in
                let dy = fy -. float_of_int y0 and dx = fx -. float_of_int x0 in
                let v y x = R.Image.get red y x in
                (((v y0 x0 *. (1. -. dx)) +. (v y0 x1 *. dx)) *. (1. -. dy))
                +. (((v y1 x0 *. (1. -. dx)) +. (v y1 x1 *. dx)) *. dy))));
      ("to-matrix",
       fun () ->
         R.Matrix.equal (R.Composite.to_matrix comp)
           (R.Matrix.init ~rows:(R.Composite.n_pixels comp)
              ~cols:(R.Composite.n_bands comp) (fun i j ->
                R.Image.get_linear (R.Composite.band comp j) i)));
      ("of-matrix",
       fun () ->
         let m = R.Composite.to_matrix comp in
         let nrow = R.Composite.nrow comp and ncol = R.Composite.ncol comp in
         R.Composite.equal
           (R.Composite.of_matrix ~nrow ~ncol m)
           (R.Composite.of_bands
              (List.init (R.Matrix.cols m) (fun j ->
                   R.Image.init ~nrow ~ncol R.Pixel.Float8 (fun r c ->
                       R.Matrix.get m ((r * ncol) + c) j)))));
      ("imgstats-sum",
       fun () ->
         let band = List.hd (R.Composite.bands comp) in
         (* multi-chunk: value must at least be pool-size invariant;
            single-chunk fold equality is covered by the small image *)
         let small =
           R.Image.init ~nrow:20 ~ncol:20 R.Pixel.Float8 (fun r c ->
               sin (float_of_int ((r * 20) + c)))
         in
         Float.equal (R.Imgstats.sum small) (R.Image.fold ( +. ) 0. small)
         && Float.is_finite (R.Imgstats.sum band)) ]
  in
  let saved = Pool.size () in
  List.iter
    (fun lanes ->
      Pool.set_size lanes;
      List.iter
        (fun (name, f) ->
          let pass = f () in
          Printf.printf "%-18s @%d %s\n" name lanes
            (if pass then "OK" else "DIVERGED");
          if not pass then parity_failed := true)
        checks)
    [ 1; 4 ];
  Pool.set_size saved;
  if !parity_failed then
    print_endline "PARITY FAILURE: fused kernels diverged from reference"

(* ------------------------------------------------------------------ *)
(* BENCH_parallel.json: machine-readable E7/E8 summary for CI          *)
(* ------------------------------------------------------------------ *)

(* "model name : Intel ..." from /proc/cpuinfo, when the platform has
   one (absent on non-Linux hosts: the field is null, not an error) *)
let cpu_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line >= 10 && String.sub line 0 10 = "model name"
          then
            match String.index_opt line ':' with
            | Some i ->
              Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | None -> scan ()
          else scan ()
        in
        try scan () with End_of_file -> None)
  with Sys_error _ -> None

let emit_bench_json path =
  let host_domains = Domain.recommended_domain_count () in
  (* on a single-domain host the adaptive cutoff keeps every kernel on
     the sequential path, so a "speedup" would just be timer noise:
     report null and say why *)
  let single = host_domains = 1 in
  let speedup_field by_domains =
    if single then "null"
    else begin
      let seq = List.assoc 1 by_domains in
      let best =
        List.fold_left
          (fun acc (s, dt) -> if s > 1 then Float.min acc dt else acc)
          Float.infinity by_domains
      in
      Printf.sprintf "%.3f" (seq /. best)
    end
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"host_domains\": %d,\n  \"smoke\": %b,\n" host_domains smoke;
  out "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  (match cpu_model () with
   | Some m -> out "  \"cpu_model\": %S,\n" m
   | None -> out "  \"cpu_model\": null,\n");
  if single then
    out
      "  \"note\": \"host has a single hardware domain; the adaptive \
       cutoff pins all kernels to the sequential path, so per-size \
       timings measure overhead parity, not speedup\",\n";
  out "  \"kernels\": [\n";
  List.iteri
    (fun i row ->
      out "    { \"kernel\": %S, \"pixels\": %d, \"ns_per_op\": {"
        row.e7_kernel row.e7_pixels;
      List.iteri
        (fun j (s, dt) ->
          out "%s\"%d\": %.0f" (if j > 0 then ", " else "") s (dt *. 1e9))
        row.e7_by_domains;
      out "}, \"best_speedup\": %s }%s\n"
        (speedup_field row.e7_by_domains)
        (if i < List.length !e7_rows - 1 then "," else ""))
    !e7_rows;
  out "  ],\n";
  (match !e8_stats with
   | Some (cold, warm, st) ->
     out
       "  \"cache\": { \"cold_miss_ns\": %.0f, \"warm_hit_ns\": %.0f, \
        \"hits\": %d, \"misses\": %d, \"entries\": %d, \"invalidations\": \
        %d },\n"
       (cold *. 1e9) (warm *. 1e9) st.Kernel.hits st.Kernel.misses
       st.Kernel.entries st.Kernel.invalidations
   | None -> out "  \"cache\": null,\n");
  (match !e10_result with
   | Some r ->
     out
       "  \"refresh\": { \"pipelines\": %d, \"invalidated\": %d, \
        \"total_derived\": %d, \"refreshed\": %d, \"refresh_ms\": %.3f, \
        \"full_recompute_ms\": %.3f, \"identical_to_cold\": %b, \
        \"deterministic\": %b }\n"
       r.e10_n r.e10_k r.e10_total_derived r.e10_refreshed
       (r.e10_refresh_s *. 1000.) (r.e10_full_s *. 1000.) r.e10_identical
       r.e10_deterministic
   | None -> out "  \"refresh\": null\n");
  out "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per experiment)            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  (* E1 kernel op: a retrieval hit (the thing Gaea saves) *)
  let k1 = Kernel.create () in
  ok (Figures.install_fig3 k1);
  let _ = ok (Figures.load_tm_bands k1 ~seed:3 ~nrow:32 ~ncol:32 ()) in
  let _ = ok (Derivation.request k1 Figures.land_cover_class) in
  let t_e1 =
    Test.make ~name:"e1-retrieval-hit"
      (Staged.stage (fun () ->
           ok (Derivation.request k1 Figures.land_cover_class)))
  in
  (* E2: interpolation of a 32x32 image pair *)
  let img1 = R.Synthetic.value_noise ~seed:1 ~nrow:32 ~ncol:32 () in
  let img2 = R.Synthetic.value_noise ~seed:2 ~nrow:32 ~ncol:32 () in
  let t1 = Gaea_geo.Abstime.of_ymd 1986 1 1 in
  let t2 = Gaea_geo.Abstime.of_ymd 1986 2 1 in
  let at = Gaea_geo.Abstime.of_ymd 1986 1 16 in
  let t_e2 =
    Test.make ~name:"e2-interpolate-32x32"
      (Staged.stage (fun () ->
           R.Interpolate.temporal_linear ~at (t1, img1) (t2, img2)))
  in
  (* E3: unsuperclassify 32x32x3, k=12 *)
  let scene = R.Synthetic.landsat_scene ~seed:7 ~nrow:32 ~ncol:32 () in
  let t_e3 =
    Test.make ~name:"e3-unsuperclassify-32x32"
      (Staged.stage (fun () ->
           R.Kmeans.unsuperclassify scene.R.Synthetic.composite 12))
  in
  (* E4: the pca compound network on 32x32x3 *)
  let reg = Registry.with_builtins () in
  let pca_args = [ Value.composite scene.R.Synthetic.composite; Value.int 2 ] in
  let t_e4 =
    Test.make ~name:"e4-pca-network-32x32"
      (Staged.stage (fun () -> Registry.apply reg "pca" pca_args))
  in
  (* E5: backchain plan on a depth-8 chain *)
  let net, marking, goal = build_chain_net ~depth:8 ~fan_in:1 in
  let t_e5 =
    Test.make ~name:"e5-backchain-depth8"
      (Staged.stage (fun () -> Backchain.search net marking goal))
  in
  (* E6: recompute a recorded task (the reproducibility primitive) *)
  let k6 = Kernel.create () in
  ok (Figures.install_fig3 k6);
  let _ = ok (Figures.load_tm_bands k6 ~seed:3 ~nrow:16 ~ncol:16 ()) in
  let outcome6 = ok (Derivation.request k6 Figures.land_cover_class) in
  let task6 = List.hd outcome6.Derivation.new_tasks in
  let t_e6 =
    Test.make ~name:"e6-recompute-task-16x16"
      (Staged.stage (fun () -> ok (Kernel.recompute_task k6 task6)))
  in
  [ t_e1; t_e2; t_e3; t_e4; t_e5; t_e6 ]

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns per run, OLS on monotonic clock)";
  let tests = micro_tests () in
  let grouped = Test.make_grouped ~name:"gaea" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if smoke then 0.05 else 0.4))
      ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> (name, est) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-32s %16s %14s\n" "benchmark" "ns/run" "ms/run";
  List.iter
    (fun (name, ns) -> Printf.printf "%-32s %16.0f %14.3f\n" name ns (ns /. 1e6))
    rows

(* ------------------------------------------------------------------ *)

let () =
  print_endline
    "Gaea derived-data management: benchmark and figure-reproduction harness";
  print_endline
    "(paper: Hachem, Qiu, Gennert, Ward — Managing Derived Data in the \
     Gaea Scientific DBMS, VLDB 1993)";
  fig1_architecture ();
  fig2_layers ();
  fig4_network ();
  e1_gaea_vs_filebased ();
  e2_crossover ();
  e3_p20_scaling ();
  e4_pca ();
  e5_backchain ();
  e6_fig5 ();
  e7_parallel_speedup ();
  e8_cache ();
  e10_incremental_refresh ();
  e13_overlaps ();
  e14_derive_scale ();
  e15_fired_history ();
  e16_deficit ();
  e17_ingest ();
  e18_pipelines ();
  parity_gate ();
  run_bechamel ();
  (* smoke runs must never clobber the full-size benchmark record *)
  emit_bench_json
    (if smoke then "BENCH_parallel.smoke.json" else "BENCH_parallel.json");
  print_endline "\nall experiments completed.";
  Pool.shutdown ();
  if
    !parity_failed || !e4_failed || !e7_failed || !e10_failed || !e8_failed
    || !e13_failed || !e14_failed || !e15_failed || !e16_failed || !e17_failed
    || !e18_failed
  then exit 1
