(* The paper's query-answering sequence (Section 2.1.5) on a time
   series: "1. direct data retrieval; 2. data interpolation; 3. data are
   computed, based on a derivation relationship.  Steps 2 and 3 are
   prioritized according to the user's needs."

   A rainfall time series exists for January of 1986, 1988 and 1990.
   Queries AT stored dates retrieve; queries between snapshots
   interpolate (recorded as a generic-interpolation task, reproducible
   like any derivation); interpolation is tried before full derivation,
   the paper's step order.

   Run with: dune exec examples/temporal_query.exe *)

module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Task = Gaea_core.Task
module Value = Gaea_adt.Value
module Abstime = Gaea_geo.Abstime
module Imgstats = Gaea_raster.Imgstats

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ Gaea_core.Gaea_error.to_string e);
    exit 1

let mean_of k oid =
  match Kernel.object_attr k ~cls:Figures.rainfall_class oid "data" with
  | Some (Value.VImage img) -> Imgstats.mean img
  | _ -> Float.nan

let () =
  let k = Kernel.create () in
  or_die (Figures.install_deserts k);

  (* three January snapshots, two years apart *)
  let years = [ 1986; 1988; 1990 ] in
  List.iter
    (fun year ->
      let img = Gaea_raster.Synthetic.rainfall_map ~seed:year ~nrow:32 ~ncol:32 () in
      let _ =
        or_die
          (Kernel.insert_object k ~cls:Figures.rainfall_class
             [ ("data", Value.image img);
               ( "spatialextent",
                 Value.box
                   (Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:20. ~ymax:15.) );
               ("timestamp", Value.abstime (Abstime.of_ymd year 1 15)) ])
      in
      ())
    years;
  Printf.printf "stored rainfall snapshots: %s\n"
    (String.concat ", " (List.map string_of_int years));

  (* step 1: a stored date retrieves directly *)
  let hit =
    or_die
      (Derivation.request_at k ~cls:Figures.rainfall_class
         ~at:(Abstime.of_ymd 1988 1 15) ())
  in
  Printf.printf "\nAT 1988-01-15: retrieved object %d directly (%d new tasks)\n"
    (hit.Derivation.objects.(0))
    (List.length hit.Derivation.new_tasks);

  (* step 2: a missing date interpolates between its neighbours *)
  let mid =
    or_die
      (Derivation.request_at k ~cls:Figures.rainfall_class
         ~at:(Abstime.of_ymd 1987 1 15) ())
  in
  let mid_oid = mid.Derivation.objects.(0) in
  Printf.printf
    "AT 1987-01-15: interpolated object %d (mean rainfall %.1f mm, \
     between %.1f and %.1f)\n"
    mid_oid (mean_of k mid_oid)
    (mean_of k (List.nth (Kernel.objects_of_class k Figures.rainfall_class) 0))
    (mean_of k (List.nth (Kernel.objects_of_class k Figures.rainfall_class) 1));
  let task = List.hd mid.Derivation.new_tasks in
  Format.printf "recorded as: %a@." Task.pp task;
  Printf.printf "interpolation task reproduces exactly: %b\n"
    (or_die (Lineage.verify_task k task));

  (* extrapolation past the series also works (two nearest snapshots) *)
  let future =
    or_die
      (Derivation.request_at k ~cls:Figures.rainfall_class
         ~at:(Abstime.of_ymd 1991 1 15) ())
  in
  Printf.printf "\nAT 1991-01-15 (beyond the series): extrapolated object %d\n"
    (future.Derivation.objects.(0));

  (* the lineage distinguishes measured from interpolated data *)
  print_newline ();
  print_string (Lineage.explain k mid_oid);
  Printf.printf "\ncounters: %d retrievals, %d interpolations, %d recorded tasks\n"
    (Kernel.counters k).Kernel.retrievals
    (Kernel.counters k).Kernel.interpolations
    (Kernel.counters k).Kernel.executions
