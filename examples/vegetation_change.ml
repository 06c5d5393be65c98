(* The paper's Section 1 motivating scenario.

   "Two scientists are working on detecting the changes in vegetation
   index in Africa between 1988 and 1989.  One may subtract the NDVI of
   1988 from that of 1989, while another divides the NDVI of 1989 by
   that of 1988.  If only the resultant images are stored, there is no
   way to share and compare the produced data unless the derivation
   procedures are known to both scientists."

   Here both results ARE stored — and the derivation metadata tells them
   apart.  A third derivation (standardized PCA, Eastman 1992) computes
   the "same conceptual outcome" through the Fig 4 compound-operator
   network; the paper's point is that in IDRISI such an experiment could
   not be reproduced, while in Gaea it can — and we verify it.

   Run with: dune exec examples/vegetation_change.exe *)

module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Task = Gaea_core.Task
module Value = Gaea_adt.Value
module Imgstats = Gaea_raster.Imgstats

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ Gaea_core.Gaea_error.to_string e);
    exit 1

let image_of k oid =
  match Kernel.object_attr k ~cls:Figures.veg_change_class oid "data" with
  | Some (Value.VImage img) -> img
  | _ -> failwith "veg_change object without image data"

let () =
  let k = Kernel.create () in
  or_die (Figures.install_vegetation k);

  (* base data: AVHRR red/NIR channels for 1988 and 1989 (the 1989
     scene is generated with a vegetation "greening" shift) *)
  let _ = or_die (Figures.load_avhrr_year k ~seed:1988 ~year:1988 ()) in
  let _ =
    or_die
      (Figures.load_avhrr_year k ~seed:1988 ~year:1989 ~vegetation_shift:0.2 ())
  in

  (* derive the two NDVI maps (one task per year, same process) *)
  let ndvi = or_die (Derivation.request ~need:2 k Figures.ndvi_class) in
  Printf.printf "NDVI maps derived: objects [%s]\n"
    (String.concat ", " (List.map string_of_int (Array.to_list ndvi.Derivation.objects)));

  (* scientist 1: subtraction; scientist 2: division; scientist 3: SPCA *)
  let run_process name =
    let p = Option.get (Kernel.find_process k name) in
    let binding =
      or_die
        (Kernel.find_binding k p
           ~available:
             [ (Figures.ndvi_class, Kernel.objects_of_class k Figures.ndvi_class) ])
    in
    let task = or_die (Kernel.execute_process k p ~inputs:binding) in
    List.hd task.Task.outputs
  in
  let by_sub = run_process Figures.p_change_sub in
  let by_div = run_process Figures.p_change_div in
  let by_spca = run_process Figures.p_change_spca in

  Printf.printf
    "\nthree 'vegetation change' objects now stored: %d, %d, %d\n" by_sub
    by_div by_spca;
  Printf.printf "mean |change| per method:\n";
  List.iter
    (fun (label, oid) ->
      let img = image_of k oid in
      Printf.printf "  %-9s mean=%8.4f stddev=%8.4f\n" label
        (Imgstats.mean img) (Imgstats.stddev img))
    [ ("subtract", by_sub); ("divide", by_div); ("spca", by_spca) ];

  (* the derivation metadata distinguishes them *)
  print_newline ();
  print_endline (Lineage.compare_derivations k by_sub by_div);
  print_newline ();
  print_endline (Lineage.explain k by_spca);

  (* reproducibility: rerun every derivation and compare bit-for-bit *)
  let all_ok =
    List.for_all
      (fun oid -> or_die (Lineage.verify_object k oid))
      [ by_sub; by_div; by_spca ]
  in
  Printf.printf "all three derivations reproduce exactly: %b\n" all_ok
