(* Quickstart: the paper's Fig 3 scenario end to end.

   1. define the Landsat-TM and LAND_COVER classes and process P20;
   2. ingest three synthetic TM bands (base data);
   3. ask for LAND_COVER — Gaea backward-chains, fires P20, records a task;
   4. inspect the lineage and confirm the result reproduces exactly.

   Run with: dune exec examples/quickstart.exe *)

module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Task = Gaea_core.Task

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ Gaea_core.Gaea_error.to_string e);
    exit 1

let () =
  let k = Kernel.create () in

  (* 1. schema: classes C1, C20 and process P20 (Fig 3) *)
  or_die (Figures.install_fig3 k);
  Printf.printf "defined %d classes and process %s\n"
    (List.length (Kernel.classes k))
    Figures.p20_name;

  (* 2. base data: three rectified TM bands over one extent *)
  let bands = or_die (Figures.load_tm_bands k ~seed:42 ~nrow:64 ~ncol:64 ()) in
  Printf.printf "ingested TM bands as objects [%s]\n"
    (String.concat ", " (List.map string_of_int bands));

  (* 3. request land cover: not stored, so Gaea derives it *)
  let outcome = or_die (Derivation.request k Figures.land_cover_class) in
  let land_cover = outcome.Derivation.objects.(0) in
  Printf.printf "\nland cover derived as object %d via %d task(s):\n"
    land_cover
    (List.length outcome.Derivation.new_tasks);
  List.iter
    (fun t -> Format.printf "  %a@." Task.pp t)
    outcome.Derivation.new_tasks;

  (* 4. lineage + reproducibility *)
  print_newline ();
  print_string (Lineage.explain k land_cover);
  (match or_die (Lineage.verify_object k land_cover) with
   | true -> print_endline "\nre-running the recorded task gives the exact same image."
   | false -> print_endline "\nreproduction FAILED (this should not happen)");

  (* asking again retrieves the stored object — no recomputation *)
  let again = or_die (Derivation.request k Figures.land_cover_class) in
  assert (again.Derivation.new_tasks = []);
  Printf.printf
    "second request: retrieved object %d directly (no new derivation).\n"
    (again.Derivation.objects.(0))
