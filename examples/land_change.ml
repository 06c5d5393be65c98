(* Fig 5: the compound process land-change-detection, plus the Petri-net
   machinery of Section 2.1.6: reachability ("could this be derived?"),
   backward chaining ("which stored objects would it start from?") and
   the net itself as a Graphviz diagram.

   Run with: dune exec examples/land_change.exe *)

module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Process = Gaea_core.Process
module Net = Gaea_petri.Net
module Backchain = Gaea_petri.Backchain
module Reachability = Gaea_petri.Reachability
module Analysis = Gaea_petri.Analysis

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ Gaea_core.Gaea_error.to_string e);
    exit 1

let () =
  let k = Kernel.create () in
  or_die (Figures.install_fig3 k);
  or_die (Figures.install_fig5 k);

  (* the compound process and its expansion *)
  let compound = Option.get (Kernel.find_process k Figures.p_land_change) in
  Format.printf "%a@.@." Process.pp compound;

  (* before any data: nothing is derivable *)
  let net = Kernel.derivation_net k in
  let place =
    Option.get (Net.find_place net Figures.land_cover_changes_class)
  in
  let derivable () =
    let info = Reachability.analyze net (Kernel.tokens k) in
    info.Reachability.derivable place
  in
  Printf.printf "land_cover_changes derivable with empty store: %b\n"
    (derivable ());

  (* ingest two TM epochs; now the chain TM -> spca -> classify opens *)
  let _ = or_die (Figures.load_tm_bands k ~seed:1986 ~nrow:48 ~ncol:48 ()) in
  let _ = or_die (Figures.load_tm_bands k ~seed:1989 ~nrow:48 ~ncol:48 ()) in
  Printf.printf "after loading two TM epochs: derivable = %b\n" (derivable ());

  (* the backward-chaining plan: which stored objects, which firings *)
  (match Derivation.derivation_plan k Figures.land_cover_changes_class with
   | None -> print_endline "no plan (unexpected)"
   | Some plan ->
     Format.printf "@.%a@.@."
       (Backchain.pp ~place_name:(Net.place_name net)
          ~transition_name:(fun t ->
            match Kernel.find_process k (Net.transition_name net t) with
            | Some p -> Printf.sprintf "%s v%d" p.Process.proc_name p.Process.version
            | None -> "?"))
       plan;
     Printf.printf "plan cost (firings): %d, chain depth: %d\n"
       (Backchain.cost plan) (Backchain.depth plan);
     Printf.printf "initial marking (stored objects used): [%s]\n"
       (String.concat ", "
          (List.map
             (fun (_, tok) -> string_of_int tok)
             (Backchain.retrieved_tokens plan))));

  (* execute: the compound expands into its two primitive steps *)
  let outcome =
    or_die (Derivation.request k Figures.land_cover_changes_class)
  in
  let result = outcome.Derivation.objects.(0) in
  Printf.printf "\nderived object %d through %d task(s):\n" result
    (List.length outcome.Derivation.new_tasks);
  print_string (Lineage.explain k result);

  (* structural analysis of the derivation diagram *)
  let report = Analysis.analyze net (Kernel.tokens k) in
  Format.printf "@.net analysis:@.%a@."
    (Analysis.pp_report ~place_name:(Net.place_name net)
       ~transition_name:(Net.transition_name net))
    report
