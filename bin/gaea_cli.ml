(* gaea — command-line front end to the Gaea kernel.

   Subcommands:
     run <script>      execute a GaeaQL script file
     repl              interactive shell (statements end with ';')
     demo              load the paper's Fig 2/3/5 schema + data and show a tour
     net               print the current derivation net as Graphviz dot
     lint [<script>…]  run each script, then the static analyzer
                       (gaea check) over the resulting kernel; exits
                       non-zero on any error-severity finding

   Unknown subcommands exit non-zero with a one-line hint (cmdliner). *)

module Session = Gaea_query.Session
module Kernel = Gaea_core.Kernel
module Figures = Gaea_core.Figures
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Dot = Gaea_petri.Dot

let ( let* ) r f = Result.bind r f

let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error (Gaea_core.Gaea_error.Io_error e)

let make_session load =
  match load with
  | None -> Ok (Session.create ())
  | Some path ->
    let* kernel = Gaea_core.Persist.load_from_file path in
    Ok (Session.create ~kernel ())

let finish_session session save =
  match save with
  | None -> Ok ()
  | Some path ->
    Gaea_core.Persist.save_to_file (Session.kernel session) path

let run_cmd load save path =
  match
    let* src = read_file path in
    let* session = make_session load in
    Ok (session, src)
  with
  | Error e ->
    Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
    1
  | Ok (session, src) ->
    (* execute as far as possible, print what ran, then report the
       failing statement and exit non-zero *)
    let responses, failed = Session.run_string_partial session src in
    List.iter
      (fun r -> print_endline (Gaea_query.Executor.format_response r))
      responses;
    let save_status =
      match finish_session session save with
      | Ok () -> 0
      | Error e ->
        Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
        1
    in
    (match failed with
     | None -> save_status
     | Some e ->
       Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
       1)

let repl_cmd load save =
  let session =
    match make_session load with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
      exit 1
  in
  print_endline "Gaea shell — end statements with ';', ctrl-D to quit.";
  let buf = Buffer.create 256 in
  (try
     while true do
       print_string (if Buffer.length buf = 0 then "gaea> " else "  ... ");
       flush stdout;
       let line = input_line stdin in
       Buffer.add_string buf line;
       Buffer.add_char buf '\n';
       if String.contains line ';' then begin
         let src = Buffer.contents buf in
         Buffer.clear buf;
         print_endline (Session.run_string_collect session src)
       end
     done
   with End_of_file -> print_newline ());
  (match finish_session session save with
   | Ok () -> 0
   | Error e ->
     Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
     1)

let demo_cmd () =
  let k = Kernel.create () in
  let show title body =
    Printf.printf "\n=== %s ===\n%s\n" title body
  in
  match
    let* () = Figures.install_all k in
    let* _ = Figures.load_tm_bands k ~seed:7 ~nrow:48 ~ncol:48 () in
    let* _ = Figures.load_avhrr_year k ~seed:21 ~year:1988 () in
    let* _ =
      Figures.load_avhrr_year k ~seed:22 ~year:1989 ~vegetation_shift:0.15 ()
    in
    let* _ = Figures.load_rainfall k ~seed:33 () in
    Ok ()
  with
  | Error e ->
    Printf.eprintf "demo setup failed: %s\n" (Gaea_core.Gaea_error.to_string e);
    1
  | Ok () ->
    show "classes"
      (String.concat "\n"
         (List.map
            (fun c -> c.Gaea_core.Schema.c_name)
            (Kernel.classes k)));
    (match Derivation.request k Figures.land_cover_class with
     | Error e ->
       Printf.eprintf "derivation failed: %s\n"
         (Gaea_core.Gaea_error.to_string e);
       1
     | Ok outcome ->
       let oid = outcome.Derivation.objects.(0) in
       show "derived land cover (Fig 3 / P20)" (Lineage.explain k oid);
       (match Derivation.request k Figures.land_cover_changes_class with
        | Error e ->
          Printf.eprintf "land-change derivation failed: %s\n"
            (Gaea_core.Gaea_error.to_string e);
          1
        | Ok o2 ->
          let oid2 = o2.Derivation.objects.(0) in
          show "derived land-cover changes (Fig 5 compound)"
            (Lineage.explain k oid2);
          show "derivation net (Graphviz)"
            (Dot.to_dot ~tokens:(Kernel.tokens k) (Kernel.derivation_net k));
          (* incremental recomputation: touch a base band the land
             cover was derived from, watch staleness propagate, then
             refresh only the dirty subgraph *)
          (match Kernel.task_producing k oid with
           | Some t when Gaea_core.Task.input_oids t <> [] ->
             let base = List.hd (Gaea_core.Task.input_oids t) in
             (match Kernel.class_of_object k base with
              | Some cls ->
                (match Kernel.object_attr k ~cls base "data" with
                 | Some v ->
                   ignore (Kernel.update_object k ~cls base [ ("data", v) ]);
                   show "stale after updating one base band"
                     (String.concat ", "
                        (List.map (Printf.sprintf "#%d")
                           (Kernel.stale_objects k)));
                   let r = Kernel.refresh_stale k in
                   show "REFRESH ALL"
                     (Printf.sprintf "refreshed %d object(s), %d left stale"
                        r.Kernel.refreshed r.Kernel.remaining);
                   let st = Kernel.cache_stats k in
                   show "reuse index"
                     (Printf.sprintf "%d entries, %d hits / %d misses"
                        st.Kernel.entries st.Kernel.hits st.Kernel.misses)
                 | None -> ())
              | None -> ())
           | _ -> ());
          0))

let lint_kernel ~json ~label k =
  let module Diag = Gaea_analysis.Diagnostic in
  let ds = Gaea_analysis.Analysis.check_kernel k in
  if json then
    Printf.printf "{\"script\":%s,\"diagnostics\":%s}\n"
      (match label with Some l -> Printf.sprintf "%S" l | None -> "null")
      (Diag.render_json ds)
  else begin
    (match label with Some l -> Printf.printf "== %s ==\n" l | None -> ());
    print_endline (Diag.render ds)
  end;
  Diag.has_errors ds

let lint_cmd json load paths =
  match paths with
  | [] ->
    (* nothing to run: lint the (possibly --load'ed) kernel directly *)
    (match make_session load with
     | Error e ->
       Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
       1
     | Ok session ->
       if lint_kernel ~json ~label:None (Session.kernel session) then 1
       else 0)
  | paths ->
    let failed = ref false in
    List.iter
      (fun path ->
        (* each script gets a fresh kernel so findings don't leak
           between scripts *)
        match
          let* src = read_file path in
          let* session = make_session load in
          Ok (session, src)
        with
        | Error e ->
          Printf.eprintf "%s: error: %s\n" path
            (Gaea_core.Gaea_error.to_string e);
          failed := true
        | Ok (session, src) -> (
          match Session.run_string_partial session src with
          | _, Some e ->
            Printf.eprintf "%s: error: %s\n" path
              (Gaea_core.Gaea_error.to_string e);
            failed := true
          | _, None ->
            if lint_kernel ~json ~label:(Some path) (Session.kernel session)
            then failed := true))
      paths;
    if !failed then 1 else 0

let net_cmd () =
  let k = Kernel.create () in
  match Figures.install_all k with
  | Error e ->
    Printf.eprintf "error: %s\n" (Gaea_core.Gaea_error.to_string e);
    1
  | Ok () ->
    print_string (Dot.to_dot (Kernel.derivation_net k));
    0

open Cmdliner

let load_arg =
  Arg.(value & opt (some file) None
       & info [ "load" ] ~docv:"DB" ~doc:"Load a saved Gaea database first")

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"DB" ~doc:"Save the Gaea database on exit")

let run_t =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a GaeaQL script file")
    Term.(const run_cmd $ load_arg $ save_arg $ path)

let repl_t =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive GaeaQL shell")
    Term.(const repl_cmd $ load_arg $ save_arg)

let demo_t =
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Load the paper's worked examples and print a derivation tour")
    Term.(const demo_cmd $ const ())

let net_t =
  Cmd.v
    (Cmd.info "net" ~doc:"Print the Fig 2 derivation net as Graphviz dot")
    Term.(const net_cmd $ const ())

let lint_t =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit diagnostics as JSON, one array per script")
  in
  let paths =
    Arg.(value & pos_all file [] & info [] ~docv:"SCRIPT")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run each GaeaQL script in a fresh kernel, then the gaea check \
          static analyzer over the result; with no scripts, lint the \
          --load'ed database.  Exits non-zero on any error-severity \
          finding.")
    Term.(const lint_cmd $ json $ load_arg $ paths)

let main =
  Cmd.group
    (Cmd.info "gaea" ~version:"1.0.0"
       ~doc:"Gaea scientific DBMS — derived-data management (VLDB 1993)")
    [ run_t; repl_t; demo_t; net_t; lint_t ]

let () = exit (Cmd.eval' main)
