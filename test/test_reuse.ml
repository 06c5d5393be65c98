(* Tests for reuse of derived objects through the provenance log: the
   DERIVE probe (five scenes, NEED 2, 3 and 5), DERIVE firing only
   bindings not fired yet, reuse across save and load, the end of reuse
   when a derived object is updated, and a randomized save -> load
   property over GaeaQL workloads. *)

open Gaea_core
module Session = Gaea_query.Session
module Executor = Gaea_query.Executor
module Parser = Gaea_query.Parser
module Optimizer = Gaea_query.Optimizer
module Plan = Gaea_query.Plan
module Ast = Gaea_query.Ast
module Value = Gaea_adt.Value
module Image = Gaea_raster.Image
module Pixel = Gaea_raster.Pixel
module Pool = Gaea_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Gaea_error.to_string e)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* scene --normalize--> normalized --smooth--> smoothed *)
let schema =
  {|
DEFINE CLASS scene ( data image, spatialextent box, timestamp abstime );
DEFINE CLASS normalized ( data image, spatialextent box, timestamp abstime )
  DERIVED BY normalize;
DEFINE CLASS smoothed ( data image, spatialextent box, timestamp abstime )
  DERIVED BY smooth;
DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene )
  MAP data = img_scale(0.5, s.data)
  MAP spatialextent = s.spatialextent
  MAP timestamp = s.timestamp
END;
DEFINE PROCESS smooth OUTPUT smoothed ARGS ( n normalized )
  MAP data = img_scale(2.0, n.data)
  MAP spatialextent = n.spatialextent
  MAP timestamp = n.timestamp
END;
|}

let insert_scene seed =
  Printf.sprintf
    "INSERT INTO scene ( data = synth_rainfall(%d, 4, 4), spatialextent = \
     BOX(0, 0, 1, 1), timestamp = DATE '1988-06-%02d' );"
    seed
    (1 + (seed mod 28))

let run session src = ok (Session.run_string session src)

let five_scenes =
  String.concat "\n" (List.init 5 (fun i -> insert_scene (i + 1)))

let message session src =
  match run session src with
  | [ Executor.Message m ] -> m
  | _ -> Alcotest.failf "%s: expected one message" src

(* the probe: five scenes (oids 1-5), then DERIVE normalized NEED 2 *)
let probe ?kernel () =
  let session = Session.create ?kernel () in
  ignore (run session schema);
  ignore (run session five_scenes);
  ignore (message session "DERIVE normalized NEED 2");
  session

let normalized session =
  Kernel.objects_of_class (Session.kernel session) "normalized"

let reload session =
  Session.create
    ~kernel:(ok (Persist.load (Persist.save (Session.kernel session))))
    ()

(* run normalize on one scene directly, through the reuse lookup *)
let normalize_scene session scene =
  let k = Session.kernel session in
  ok
    (Kernel.execute_process k
       (Option.get (Kernel.find_process k "normalize"))
       ~inputs:[ ("s", [ scene ]) ])

(* ------------------------------------------------------------------ *)
(* The probe                                                           *)
(* ------------------------------------------------------------------ *)

let test_probe_ends_with_five () =
  let finish session =
    ignore (message session "DERIVE normalized NEED 3");
    ignore (message session "DERIVE normalized NEED 5");
    normalized session
  in
  Alcotest.(check (list int)) "6 to 10" [ 6; 7; 8; 9; 10 ] (finish (probe ()));
  (* reuse has no budget: a one-byte one changes nothing *)
  let k = Kernel.create () in
  Kernel.set_cache_budget k 1;
  Alcotest.(check (list int)) "the same at a one-byte budget"
    [ 6; 7; 8; 9; 10 ]
    (finish (probe ~kernel:k ()))

let test_need_fires_unfired () =
  let session = Session.create () in
  ignore (run session schema);
  ignore (run session five_scenes);
  ignore (run session "BEGIN EXPERIMENT e");
  let fired = message session "DERIVE normalized NEED 2" in
  check_bool "NEED 2 fires" true (contains fired "fired normalize v1 (task #1)");
  Alcotest.(check string) "NEED 3 fires scene 3 only"
    "objects: [6, 7, 8]\nfired normalize v1 (task #3)"
    (message session "DERIVE normalized NEED 3");
  let experiments = Executor.experiments (Session.executor session) in
  let e = Option.get (Experiment.find experiments "e") in
  Alcotest.(check (list int)) "the experiment holds the three fired tasks"
    [ 1; 2; 3 ] e.Experiment.task_ids

let test_reuse_survives_save_load () =
  let session = reload (probe ()) in
  check_int "the loaded kernel reuses task #1" 1
    (normalize_scene session 1).Task.task_id;
  Alcotest.(check (list int)) "no object added" [ 6; 7 ] (normalized session);
  check_bool "SHOW CACHE counts both entries" true
    (contains (message session "SHOW CACHE") "reuse index: 2 entry(ies)")

(* Overwriting a derived object ends the reuse of the task that
   produced it, on a live kernel and on a loaded one alike. *)
let one_pixel v =
  Value.image (Image.of_array ~nrow:1 ~ncol:1 Pixel.Float8 [| v |])

let test_update_derived_ends_reuse () =
  let check_ends session =
    ok
      (Kernel.update_object (Session.kernel session) ~cls:"normalized" 6
         [ ("data", one_pixel 0.) ]);
    check_int "scene 1 is derived again" 3
      (normalize_scene session 1).Task.task_id;
    Alcotest.(check (list int)) "a third object" [ 6; 7; 8 ] (normalized session)
  in
  check_ends (probe ());
  let loaded = reload (probe ()) in
  check_int "reuse survived the load" 1 (normalize_scene loaded 1).Task.task_id;
  check_ends loaded

(* A deleted object leaves no row, yet its OID stays spent: a loaded
   kernel allocates past it, as the saved one does. *)
let test_deleted_oid_stays_spent () =
  let session = probe () in
  ignore (run session "DELETE FROM normalized 7");
  let loaded = reload session in
  let scenes s =
    ignore (run s (insert_scene 6));
    Kernel.objects_of_class (Session.kernel s) "scene"
  in
  Alcotest.(check (list int)) "the new scene is 8 on both"
    [ 1; 2; 3; 4; 5; 8 ] (scenes loaded);
  Alcotest.(check (list int)) "as on the saved kernel" (scenes session)
    (Kernel.objects_of_class (Session.kernel loaded) "scene")

(* ------------------------------------------------------------------ *)
(* DERIVE fires only bindings not fired yet                            *)
(* ------------------------------------------------------------------ *)

let scenes n = String.concat "\n" (List.init n (fun i -> insert_scene (i + 1)))

let is_not_derivable = function
  | Error (Gaea_error.Not_derivable _) -> true
  | _ -> false

let test_need_three_after_two () =
  let k = Session.kernel (probe ()) in
  let r = ok (Derivation.request k ~need:3 "normalized") in
  Alcotest.(check (list int)) "three distinct objects" [ 6; 7; 8 ]
    (Array.to_list r.Derivation.objects);
  Alcotest.(check (list int)) "only task #3 fires" [ 3 ]
    (List.map (fun (t : Task.t) -> t.Task.task_id) r.Derivation.new_tasks);
  Alcotest.(check (list (pair string (list int))))
    "on scene 3" [ ("s", [ 3 ]) ]
    (Option.get (Kernel.find_task k 3)).Task.inputs

let with_pool_size n f =
  let saved = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

let test_need_every_scene () =
  List.iter
    (fun (n, lanes) ->
      with_pool_size lanes (fun () ->
          let session = Session.create () in
          ignore (run session schema);
          ignore (run session (scenes n));
          let k = Session.kernel session in
          let r = ok (Derivation.request k ~need:n "normalized") in
          let what = Printf.sprintf "NEED %d at %d lane(s)" n lanes in
          check_int what n
            (List.length (List.sort_uniq Int.compare (Array.to_list r.Derivation.objects)));
          Alcotest.(check (list int)) (what ^ ": all stored")
            (normalized session)
            (List.sort Int.compare (Array.to_list r.Derivation.objects))))
    [ (33, 1); (33, 2); (33, 8); (100, 1); (100, 2); (100, 8) ]

let test_need_too_many () =
  let session = probe () in
  let k = Session.kernel session in
  check_bool "NEED 6 over five scenes fails" true
    (is_not_derivable (Derivation.request k ~need:6 "normalized"));
  Alcotest.(check (list int)) "one object per scene, none twice"
    [ 6; 7; 8; 9; 10 ] (normalized session);
  let empty = Session.create () in
  ignore (run empty schema);
  check_bool "no scene, no plan" true
    (is_not_derivable
       (Derivation.request (Session.kernel empty) "normalized"))

(* Fired history: normalize has run on every scene but the newest, so
   the planned binding (the lowest scene) has fired and the DERIVE walks
   the class for the one unfired binding.  The answer, not the time, is
   checked here; bench E15 gates the time. *)
let test_need_over_fired_history () =
  let n = 3000 in
  let session = Session.create () in
  ignore (run session schema);
  let k = Session.kernel session in
  let box = Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1. in
  let scene i =
    ok
      (Kernel.insert_object k ~cls:"scene"
         [ ("data", one_pixel (float_of_int i));
           ("spatialextent", Value.box box);
           ("timestamp", Value.abstime (Gaea_geo.Abstime.of_ymd 1988 6 1)) ])
  in
  let scenes = List.init n scene in
  List.iteri
    (fun i s -> if i < n - 1 then ignore (normalize_scene session s))
    scenes;
  let r = ok (Derivation.request k ~need:n "normalized") in
  check_int "N distinct objects" n
    (List.length (List.sort_uniq Int.compare (Array.to_list r.Derivation.objects)));
  Alcotest.(check (list (list (pair string (list int)))))
    "one task, on the newest scene"
    [ [ ("s", [ List.nth scenes (n - 1) ]) ] ]
    (List.map (fun (t : Task.t) -> t.Task.inputs) r.Derivation.new_tasks);
  Alcotest.(check (list int)) "stored ascending, then the new one"
    (normalized session) (Array.to_list r.Derivation.objects)

let test_find_binding_fresh () =
  let session = probe () in
  let k = Session.kernel session in
  let p = Option.get (Kernel.find_process k "normalize") in
  let find ?fresh scenes =
    Kernel.find_binding k ?fresh p ~available:[ ("scene", scenes) ]
  in
  let check_binding = Alcotest.(check (list (pair string (list int)))) in
  check_binding "the default call binds a fired scene" [ ("s", [ 1 ]) ]
    (ok (find [ 1 ]));
  check_bool "a fresh search skips it" true
    (is_not_derivable (find ~fresh:true [ 1 ]));
  check_binding "and takes the first unfired one" [ ("s", [ 3 ]) ]
    (ok (find ~fresh:true [ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Save -> load property                                               *)
(* ------------------------------------------------------------------ *)

type op =
  | Insert of int
  | Update of string * int  (** class, index among its objects *)
  | Delete of string * int
  | Derive of string * int  (** class, NEED *)
  | Redefine of int  (** a new version of normalize, with this factor *)
  | Refresh

let op_to_string = function
  | Insert s -> Printf.sprintf "insert %d" s
  | Update (c, i) -> Printf.sprintf "update %s[%d]" c i
  | Delete (c, i) -> Printf.sprintf "delete %s[%d]" c i
  | Derive (c, n) -> Printf.sprintf "derive %s need %d" c n
  | Redefine f -> Printf.sprintf "redefine normalize x%d" f
  | Refresh -> "refresh"

let gen_op =
  let open QCheck.Gen in
  let cls = oneofl [ "scene"; "normalized"; "smoothed" ] in
  let derived = oneofl [ "normalized"; "smoothed" ] in
  frequency
    [ (4, map (fun s -> Insert s) (int_range 1 99));
      (2, map2 (fun c i -> Update (c, i)) cls (int_range 0 9));
      (1, map2 (fun c i -> Delete (c, i)) cls (int_range 0 9));
      (5, map2 (fun c n -> Derive (c, n)) derived (int_range 1 4));
      (1, map (fun f -> Redefine f) (int_range 1 4));
      (1, return Refresh) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)

let nth_object k cls i =
  match Kernel.objects_of_class k cls with
  | [] -> None
  | oids -> Some (List.nth oids (i mod List.length oids))

let derive_stmt cls need = Printf.sprintf "DERIVE %s NEED %d" cls need

(* statements may fail (nothing to derive from, say): a failure is part
   of the workload, and only the resulting state is compared *)
let apply session op =
  let k = Session.kernel session in
  let gql src = ignore (Session.run_string session src) in
  match op with
  | Insert seed -> gql (insert_scene seed)
  | Update (cls, i) ->
    Option.iter
      (fun oid ->
        ignore
          (Kernel.update_object k ~cls oid
             [ ("data", one_pixel (float_of_int i)) ]))
      (nth_object k cls i)
  | Delete (cls, i) ->
    Option.iter
      (fun oid -> gql (Printf.sprintf "DELETE FROM %s %d" cls oid))
      (nth_object k cls i)
  | Derive (cls, need) -> gql (derive_stmt cls need)
  | Redefine f ->
    gql
      (Printf.sprintf
         "DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) MAP data \
          = img_scale(%d.0, s.data) MAP spatialextent = s.spatialextent MAP \
          timestamp = s.timestamp END"
         f)
  | Refresh -> gql "REFRESH ALL"

let classes = [ "scene"; "normalized"; "smoothed" ]

(* everything a user can ask the kernel about its derived data *)
let observe session =
  let k = Session.kernel session in
  let show src = src ^ "\n" ^ Session.run_string_collect session src in
  let select_path src =
    match Parser.parse_one src with
    | Ok (Ast.Select s) ->
      (match Optimizer.plan_select k s with
       | Ok p -> Format.asprintf "%a" Plan.pp_access_path p.Plan.path
       | Error e -> Gaea_error.to_string e)
    | _ -> "not a select"
  in
  let data_hash c oid =
    match Kernel.object_attr k ~cls:c oid "data" with
    | Some v -> Printf.sprintf "#%d %d" oid (Value.content_hash v)
    | None -> Printf.sprintf "#%d no data" oid
  in
  List.concat_map
    (fun c ->
      show ("SELECT * FROM " ^ c)
      :: List.map (data_hash c) (Kernel.objects_of_class k c))
    classes
  @ [ show "SHOW STALE"; show "CHECK ALL"; show "SHOW CACHE";
      select_path "SELECT oid FROM scene WHERE timestamp AT DATE '1988-06-03'";
      select_path "SELECT oid FROM scene WHERE spatialextent OVERLAPS BOX(0, 0, 1, 1)" ]
  @ List.map (fun c -> show ("SHOW PLAN " ^ c)) [ "normalized"; "smoothed" ]
  @ List.concat_map
      (fun c ->
        List.map
          (fun oid -> show (Printf.sprintf "SHOW LINEAGE %d" oid))
          (Kernel.objects_of_class k c))
      classes

let counts session =
  List.map (Kernel.count_objects (Session.kernel session)) classes

let save_load_prop =
  QCheck.Test.make ~name:"save -> load changes nothing a user can observe"
    ~count:100 arb_ops (fun ops ->
      let session = Session.create () in
      ignore (run session schema);
      List.iter (apply session) ops;
      let loaded = reload session in
      let same what a b =
        a = b
        || QCheck.Test.fail_reportf "%s differs:\n%s\n---- loaded ----\n%s" what
             (String.concat "\n" a) (String.concat "\n" b)
      in
      same "observation" (observe session) (observe loaded)
      && same "the save text"
           [ Persist.save (Session.kernel session) ]
           [ Persist.save (Session.kernel loaded) ]
      &&
      match
        List.find_map
          (function Derive (c, n) -> Some (derive_stmt c n) | _ -> None)
          (List.rev ops)
      with
      | None -> true
      | Some stmt ->
        let again s = Session.run_string_collect s stmt in
        same "repeated DERIVE" [ again session ] [ again loaded ]
        && same "objects after the repeat"
             (List.map string_of_int (counts session))
             (List.map string_of_int (counts loaded))
        && same "SHOW CACHE after the repeat"
             [ Session.run_string_collect session "SHOW CACHE" ]
             [ Session.run_string_collect loaded "SHOW CACHE" ])

(* ------------------------------------------------------------------ *)
(* The planning view reads the class tables                            *)
(* ------------------------------------------------------------------ *)

(* Planning over the tables must match planning over a full copy of the
   database, before and after a save -> load in the middle of the
   workload. *)
let tokens_view_prop =
  QCheck.Test.make
    ~name:"Backchain over Kernel.tokens = over the full marking" ~count:100
    (QCheck.pair arb_ops arb_ops) (fun (before, after) ->
      let session = Session.create () in
      ignore (run session schema);
      List.iter (apply session) before;
      let loaded = reload session in
      List.iter (apply loaded) after;
      List.for_all
        (fun session ->
          let k = Session.kernel session in
          let net = Kernel.derivation_net k in
          let reference =
            Gaea_petri.Marking.view (Kernel.current_marking k)
          in
          List.for_all
            (fun cls ->
              let place = Option.get (Gaea_petri.Net.find_place net cls) in
              List.for_all
                (fun need ->
                  let plan tokens =
                    Gaea_petri.Backchain.search ~need net tokens place
                  in
                  plan (Kernel.tokens k) = plan reference
                  || QCheck.Test.fail_reportf "%s NEED %d plans differ" cls
                       need)
                [ 1; 2; 3; 4 ])
            classes)
        [ session; loaded ])

(* ------------------------------------------------------------------ *)
(* Unfired frontiers                                                   *)
(* ------------------------------------------------------------------ *)

(* Each one-argument process's frontier, as planning reads it, is the
   objects of its argument's class that no task in the reuse index has
   fired on, checked before and after a save -> load; the frontiers
   exist from the start, so every operation maintains them. *)
let frontier_prop =
  QCheck.Test.make ~name:"frontier = a scan of the reuse index" ~count:100
    (QCheck.pair arb_ops arb_ops) (fun (before, after) ->
      let frontiers_hold session =
        let k = Session.kernel session in
        let net = Kernel.derivation_net k in
        let tokens = Kernel.tokens ~frontiers:true k in
        let fired = Kernel.reusable_tasks k in
        List.for_all
          (fun (info : Gaea_petri.Net.transition_info) ->
            let p = Option.get (Kernel.find_process k info.t_name) in
            let arg = List.hd p.Process.args in
            let scan =
              List.filter
                (fun o ->
                  not
                    (List.exists
                       (fun (t : Task.t) ->
                         t.Task.process = p.Process.proc_name
                         && t.Task.process_version = p.Process.version
                         && t.Task.inputs = [ (arg.Process.arg_name, [ o ]) ])
                       fired))
                (Kernel.objects_of_class k arg.Process.arg_class)
            in
            match tokens.unfired info.t_id with
            | None -> QCheck.Test.fail_reportf "%s has no frontier" info.t_name
            | Some f ->
              let frontier = f.lowest max_int in
              (frontier = scan && f.size = List.length scan)
              || QCheck.Test.fail_reportf "%s: frontier [%s], scan [%s]"
                   info.t_name
                   (String.concat "; " (List.map string_of_int frontier))
                   (String.concat "; " (List.map string_of_int scan)))
          (Gaea_petri.Net.transitions net)
      in
      let session = Session.create () in
      ignore (run session schema);
      frontiers_hold session
      && (List.iter (apply session) before;
          frontiers_hold session)
      &&
      let loaded = reload session in
      frontiers_hold loaded
      && (List.iter (apply loaded) after;
          frontiers_hold loaded))

let () =
  Alcotest.run "reuse"
    [ ( "probe",
        [ tc "NEED 2, 3, 5: five distinct objects" test_probe_ends_with_five;
          tc "NEED n+1 fires only the unfired binding" test_need_fires_unfired;
          tc "reuse survives save/load" test_reuse_survives_save_load;
          tc "updating a derived object ends its reuse"
            test_update_derived_ends_reuse ] );
      ( "fresh",
        [ tc "NEED three after two fires task #3 only" test_need_three_after_two;
          tc "NEED every scene, at any pool size" test_need_every_scene;
          tc "NEED past the scenes fails, no duplicate" test_need_too_many;
          tc "find_binding ~fresh skips fired bindings" test_find_binding_fresh;
          tc "NEED N over N-1 fired scenes" test_need_over_fired_history ]
      );
      ( "oids",
        [ tc "a deleted object's oid stays spent after load"
            test_deleted_oid_stays_spent ] );
      qsuite "persist" [ save_load_prop ];
      qsuite "tokens" [ tokens_view_prop ];
      qsuite "unfired" [ frontier_prop ] ]
