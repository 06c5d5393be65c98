(* Tests for reuse of derived objects through the provenance log: the
   DERIVE probe (five scenes, NEED 2, 3 and 5), reuse traced as reuse,
   reuse across save and load, the end of reuse when a derived object
   is updated, and a randomized save -> load property over GaeaQL
   workloads. *)

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

(* ------------------------------------------------------------------ *)
(* The probe                                                           *)
(* ------------------------------------------------------------------ *)

let test_probe_ends_with_three () =
  let finish session =
    ignore (message session "DERIVE normalized NEED 3");
    ignore (message session "DERIVE normalized NEED 5");
    normalized session
  in
  Alcotest.(check (list int)) "6, 7 and 8" [ 6; 7; 8 ] (finish (probe ()));
  (* reuse has no budget: a one-byte one changes nothing *)
  let k = Kernel.create () in
  Kernel.set_cache_budget k 1;
  Alcotest.(check (list int)) "the same at a one-byte budget" [ 6; 7; 8 ]
    (finish (probe ~kernel:k ()))

let test_reuse_traced_as_reuse () =
  let session = Session.create () in
  ignore (run session schema);
  ignore (run session five_scenes);
  ignore (run session "BEGIN EXPERIMENT e");
  let fired = message session "DERIVE normalized NEED 2" in
  check_bool "NEED 2 fires" true (contains fired "fired normalize v1 (task #1)");
  let m = message session "DERIVE normalized NEED 3" in
  check_bool "NEED 3 reuses task #1" true
    (contains m "reused normalize v1 (task #1)");
  check_bool "and fires nothing" false (contains m "fired");
  let experiments = Executor.experiments (Session.executor session) in
  let e = Option.get (Experiment.find experiments "e") in
  Alcotest.(check (list int)) "the experiment holds the two fired tasks"
    [ 1; 2 ] e.Experiment.task_ids

let test_reuse_survives_save_load () =
  let session = reload (probe ()) in
  let m = message session "DERIVE normalized NEED 3" in
  check_bool "the loaded kernel reuses task #1" true
    (contains m "reused normalize v1 (task #1)");
  Alcotest.(check (list int)) "no object added" [ 6; 7 ] (normalized session);
  match run session "SELECT oid FROM normalized" with
  | [ Executor.Rows { rows; _ } ] ->
    check_int "SELECT returns 2 rows" 2 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

(* Overwriting a derived object ends the reuse of the task that
   produced it, on a live kernel and on a loaded one alike. *)
let one_pixel v =
  Value.image (Image.of_array ~nrow:1 ~ncol:1 Pixel.Float8 [| v |])

let test_update_derived_ends_reuse () =
  let check_ends session =
    ok
      (Kernel.update_object (Session.kernel session) ~cls:"normalized" 6
         [ ("data", one_pixel 0.) ]);
    let m = message session "DERIVE normalized NEED 3" in
    check_bool "scene 1 is derived again" true (contains m "fired normalize v1");
    Alcotest.(check (list int)) "a third object" [ 6; 7; 8 ] (normalized session)
  in
  check_ends (probe ());
  let loaded = reload (probe ()) in
  let m = message loaded "DERIVE normalized NEED 3" in
  check_bool "reuse survived the load" true (contains m "reused");
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
  let select_path =
    match
      Parser.parse_one
        "SELECT oid FROM scene WHERE timestamp AT DATE '1988-06-03'"
    with
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
  @ [ show "SHOW STALE"; show "CHECK ALL"; show "SHOW CACHE"; select_path ]
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

let () =
  Alcotest.run "reuse"
    [ ( "probe",
        [ tc "NEED 2, 3, 5 ends with three objects" test_probe_ends_with_three;
          tc "a reused task is traced as reused" test_reuse_traced_as_reuse;
          tc "reuse survives save/load" test_reuse_survives_save_load;
          tc "updating a derived object ends its reuse"
            test_update_derived_ends_reuse ] );
      ( "oids",
        [ tc "a deleted object's oid stays spent after load"
            test_deleted_oid_stays_spent ] );
      qsuite "persist" [ save_load_prop ] ]
