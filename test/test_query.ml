(* Tests for the GaeaQL interpreter: lexer, parser, optimizer,
   executor, session. *)

open Gaea_query
module Kernel = Gaea_core.Kernel
module Process = Gaea_core.Process
module Value = Gaea_adt.Value
module Table = Gaea_storage.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "unexpected error: %s" (Gaea_core.Gaea_error.to_string e)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basics () =
  match Lexer.tokenize "SELECT * FROM t WHERE x >= 2.5 AND y <> 'a b';" with
  | Error e -> Alcotest.failf "tokenize: %s" (Gaea_core.Gaea_error.to_string e)
  | Ok toks ->
    let open Lexer in
    Alcotest.(check (list string)) "tokens"
      [ "SELECT"; "*"; "FROM"; "t"; "WHERE"; "x"; ">="; "2.5"; "AND"; "y";
        "<>"; "'a b'"; ";"; "<eof>" ]
      (List.map token_to_string toks)

let test_lexer_comments_and_params () =
  match Lexer.tokenize "DERIVE x; -- a comment\n$param 42 -7 3.5e2" with
  | Error e -> Alcotest.failf "tokenize: %s" (Gaea_core.Gaea_error.to_string e)
  | Ok toks ->
    let open Lexer in
    check_bool "param" true (List.mem (Param "param") toks);
    check_bool "int" true (List.mem (Int_lit 42) toks);
    check_bool "negative int" true (List.mem (Int_lit (-7)) toks);
    check_bool "float exp" true (List.mem (Float_lit 350.) toks);
    check_bool "comment dropped" true
      (not (List.exists (function Ident s -> s = "comment" | _ -> false) toks))

let test_lexer_errors () =
  check_bool "unterminated string" true (Result.is_error (Lexer.tokenize "'abc"));
  check_bool "stray char" true (Result.is_error (Lexer.tokenize "a @ b"));
  check_bool "empty param" true (Result.is_error (Lexer.tokenize "$ x"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_define_class () =
  match
    Parser.parse_one
      "DEFINE CLASS landcover (area string, data image, spatialextent box, \
       timestamp abstime) DERIVED BY classify"
  with
  | Ok (Ast.Define_class { name; attrs; derived_by; _ }) ->
    check_str "name" "landcover" name;
    check_int "attrs" 4 (List.length attrs);
    check_bool "derived" true (derived_by = Some "classify")
  | Ok _ -> Alcotest.fail "wrong statement"
  | Error e -> Alcotest.failf "parse: %s" (Gaea_core.Gaea_error.to_string e)

let test_parse_define_process () =
  let src =
    "DEFINE PROCESS p20 OUTPUT land_cover ARGS (bands SETOF tm CARD 3) \
     PARAM k = 12 \
     ASSERT card(bands) = 3 \
     ASSERT common(bands.spatialextent) \
     ASSERT common(bands.timestamp) \
     MAP data = unsuperclassify(composite(bands.data), $k) \
     MAP numclass = $k \
     MAP timestamp = ANYOF bands.timestamp \
     END"
  in
  match Parser.parse_one src with
  | Ok (Ast.Define_process { name; output; args; params; assertions; mappings; steps }) ->
    check_int "steps" 0 (List.length steps);
    check_str "name" "p20" name;
    check_str "output" "land_cover" output;
    (match args with
     | [ a ] ->
       check_bool "setof" true a.Ast.sa_setof;
       check_bool "card" true (a.Ast.sa_card = Some (3, None))
     | _ -> Alcotest.fail "args");
    check_int "params" 1 (List.length params);
    check_int "assertions" 3 (List.length assertions);
    check_bool "temporal common" true
      (List.exists (function Ast.A_common_time "bands" -> true | _ -> false) assertions);
    check_bool "spatial common" true
      (List.exists (function Ast.A_common_space "bands" -> true | _ -> false) assertions);
    check_int "mappings" 3 (List.length mappings)
  | Ok _ -> Alcotest.fail "wrong statement"
  | Error e -> Alcotest.failf "parse: %s" (Gaea_core.Gaea_error.to_string e)

let test_parse_select () =
  match
    Parser.parse_one
      "SELECT a, b FROM c WHERE x >= 2 AND t AT DATE '1986-01-15' AND s \
       OVERLAPS BOX(0, 0, 10.5, 10) ORDER BY a DESC LIMIT 5"
  with
  | Ok (Ast.Select s) ->
    Alcotest.(check (list string)) "projection" [ "a"; "b" ] s.Ast.projection;
    check_str "source" "c" s.Ast.source;
    check_int "predicates" 3 (List.length s.Ast.where_);
    check_bool "order" true (s.Ast.order_by = Some ("a", Ast.Desc));
    check_bool "limit" true (s.Ast.limit = Some 5)
  | Ok _ -> Alcotest.fail "wrong statement"
  | Error e -> Alcotest.failf "parse: %s" (Gaea_core.Gaea_error.to_string e)

let test_parse_misc_statements () =
  let parses src =
    match Parser.parse_one src with
    | Ok _ -> true
    | Error _ -> false
  in
  List.iter
    (fun src -> check_bool src true (parses src))
    [ "DERIVE land_cover";
      "DERIVE x AT DATE '1986-06-01' NEED 2";
      "SHOW CLASSES"; "SHOW PROCESSES"; "SHOW CONCEPTS"; "SHOW TASKS";
      "SHOW NET"; "SHOW LINEAGE 42"; "SHOW PLAN land_cover";
      "SHOW OPERATORS"; "SHOW OPERATORS FOR image"; "SHOW VERSIONS OF p20";
      "VERIFY 3"; "VERIFY TASK 7"; "COMPARE 3 4";
      "BEGIN EXPERIMENT e"; "NOTE e 'text'"; "REPRODUCE e";
      "DEFINE CONCEPT desert MEMBERS (c2, c3) ISA landform";
      "INSERT INTO c (x = 5, b = BOX(0,0,1,1), d = DATE '1986-01-01')" ]

let test_parse_script_and_errors () =
  (match Parser.parse "SHOW CLASSES; SHOW TASKS;; ; SHOW NET" with
   | Ok stmts -> check_int "three statements" 3 (List.length stmts)
   | Error e -> Alcotest.failf "script: %s" (Gaea_core.Gaea_error.to_string e));
  List.iter
    (fun src ->
      check_bool ("rejects " ^ src) true (Result.is_error (Parser.parse_one src)))
    [ "SELECT FROM"; "DERIVE"; "DEFINE CLASS x ()"; "SHOW NOTHING";
      "INSERT INTO c x = 5"; "DEFINE PROCESS p OUTPUT o END";
      "SELECT * FROM t WHERE x ~ 3" ]

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let desert_session () =
  let session = Session.create () in
  let _ =
    ok
      (Session.run_string session
         {|
DEFINE CLASS rainfall (year int, data image, spatialextent box, timestamp abstime);
DEFINE CLASS desert (cutoff float, data image, spatialextent box, timestamp abstime)
  DERIVED BY d250;
DEFINE PROCESS d250 OUTPUT desert ARGS (rain rainfall)
  PARAM cutoff = 250.0
  MAP cutoff = $cutoff
  MAP data = img_threshold_below(rain.data, $cutoff)
  MAP spatialextent = rain.spatialextent
  MAP timestamp = rain.timestamp
END;
INSERT INTO rainfall (year = 1986, data = synth_rainfall(1, 8, 8),
  spatialextent = make_box(0.0,0.0,10.0,10.0), timestamp = make_abstime(1986,1,1));
INSERT INTO rainfall (year = 1987, data = synth_rainfall(2, 8, 8),
  spatialextent = make_box(0.0,0.0,10.0,10.0), timestamp = make_abstime(1987,1,1));
INSERT INTO rainfall (year = 1988, data = synth_rainfall(3, 8, 8),
  spatialextent = make_box(0.0,0.0,10.0,10.0), timestamp = make_abstime(1988,1,1))
|})
  in
  session

let test_optimizer_access_paths () =
  let session = desert_session () in
  let k = Session.kernel session in
  let parse_select src =
    match Parser.parse_one src with
    | Ok (Ast.Select s) -> s
    | _ -> Alcotest.fail "not a select"
  in
  let plan = ok (Optimizer.plan_select k (parse_select "SELECT * FROM rainfall WHERE year = 1986")) in
  check_bool "full scan" true (plan.Plan.path = Plan.Full_scan);
  check_int "residual carries predicate" 1 (List.length plan.Plan.residual);
  let tab = Option.get (Kernel.class_table k "rainfall") in
  Result.get_ok (Table.create_btree_index tab "year");
  let plan2 = ok (Optimizer.plan_select k (parse_select "SELECT * FROM rainfall WHERE year = 1986")) in
  (match plan2.Plan.path with
   | Plan.Index_eq ("year", _) -> ()
   | _ -> Alcotest.fail "expected index path");
  check_int "no residual" 0 (List.length plan2.Plan.residual);
  check_bool "cheaper" true (plan2.Plan.est_cost < plan.Plan.est_cost);
  let plan3 =
    ok (Optimizer.plan_select k
          (parse_select "SELECT * FROM rainfall WHERE timestamp AT DATE '1987-01-01'"))
  in
  (match plan3.Plan.path with
   | Plan.Index_range ("timestamp", Some _, Some _) -> ()
   | _ -> Alcotest.fail "expected temporal range path")

(* The catalog owns the temporal index, so a reloaded kernel keeps it
   and AT queries still take the range probe. *)
let test_optimizer_index_survives_reload () =
  let session = desert_session () in
  let k = ok (Gaea_core.Persist.load (Gaea_core.Persist.save (Session.kernel session))) in
  let select =
    match Parser.parse_one "SELECT * FROM rainfall WHERE timestamp AT DATE '1987-01-01'" with
    | Ok (Ast.Select s) -> s
    | _ -> Alcotest.fail "not a select"
  in
  match (ok (Optimizer.plan_select k select)).Plan.path with
  | Plan.Index_range ("timestamp", Some _, Some _) -> ()
  | _ -> Alcotest.fail "expected temporal range path after save/load"

let test_optimizer_materialize () =
  let session = desert_session () in
  let k = Session.kernel session in
  (match Optimizer.plan_materialize k "desert" with
   | Plan.Derive { firings = 1; depth = 1 } -> ()
   | p -> Alcotest.failf "expected 1-firing derive, got %s"
            (Format.asprintf "%a" Plan.pp_materialize_plan p));
  (match Optimizer.plan_materialize k "zzz" with
   | Plan.Impossible _ -> ()
   | _ -> Alcotest.fail "expected impossible");
  (match
     Optimizer.plan_materialize k
       ~at:(Gaea_geo.Abstime.of_ymd 1986 6 1) "rainfall"
   with
   | Plan.Interpolate { snapshots = 3 } -> ()
   | p -> Alcotest.failf "expected interpolate, got %s"
            (Format.asprintf "%a" Plan.pp_materialize_plan p));
  (match Optimizer.plan_materialize k "rainfall" with
   | Plan.Stored 3 -> ()
   | _ -> Alcotest.fail "expected stored")

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let run1 session src =
  match Session.run_string session src with
  | Ok [ r ] -> r
  | Ok _ -> Alcotest.fail "expected one response"
  | Error e ->
    Alcotest.failf "%s: %s" src (Gaea_core.Gaea_error.to_string e)

let test_executor_select_filters () =
  let session = desert_session () in
  (match run1 session "SELECT year FROM rainfall WHERE year >= 1987 ORDER BY year DESC" with
   | Executor.Rows { rows; _ } ->
     Alcotest.(check (list string)) "filtered + ordered" [ "1988"; "1987" ]
       (List.map
          (fun (_, pairs) -> Value.to_display (List.assoc "year" pairs))
          rows)
   | _ -> Alcotest.fail "expected rows");
  (match run1 session "SELECT year FROM rainfall WHERE timestamp AT DATE '1987-01-01'" with
   | Executor.Rows { rows; _ } -> check_int "AT matches one" 1 (List.length rows)
   | _ -> Alcotest.fail "rows");
  (match run1 session "SELECT year FROM rainfall WHERE spatialextent OVERLAPS BOX(20,20,30,30)" with
   | Executor.Rows { rows; _ } -> check_int "disjoint box" 0 (List.length rows)
   | _ -> Alcotest.fail "rows");
  (match run1 session "SELECT year FROM rainfall LIMIT 2" with
   | Executor.Rows { rows; _ } -> check_int "limit" 2 (List.length rows)
   | _ -> Alcotest.fail "rows")

let test_executor_derive_and_verify () =
  let session = desert_session () in
  let out = Session.run_string_collect session
      "BEGIN EXPERIMENT e; DERIVE desert; REPRODUCE e" in
  check_bool "derived" true (contains out "fired d250");
  check_bool "reproduces" true (contains out "1/1 task(s) reproduce");
  let out2 = Session.run_string_collect session "DERIVE desert; SHOW TASKS" in
  check_bool "no second firing" true (not (contains out2 "task #2"))

let test_executor_concept_select () =
  let session = desert_session () in
  let _ = ok (Session.run_string session
      "DEFINE CONCEPT desertic MEMBERS (desert); DERIVE desert") in
  match run1 session "SELECT cutoff FROM desertic" with
  | Executor.Rows { rows; _ } ->
    check_int "concept reaches member class" 1 (List.length rows)
  | _ -> Alcotest.fail "rows"

let test_executor_derive_concept () =
  (* DERIVE on a concept: the high-level layer picks a realizing class *)
  let session = desert_session () in
  let _ = ok (Session.run_string session "DEFINE CONCEPT desertic MEMBERS (desert)") in
  let out = Session.run_string_collect session "DERIVE desertic" in
  check_bool "derived via member class" true (contains out "fired d250");
  check_bool "unknown concept still errors" true
    (Result.is_error (Session.run_string session "DERIVE nothing_here"))

let test_executor_metadata_statements () =
  let session = desert_session () in
  let all = Session.run_string_collect session
      "SHOW CLASSES; SHOW PROCESSES; SHOW CONCEPTS; SHOW OPERATORS FOR box; SHOW PLAN desert; SHOW NET" in
  check_bool "classes" true (contains all "CLASS rainfall");
  check_bool "process" true (contains all "DEFINE PRIMITIVE PROCESS d250");
  check_bool "operators" true (contains all "box_overlaps");
  check_bool "plan" true (contains all "derive (1 firing(s)");
  check_bool "net dot" true (contains all "digraph")

let test_executor_lineage_and_compare () =
  let session = desert_session () in
  let _ = ok (Session.run_string session "DERIVE desert") in
  let k = Session.kernel session in
  let oid = List.hd (Kernel.objects_of_class k "desert") in
  let out =
    Session.run_string_collect session (Printf.sprintf "SHOW LINEAGE %d" oid)
  in
  check_bool "lineage shown" true (contains out "d250");
  let out2 =
    Session.run_string_collect session (Printf.sprintf "COMPARE %d %d" oid oid)
  in
  check_bool "same derivation" true (contains out2 "share the same derivation");
  check_bool "verify errors on unknown" true
    (Result.is_error (Session.run_string session "VERIFY TASK 999"))

let test_executor_errors () =
  let session = desert_session () in
  List.iter
    (fun src ->
      check_bool ("rejects " ^ src) true
        (Result.is_error (Session.run_string session src)))
    [ "SELECT * FROM nothere";
      "DERIVE nothere";
      "INSERT INTO rainfall (year = 1)";
      "DEFINE CLASS rainfall (x int)";
      "DEFINE CLASS c2 (x nosuchtype)";
      "SHOW LINEAGE 9999";
      "NOTE unknown_exp 'x'" ]

let test_executor_versions () =
  let session = desert_session () in
  (* redefining under the same name never overwrites: the new
     definition is installed as the next version, derived_from the
     old one *)
  let _ =
    ok
      (Session.run_string session
         {|DEFINE PROCESS d250 OUTPUT desert ARGS (rain rainfall)
           PARAM cutoff = 200.0 MAP cutoff = $cutoff
           MAP data = img_threshold_below(rain.data, $cutoff)
           MAP spatialextent = rain.spatialextent
           MAP timestamp = rain.timestamp END|})
  in
  let out = Session.run_string_collect session "SHOW VERSIONS OF d250" in
  check_bool "v1 listed" true (contains out "(v1)");
  check_bool "v2 listed" true (contains out "(v2)");
  let k = Session.kernel session in
  let p = Option.get (Kernel.find_process k "d250") in
  check_int "latest is v2" 2 p.Process.version;
  check_bool "derived_from v1" true
    (p.Process.derived_from = Some ("d250", 1))

let () =
  Alcotest.run "query"
    [ ( "lexer",
        [ tc "basics" test_lexer_basics;
          tc "comments/params" test_lexer_comments_and_params;
          tc "errors" test_lexer_errors ] );
      ( "parser",
        [ tc "define class" test_parse_define_class;
          tc "define process" test_parse_define_process;
          tc "select" test_parse_select;
          tc "misc statements" test_parse_misc_statements;
          tc "scripts and errors" test_parse_script_and_errors ] );
      ( "optimizer",
        [ tc "access paths" test_optimizer_access_paths;
          tc "materialize" test_optimizer_materialize;
          tc "temporal index survives save/load" test_optimizer_index_survives_reload ] );
      ( "executor",
        [ tc "select filters" test_executor_select_filters;
          tc "derive and verify" test_executor_derive_and_verify;
          tc "concept select" test_executor_concept_select;
          tc "derive concept" test_executor_derive_concept;
          tc "metadata statements" test_executor_metadata_statements;
          tc "lineage and compare" test_executor_lineage_and_compare;
          tc "errors" test_executor_errors;
          tc "versions" test_executor_versions ] ) ]
