(* Tests for the GaeaQL interpreter: lexer, parser, optimizer,
   executor, session. *)

open Gaea_query
module Kernel = Gaea_core.Kernel
module Process = Gaea_core.Process
module Template = Gaea_core.Template
module Lineage = Gaea_core.Lineage
module Derivation = Gaea_core.Derivation
module Task = Gaea_core.Task
module Value = Gaea_adt.Value
module Table = Gaea_storage.Table
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime

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

let test_lexer_error_messages () =
  List.iter
    (fun (src, msg) ->
      match Lexer.tokenize src with
      | Ok _ -> Alcotest.failf "%S lexed" src
      | Error e ->
        check_str src
          (Gaea_core.Gaea_error.to_string (Gaea_core.Gaea_error.Parse_error msg))
          (Gaea_core.Gaea_error.to_string e))
    [ ("SELECT 'abc", "unterminated string literal");
      ("x \"ab", "unterminated string literal");
      ("a @ b", "unexpected character '@'");
      ("$ x", "empty parameter name");
      ("LIMIT 99999999999999999999", "bad int literal 99999999999999999999");
      ("-", "unexpected character '-'") ]

(* two-character tokens decided by the last character of the input *)
let test_lexer_end_of_input () =
  List.iter
    (fun (src, expected) ->
      match Lexer.tokenize src with
      | Ok toks ->
        Alcotest.(check (list string)) src expected
          (List.map Lexer.token_to_string toks)
      | Error e ->
        Alcotest.failf "%S: %s" src (Gaea_core.Gaea_error.to_string e))
    [ ("<=", [ "<="; "<eof>" ]); ("a<>", [ "a"; "<>"; "<eof>" ]);
      (">=", [ ">="; "<eof>" ]); ("!=", [ "<>"; "<eof>" ]);
      ("<", [ "<"; "<eof>" ]); ("-7", [ "-7"; "<eof>" ]);
      ("1.5", [ "1.5"; "<eof>" ]); ("2.", [ "2"; "."; "<eof>" ]);
      ("x --", [ "x"; "<eof>" ]); ("''", [ "''"; "<eof>" ]) ]

(* mixed case: every other letter upper *)
let alternate_case s =
  String.mapi
    (fun i c ->
      if i mod 2 = 0 then Char.lowercase_ascii c else Char.uppercase_ascii c)
    s

let test_lexer_keywords () =
  List.iter
    (fun kw ->
      List.iter
        (fun spelling ->
          match Lexer.tokenize spelling with
          | Ok [ Lexer.Keyword (upper, written); Lexer.Eof ] ->
            check_str (spelling ^ " keyword") kw upper;
            check_str (spelling ^ " spelling") spelling written
          | _ -> Alcotest.failf "%S did not lex to one keyword" spelling)
        [ kw; String.lowercase_ascii kw; alternate_case kw ])
    Lexer.keywords

(* an identifier is a keyword exactly when its uppercase form is in
   [Lexer.keywords] *)
let prop_lexer_keyword_oracle =
  let open QCheck.Gen in
  let start = oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; return '_' ] in
  let rest =
    oneof [ start; char_range '0' '9'; return '-'; return '_' ]
  in
  let random_ident =
    map2
      (fun c cs -> String.make 1 c ^ String.concat "" (List.map (String.make 1) cs))
      start (list_size (int_range 0 12) rest)
  in
  let recase s =
    map
      (fun flips ->
        String.mapi
          (fun i c ->
            if List.nth flips (i mod List.length flips) then
              Char.lowercase_ascii c
            else c)
          s)
      (list_size (int_range 1 8) bool)
  in
  let near_keyword =
    oneofl Lexer.keywords >>= fun kw ->
    recase kw >>= fun s ->
    oneof
      [ return s;
        map (fun c -> s ^ String.make 1 c) rest;
        map (fun c -> String.make 1 c ^ s) start;
        return (String.sub s 0 (String.length s - 1) ^ "_") ]
  in
  QCheck.Test.make ~name:"keyword lookup = List.mem over the uppercase form"
    ~count:2000
    (QCheck.make ~print:(fun s -> s) (oneof [ random_ident; near_keyword ]))
    (fun ident ->
      let upper = String.uppercase_ascii ident in
      let expected =
        if List.mem upper Lexer.keywords then Lexer.Keyword (upper, ident)
        else Lexer.Ident ident
      in
      Lexer.tokenize ident = Ok [ expected; Lexer.Eof ])

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
       check_bool "setof" true a.Process.setof;
       check_bool "card" true
         (a.Process.card_min = 3 && a.Process.card_max = None)
     | _ -> Alcotest.fail "args");
    check_int "params" 1 (List.length params);
    check_int "assertions" 3 (List.length assertions);
    check_bool "temporal common" true
      (List.mem (Template.Common ("bands", "timestamp")) assertions);
    check_bool "spatial common" true
      (List.mem (Template.Common ("bands", "spatialextent")) assertions);
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

(* The catalog declares a window index on the spatial extent too, so
   OVERLAPS takes the window probe, before and after save/load. *)
let test_optimizer_window_path () =
  let select =
    match
      Parser.parse_one
        "SELECT * FROM rainfall WHERE spatialextent OVERLAPS BOX(2.5, 2.5, 4.5, 4.5)"
    with
    | Ok (Ast.Select s) -> s
    | _ -> Alcotest.fail "not a select"
  in
  let session = desert_session () in
  let reloaded =
    ok (Gaea_core.Persist.load (Gaea_core.Persist.save (Session.kernel session)))
  in
  List.iter
    (fun (what, k) ->
      let plan = ok (Optimizer.plan_select k select) in
      (match plan.Plan.path with
       | Plan.Index_range ("spatialextent", Some (Value.VBox w), Some (Value.VBox w'))
         when Box.equal w w' -> ()
       | _ -> Alcotest.failf "%s: expected the window path" what);
      check_int (what ^ ": no residual") 0 (List.length plan.Plan.residual);
      check_str (what ^ ": printed")
        "index-window(spatialextent overlaps (2.5,2.5,4.5,4.5))"
        (Format.asprintf "%a" Plan.pp_access_path plan.Plan.path))
    [ ("defined", Session.kernel session); ("reloaded", reloaded) ]

(* AT and OVERLAPS have the same constant selectivity: the earlier
   predicate is probed, the other stays residual, and either way the
   rows are the scan's. *)
let test_optimizer_at_and_overlaps () =
  let session = desert_session () in
  let _ =
    ok
      (Session.run_string session
         {|INSERT INTO rainfall (year = 1990, data = synth_rainfall(4, 2, 2),
             spatialextent = make_box(20.0, 20.0, 30.0, 30.0),
             timestamp = make_abstime(1987, 1, 2));
           INSERT INTO rainfall (year = 1991, data = synth_rainfall(5, 2, 2),
             spatialextent = make_box(5.0, 5.0, 6.0, 6.0),
             timestamp = make_abstime(1987, 1, 1));
           INSERT INTO rainfall (year = 1992, data = synth_rainfall(6, 2, 2),
             spatialextent = make_box(5.0, 5.0, 6.0, 6.0),
             timestamp = make_abstime(1989, 1, 1))|})
  in
  let k = Session.kernel session in
  let at = "timestamp AT DATE '1987-01-01'"
  and overlaps = "spatialextent OVERLAPS BOX(4, 4, 12, 12)" in
  let years src =
    match Session.run_string session src with
    | Ok [ Executor.Rows { rows; _ } ] ->
      List.map (fun (_, pairs) -> Value.to_display (List.assoc "year" pairs)) rows
    | _ -> Alcotest.failf "%s: expected rows" src
  in
  List.iter
    (fun (first, second, probed) ->
      let src = Printf.sprintf "SELECT * FROM rainfall WHERE %s AND %s" first second in
      let select =
        match Parser.parse_one src with
        | Ok (Ast.Select s) -> s
        | _ -> Alcotest.fail "not a select"
      in
      let paths =
        List.init 3 (fun _ ->
            let plan = ok (Optimizer.plan_select k select) in
            check_int (src ^ ": one residual") 1 (List.length plan.Plan.residual);
            Format.asprintf "%a" Plan.pp_access_path plan.Plan.path)
      in
      check_bool (src ^ ": probes " ^ probed) true
        (List.for_all (fun p -> contains p probed) paths);
      Alcotest.(check (list string)) (src ^ ": rows") [ "1987"; "1991" ] (years src))
    [ (at, overlaps, "index-range(timestamp"); (overlaps, at, "index-window(") ]

(* 200 rows; [a] takes 2 distinct values and [b] 50, both B-tree
   indexed *)
let pairs_session () =
  let session = Session.create () in
  let inserts =
    List.init 200 (fun i ->
        Printf.sprintf "INSERT INTO pair (a = %d, b = %d)" (i mod 2) (i mod 50))
  in
  let _ =
    ok
      (Session.run_string session
         (String.concat ";\n" ("DEFINE CLASS pair (a int, b int)" :: inserts)))
  in
  let tab = Option.get (Kernel.class_table (Session.kernel session) "pair") in
  Result.get_ok (Table.create_btree_index tab "a");
  Result.get_ok (Table.create_btree_index tab "b");
  session

let test_optimizer_selectivity_from_btree () =
  let session = pairs_session () in
  let k = Session.kernel session in
  let select =
    match Parser.parse_one "SELECT * FROM pair WHERE a = 1 AND b = 7" with
    | Ok (Ast.Select s) -> s
    | _ -> Alcotest.fail "not a select"
  in
  let expect what ~rows ~distinct =
    let plan = ok (Optimizer.plan_select k select) in
    (match plan.Plan.path with
     | Plan.Index_eq ("b", Value.VInt 7) -> ()
     | _ -> Alcotest.failf "%s: expected index-eq on b" what);
    check_int (what ^ ": a stays residual") 1 (List.length plan.Plan.residual);
    Alcotest.(check (float 1e-9)) (what ^ ": est_rows")
      (float_of_int rows /. float_of_int distinct) plan.Plan.est_rows
  in
  expect "initial" ~rows:200 ~distinct:50;
  let _ = ok (Session.run_string session "INSERT INTO pair (a = 0, b = 99)") in
  expect "after insert" ~rows:201 ~distinct:51;
  (* deleting every row with b = 0 removes a key *)
  List.iter
    (fun oid ->
      match Kernel.object_attr k ~cls:"pair" oid "b" with
      | Some (Value.VInt 0) ->
        ignore (ok (Session.run_string session (Printf.sprintf "DELETE FROM pair %d" oid)))
      | _ -> ())
    (Kernel.objects_of_class k "pair");
  expect "after delete" ~rows:197 ~distinct:50

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

let select_rows session src =
  match run1 session src with
  | Executor.Rows { rows; _ } -> rows
  | _ -> Alcotest.failf "%s: expected rows" src

(* LIMIT without ORDER BY stops the walk early but must return exactly
   the prefix of the unlimited result *)
let test_executor_limit_is_prefix () =
  let session = pairs_session () in
  let _ =
    ok
      (Session.run_string session
         {|DEFINE CLASS other (a int, b int);
           INSERT INTO other (a = 1, b = 3);
           INSERT INTO other (a = 0, b = 4);
           INSERT INTO other (a = 1, b = 5);
           DEFINE CONCEPT both MEMBERS (pair, other)|})
  in
  List.iter
    (fun query ->
      let all = select_rows session query in
      List.iter
        (fun n ->
          let limited = select_rows session (Printf.sprintf "%s LIMIT %d" query n) in
          check_bool (Printf.sprintf "%s LIMIT %d" query n) true
            (limited = List.filteri (fun i _ -> i < n) all))
        [ 0; 1; 2; 5; List.length all - 1; List.length all; List.length all + 3 ])
    [ "SELECT * FROM pair";
      "SELECT b FROM pair WHERE a = 1";
      "SELECT * FROM pair WHERE b >= 40";
      "SELECT * FROM both WHERE b < 6";
      "SELECT a FROM both WHERE a = 1" ];
  let classes rows =
    List.sort_uniq compare
      (List.map (fun (oid, _) -> Kernel.class_of_object (Session.kernel session) oid) rows)
  in
  check_int "a limit past the first member reaches the second" 2
    (List.length (classes (select_rows session "SELECT * FROM both WHERE b < 6 LIMIT 26")))

let test_executor_limit_after_order_by () =
  let session = pairs_session () in
  let _ =
    ok
      (Session.run_string session
         {|DEFINE CLASS other (a int, b int);
           INSERT INTO other (a = 1, b = -2);
           INSERT INTO other (a = 0, b = -1);
           DEFINE CONCEPT both MEMBERS (pair, other)|})
  in
  let bs rows =
    List.map (fun (_, pairs) -> Value.to_display (List.assoc "b" pairs)) rows
  in
  Alcotest.(check (list string)) "global minima, from the second member"
    [ "-2"; "-1"; "0" ]
    (bs (select_rows session "SELECT b FROM both ORDER BY b LIMIT 3"));
  Alcotest.(check (list string)) "descending" [ "49"; "49"; "49" ]
    (bs (select_rows session "SELECT b FROM both ORDER BY b DESC LIMIT 3"))

let test_executor_limit_zero () =
  let session = pairs_session () in
  check_int "class" 0 (List.length (select_rows session "SELECT * FROM pair LIMIT 0"));
  check_int "ordered" 0
    (List.length (select_rows session "SELECT * FROM pair ORDER BY b LIMIT 0"))

(* A literal of another type than an indexed attribute's matches no
   row, through the index as through a scan, and never raises. *)
let test_executor_mistyped_index_probe () =
  let session = desert_session () in
  List.iter
    (fun src -> check_int src 0 (List.length (select_rows session src)))
    [ "SELECT * FROM rainfall WHERE timestamp < 5";
      "SELECT * FROM rainfall WHERE timestamp = 'x'";
      "SELECT * FROM rainfall WHERE timestamp >= TRUE" ]

(* The B-tree range is closed: a strict bound must still drop the rows
   equal to it, as the scan of a second concept member does. *)
let test_executor_strict_bound_on_index () =
  let session = pairs_session () in
  check_int "b < 6" 24 (List.length (select_rows session "SELECT * FROM pair WHERE b < 6"));
  check_int "b > 45" 16 (List.length (select_rows session "SELECT * FROM pair WHERE b > 45"));
  check_int "b <= 6" 28 (List.length (select_rows session "SELECT * FROM pair WHERE b <= 6"));
  check_int "b >= 45" 20 (List.length (select_rows session "SELECT * FROM pair WHERE b >= 45"))

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

(* the member class is chosen for the request as asked: one stored
   stored_mask would answer NEED 1, but only normalized, derived through
   scene -> mid -> normalized, can answer NEED 2 *)
let test_executor_derive_concept_need () =
  let session = Session.create () in
  let _ =
    ok
      (Session.run_string session
         {|DEFINE CLASS scene ( data image, spatialextent box, timestamp abstime );
           DEFINE CLASS mid ( data image, spatialextent box, timestamp abstime );
           DEFINE CLASS normalized ( data image, spatialextent box, timestamp abstime );
           DEFINE CLASS stored_mask ( data image, spatialextent box, timestamp abstime );
           DEFINE PROCESS to_mid OUTPUT mid ARGS ( s scene )
             MAP data = img_scale(0.5, s.data)
             MAP spatialextent = s.spatialextent
             MAP timestamp = s.timestamp
           END;
           DEFINE PROCESS normalize OUTPUT normalized ARGS ( m mid )
             MAP data = img_normalize(m.data)
             MAP spatialextent = m.spatialextent
             MAP timestamp = m.timestamp
           END;
           DEFINE CONCEPT cleaned MEMBERS (stored_mask, normalized);
           INSERT INTO scene ( data = synth_rainfall(1, 4, 4),
             spatialextent = BOX(0, 0, 1, 1), timestamp = DATE '1988-06-01' );
           INSERT INTO scene ( data = synth_rainfall(2, 4, 4),
             spatialextent = BOX(1, 0, 2, 1), timestamp = DATE '1988-06-02' );
           INSERT INTO stored_mask ( data = synth_rainfall(3, 4, 4),
             spatialextent = BOX(0, 0, 2, 1), timestamp = DATE '1988-06-01' )|})
  in
  (match Session.run_string session "DERIVE cleaned NEED 2" with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Gaea_core.Gaea_error.to_string e));
  let k = Session.kernel session in
  Alcotest.(check (list int)) "two new normalized objects" [ 6; 7 ]
    (Kernel.objects_of_class k "normalized");
  Alcotest.(check (list int)) "stored_mask untouched" [ 3 ]
    (Kernel.objects_of_class k "stored_mask")

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

(* [oid] in a projection and in ORDER BY is the row's OID *)
let test_executor_select_oid () =
  let session = desert_session () in
  let oids src = List.map fst (select_rows session src) in
  let all = oids "SELECT year FROM rainfall" in
  (match run1 session "SELECT oid FROM rainfall" with
   | Executor.Rows { columns; rows } as r ->
     Alcotest.(check (list string)) "no repeated oid column" [] columns;
     Alcotest.(check (list int)) "every row" all (List.map fst rows);
     check_bool "no dash" false (contains (Executor.format_response r) "-")
   | _ -> Alcotest.fail "rows");
  Alcotest.(check (list int)) "ORDER BY oid DESC" (List.rev all)
    (oids "SELECT oid FROM rainfall ORDER BY oid DESC");
  Alcotest.(check (list int)) "ORDER BY oid DESC LIMIT 2"
    (List.filteri (fun i _ -> i < 2) (List.rev all))
    (oids "SELECT year, oid FROM rainfall ORDER BY oid DESC LIMIT 2")

(* an attribute no source class has is a typed error; a concept member
   lacking an attribute another member has shows [-] *)
let test_executor_unknown_attribute () =
  let session = desert_session () in
  let _ =
    ok
      (Session.run_string session
         "DERIVE desert; DEFINE CONCEPT maps MEMBERS (rainfall, desert)")
  in
  List.iter
    (fun src ->
      let rec unknown = function
        | Gaea_core.Gaea_error.Unknown_attribute { attr = "zzz"; _ } -> true
        | Gaea_core.Gaea_error.Context (_, e) -> unknown e
        | _ -> false
      in
      match Session.run_string session src with
      | Error e when unknown e -> ()
      | Error e -> Alcotest.failf "%s: %s" src (Gaea_core.Gaea_error.to_string e)
      | Ok _ -> Alcotest.failf "%s: accepted" src)
    [ "SELECT zzz FROM rainfall";
      "SELECT year FROM rainfall WHERE zzz = 1";
      "SELECT year FROM rainfall ORDER BY zzz";
      "SELECT year, zzz FROM maps" ];
  match run1 session "SELECT cutoff FROM maps" with
  | Executor.Rows { rows; _ } as r ->
    check_int "every member's rows" 4 (List.length rows);
    check_int "rainfall rows show -" 3
      (List.length
         (List.filter
            (fun line -> contains line "| -")
            (String.split_on_char '\n' (Executor.format_response r))))
  | _ -> Alcotest.fail "rows"

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

(* ------------------------------------------------------------------ *)
(* Fuzz: any input gets Ok or a typed error, never an exception        *)
(* ------------------------------------------------------------------ *)

(* the shipped example scripts (copied beside the test by dune) *)
let example_scripts =
  lazy
    (let dir =
       List.find Sys.file_exists [ "../examples"; "examples" ]
     in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".gaea")
     |> List.sort compare
     |> List.map (fun f ->
            In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(* examples/need.gaea leaves three normalized objects from four scenes;
   one more than the scenes can yield fires the fourth scene, then fails
   with Not_derivable *)
let test_need_example_past_the_scenes () =
  let dir = List.find Sys.file_exists [ "../examples"; "examples" ] in
  let session = Session.create () in
  ignore
    (ok
       (Session.run_string session
          (In_channel.with_open_bin (Filename.concat dir "need.gaea")
             In_channel.input_all)));
  let module E = Gaea_core.Gaea_error in
  (match Session.run_string session "DERIVE normalized NEED 5" with
   | Error (E.Context (_, E.Not_derivable _) as e) ->
     check_str "the error"
       "DERIVE normalized: normalize: no valid binding found (remaining \
        candidates already used)"
       (E.to_string e)
   | _ -> Alcotest.fail "expected Not_derivable");
  Alcotest.(check (list int)) "the fourth scene fired" [ 5; 6; 7; 8 ]
    (Kernel.objects_of_class (Session.kernel session) "normalized")

(* A two-stage chain over two scenes: normalize has fired on the one
   stored mid, so NEED 2 derives a new mid from scene 2 and normalizes
   it.  The planner used to count the fired mid as available and fail. *)
let test_need_past_a_fired_stage () =
  let session = Session.create () in
  let stage name ~input ~output =
    Printf.sprintf
      "DEFINE PROCESS %s OUTPUT %s ARGS ( x %s ) MAP data = img_scale(0.5, \
       x.data) MAP spatialextent = x.spatialextent MAP timestamp = \
       x.timestamp END;"
      name output input
  in
  let scene seed =
    Printf.sprintf
      "INSERT INTO scene ( data = synth_rainfall(%d, 4, 4), spatialextent = \
       BOX(0, 0, 1, 1), timestamp = DATE '1988-06-0%d' );"
      seed seed
  in
  ignore
    (ok
       (Session.run_string session
          (String.concat "\n"
             [ "DEFINE CLASS scene ( data image, spatialextent box, timestamp abstime );";
               "DEFINE CLASS mid ( data image, spatialextent box, timestamp abstime );";
               "DEFINE CLASS normalized ( data image, spatialextent box, timestamp abstime );";
               stage "to_mid" ~input:"scene" ~output:"mid";
               stage "normalize" ~input:"mid" ~output:"normalized";
               scene 1; scene 2; "DERIVE normalized;" ])));
  let k = Session.kernel session in
  check_str "NEED 2"
    "objects: [4, 6]\nfired to_mid v1 (task #3)\nfired normalize v1 (task #4)"
    (Session.run_string_collect session "DERIVE normalized NEED 2");
  Alcotest.(check (list int)) "derived from scene 2" [ 2 ]
    (Lineage.base_inputs k 6)

(* pipeline.gaea, then a second scene: NEED 2 derives wet_mask from the
   new scene through wetness's steps (normalize, then threshold); the
   one stored normalized object has fired threshold already *)
let test_pipeline_need_past_a_fired_stage () =
  let dir = List.find Sys.file_exists [ "../examples"; "examples" ] in
  let session = Session.create () in
  ignore
    (ok
       (Session.run_string session
          (In_channel.with_open_bin (Filename.concat dir "pipeline.gaea")
             In_channel.input_all)));
  ignore
    (ok
       (Session.run_string session
          "INSERT INTO scene ( data = synth_rainfall(8, 16, 16), \
           spatialextent = BOX(0, 0, 10, 10), timestamp = DATE '1988-07-01' )"));
  let k = Session.kernel session in
  (match Derivation.request k ~need:2 "wet_mask" with
   | Ok r ->
     Alcotest.(check (list int)) "wet_mask 3 and a new one" [ 3; 6 ]
       r.Derivation.objects;
     Alcotest.(check (list string)) "wetness's steps" [ "normalize"; "threshold" ]
       (List.map (fun (t : Task.t) -> t.Task.process) r.Derivation.new_tasks)
   | Error e -> Alcotest.fail (Gaea_core.Gaea_error.to_string e));
  Alcotest.(check (list int)) "derived from the new scene" [ 4 ]
    (Lineage.base_inputs k 6)

(* inserting an image of [dims] is a typed error that [says] why, and
   stores nothing *)
let rejects_image ~dims ~says () =
  let session = Session.create () in
  ignore (ok (Session.run_string session "DEFINE CLASS s (d image)"));
  (match
     Session.run_string session
       (Printf.sprintf "INSERT INTO s ( d = synth_rainfall(1, %s) )" dims)
   with
   | Error e ->
     check_bool says true (contains (Gaea_core.Gaea_error.to_string e) says)
   | Ok _ -> Alcotest.fail "expected an error");
  check_bool "nothing stored" true
    (contains (Session.run_string_collect session "SELECT * FROM s") "(0 row(s))")

(* NEED counts objects: zero or fewer is a parse error, not an empty
   retrieval *)
(* Each source fails to parse, with a message containing [says]. *)
let rejects_parse ~says srcs () =
  let module E = Gaea_core.Gaea_error in
  List.iter
    (fun src ->
      match Parser.parse_one src with
      | Error (E.Parse_error m) -> check_bool (src ^ ": says why") true (contains m says)
      | Error e -> Alcotest.failf "%s: wrong error %s" src (E.to_string e)
      | Ok _ -> Alcotest.failf "%s: accepted" src)
    srcs

let test_need_below_one =
  rejects_parse ~says:"NEED needs a positive count"
    [ "DERIVE scene NEED -3"; "DERIVE scene NEED 0" ]

(* LIMIT 0 stays valid (see [limit 0]); a negative count used to read
   as LIMIT 0 *)
let test_limit_below_zero =
  rejects_parse ~says:"LIMIT needs a count of at least 0"
    [ "SELECT * FROM scene LIMIT -1"; "SELECT * FROM scene ORDER BY n LIMIT -7" ]

(* AT takes a DATE literal and OVERLAPS a BOX; any other literal used to
   parse and then match no row *)
let test_at_overlaps_literal_kind () =
  rejects_parse ~says:"expected DATE"
    [ "SELECT * FROM scene WHERE timestamp AT '1990-01-01'";
      "SELECT * FROM scene WHERE timestamp AT 19900101";
      "DERIVE scene AT '1990-01-01'" ]
    ();
  rejects_parse ~says:"expected BOX"
    [ "SELECT * FROM scene WHERE spatialextent OVERLAPS 3";
      "SELECT * FROM scene WHERE spatialextent OVERLAPS DATE '1990-01-01'" ]
    ()

(* common(arg.attr) acts on the extent it names: [acquired] is the
   temporal extent, so scenes from different days fail the guard even
   though their boxes agree; an attribute that is no extent is a lint
   error and fails every binding. *)
let test_common_checks_named_extent () =
  let session = Session.create () in
  let run src = Session.run_string_collect session src in
  ignore
    (ok
       (Session.run_string session
          "DEFINE CLASS scene ( data image, region box, acquired abstime ) \
           SPATIAL region TEMPORAL acquired; \
           DEFINE CLASS pair ( data image, region box, acquired abstime ) \
           SPATIAL region TEMPORAL acquired; \
           DEFINE PROCESS mk OUTPUT pair ARGS ( s SETOF scene CARD 2 ) \
           ASSERT common(s.acquired) \
           MAP data = ANYOF s.data MAP region = ANYOF s.region \
           MAP acquired = ANYOF s.acquired END; \
           INSERT INTO scene (data = synth_band(1, 4, 4), \
           region = BOX(0, 0, 1, 1), acquired = DATE '1990-01-01'); \
           INSERT INTO scene (data = synth_band(2, 4, 4), \
           region = BOX(0, 0, 1, 1), acquired = DATE '1995-06-01')"));
  check_bool "printed as written" true
    (contains (run "SHOW VERSIONS OF mk") "common(s.acquired)");
  check_bool "lints clean" true
    (contains (run "CHECK PROCESS mk") "0 error(s)");
  check_bool "different days do not derive" true
    (Result.is_error (Session.run_string session "DERIVE pair"));
  ignore
    (ok
       (Session.run_string session
          "DELETE FROM scene 2; \
           INSERT INTO scene (data = synth_band(3, 4, 4), \
           region = BOX(0, 0, 1, 1), acquired = DATE '1990-01-01')"));
  check_bool "same day derives" true
    (contains (run "DERIVE pair") "fired mk v1");
  ignore
    (ok
       (Session.run_string session
          "DEFINE PROCESS mk OUTPUT pair ARGS ( s SETOF scene CARD 2 ) \
           ASSERT common(s.data) \
           MAP data = ANYOF s.data MAP region = ANYOF s.region \
           MAP acquired = ANYOF s.acquired END"));
  check_bool "no extent: GA009" true
    (contains (run "CHECK PROCESS mk") "GA009");
  check_bool "no extent: the guard fails" true
    (Result.is_error (Session.run_string session "DERIVE pair NEED 2"))

(* an identifier spelled like a keyword keeps its spelling: [count]
   used to become the attribute COUNT *)
let test_keyword_as_name () =
  let session = Session.create () in
  let out =
    Session.run_string_collect session
      "DEFINE CLASS src ( count int, data image ); SHOW CLASSES; \
       INSERT INTO src ( count = 3, data = synth_rainfall(1, 4, 4) ); \
       SELECT count FROM src"
  in
  check_bool "attribute as written" true (contains out "count = int;");
  check_bool "column as written" true (contains out "oid | count");
  check_bool "not upper-cased" false (contains out "COUNT")

(* CARD bounds a SETOF argument; on a scalar one it used to be dropped *)
let test_card_needs_setof =
  rejects_parse ~says:"CARD on argument a needs SETOF"
    [ "DEFINE PROCESS p OUTPUT dst ARGS ( a src CARD 5 ) MAP data = a.data END";
      "DEFINE PROCESS p OUTPUT dst ARGS ( b src, a src CARD 1..2 ) \
       MAP data = a.data END" ]

(* The net names a transition by its process, and the latest version is
   the one behind it: redefining a process drops the memoized net. *)
let test_net_follows_latest_versions () =
  let session = Session.create () in
  let out =
    Session.run_string_collect session
      "DEFINE CLASS scene ( data image ); DEFINE CLASS other ( data image ); \
       DEFINE CLASS normalized ( data image ); \
       INSERT INTO scene ( data = synth_rainfall(1, 4, 4) ); \
       DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) \
       MAP data = img_scale(0.5, s.data) END; \
       DEFINE PROCESS fromother OUTPUT normalized ARGS ( o other ) \
       MAP data = o.data END; \
       DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) \
       MAP data = img_scale(0.25, s.data) END; \
       DEFINE PROCESS fromother OUTPUT normalized ARGS ( o other ) \
       MAP data = img_scale(2.0, o.data) END; \
       SHOW PLAN normalized; CHECK ALL"
  in
  check_bool "plan fires v2" true (contains out "fire normalize v2");
  check_bool "GA027 names v2" true
    (contains out "info[GA027] process fromother v2:")

(* REFRESH recomputes an interpolated object as VERIFY does: it used to
   skip it as "process interpolate not in registry" *)
let test_refresh_interpolated () =
  let session = Session.create () in
  let normalize factor =
    Printf.sprintf
      "DEFINE PROCESS normalize OUTPUT normalized ARGS ( s scene ) \
       MAP data = img_scale(%s, s.data) MAP spatialextent = s.spatialextent \
       MAP timestamp = s.timestamp END;"
      factor
  in
  let scene seed day =
    Printf.sprintf
      "INSERT INTO scene ( data = synth_rainfall(%d, 8, 8), \
       spatialextent = BOX(0, 0, 10, 10), timestamp = DATE '1988-06-%s' );"
      seed day
  in
  let out =
    Session.run_string_collect session
      (String.concat " "
         [ "DEFINE CLASS scene ( data image, spatialextent box, timestamp abstime );";
           "DEFINE CLASS normalized ( data image, spatialextent box, timestamp abstime );";
           scene 1 "01"; scene 2 "05"; normalize "0.5";
           "DERIVE normalized NEED 2;";
           "DERIVE normalized AT DATE '1988-06-03';";
           normalize "0.25"; "REFRESH ALL; VERIFY 5" ])
  in
  check_bool "object 5 interpolated" true
    (contains out "interpolated object 5 of normalized");
  check_bool "all three refreshed" true
    (contains out "refreshed 3 object(s) (3 task(s)), 0 left stale");
  check_bool "VERIFY reproduces" true
    (contains out "object 5 reproduces exactly")

let never_raises session src =
  match Session.run_string session src with
  | Ok _ | Error _ -> true

(* replace, insert or delete single bytes at random positions *)
let mutated_script_gen =
  QCheck.Gen.(
    let* script = oneofl (Lazy.force example_scripts) in
    let* edits =
      list_size (int_range 1 4) (triple (int_range 0 2) nat char)
    in
    return
      (List.fold_left
         (fun s (kind, pos, c) ->
           let n = String.length s in
           let i = if n = 0 then 0 else pos mod n in
           let before = String.sub s 0 i in
           match kind with
           | 0 when n > 0 ->
             before ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
           | 1 -> before ^ String.make 1 c ^ String.sub s i (n - i)
           | _ when n > 0 -> before ^ String.sub s (i + 1) (n - i - 1)
           | _ -> s)
         script edits))

let prop_mutated_examples =
  QCheck.Test.make ~name:"byte-mutated example scripts never raise" ~count:300
    (QCheck.make ~print:Fun.id mutated_script_gen)
    (fun src -> never_raises (Session.create ()) src)

(* The DERIVE reply is sized exactly and written once; the text is the
   one String.concat of string_of_int wrote, for any int: every digit
   count's first and last value, max_int, negatives (min_int too), and
   no objects at all. *)
let prop_derive_reply_text =
  let module D = Gaea_core.Derivation in
  let edges =
    let rec powers k p acc =
      if k > 18 then acc else powers (k + 1) (p * 10) ((p - 1) :: p :: acc)
    in
    max_int :: min_int :: powers 1 10 []
  in
  let oid =
    QCheck.Gen.(
      oneof
        [ return 0; int_range 1 9; int_range 10 99_999;
          int_range 1_000_000_000 max_int; oneofl edges;
          map (fun e -> -e) (oneofl edges); int_range min_int (-1) ])
  in
  let objects =
    QCheck.Gen.(frequency [ (1, return []); (1, return edges); (8, list oid) ])
  in
  let step =
    QCheck.Gen.(
      oneof
        [ map2 (fun v id -> D.Fired ("p", v, id)) small_nat oid;
          map (fun o -> D.Interpolated ("c", o)) oid;
          map (fun os -> D.Retrieved_direct ("c", os)) (small_list oid) ])
  in
  QCheck.Test.make ~name:"the DERIVE reply text is unchanged" ~count:500
    (QCheck.make
       ~print:(fun (os, _) -> String.concat ", " (List.map string_of_int os))
       QCheck.Gen.(pair objects (small_list step)))
    (fun (objects, trace) ->
      let line = function
        | D.Retrieved_direct (cls, oids) ->
          Printf.sprintf "retrieved %d stored object(s) of %s"
            (List.length oids) cls
        | D.Interpolated (cls, oid) ->
          Printf.sprintf "interpolated object %d of %s" oid cls
        | D.Fired (p, v, id) ->
          Printf.sprintf "fired %s v%d (task #%d)" p v id
      in
      Executor.outcome_message { D.objects; new_tasks = []; trace }
      = Printf.sprintf "objects: [%s]\n%s"
          (String.concat ", " (List.map string_of_int objects))
          (String.concat "\n" (List.map line trace)))

(* two member classes of one concept, B-trees on an int and a float
   attribute besides the temporal one *)
let select_fuzz_session =
  lazy
    (let session = Session.create () in
     let row cls band =
       Printf.sprintf
         "INSERT INTO %s (band = %d, level = %d.5, label = 'r%d', data = \
          synth_rainfall(%d, 2, 2), spatialextent = BOX(%d, 0, %d, 1), \
          timestamp = DATE '1986-0%d-01')"
         cls band band band band band (band + 1) (1 + (band mod 9))
     in
     let _ =
       ok
         (Session.run_string session
            (String.concat ";\n"
               ([ "DEFINE CLASS scene (band int, level float, label string, \
                   data image, spatialextent box, timestamp abstime)";
                  "DEFINE CLASS extra (band int, level float, label string, \
                   data image, spatialextent box, timestamp abstime)";
                  "DEFINE CONCEPT scenes MEMBERS (scene, extra)" ]
               @ List.init 6 (row "scene")
               @ List.init 3 (row "extra"))))
     in
     let tab = Option.get (Kernel.class_table (Session.kernel session) "scene") in
     Result.get_ok (Table.create_btree_index tab "band");
     Result.get_ok (Table.create_btree_index tab "level");
     session)

(* SELECT token sequences: mostly well-formed, with literals of every
   type against every attribute, then one token dropped, repeated or
   replaced *)
let select_tokens_gen =
  QCheck.Gen.(
    let attr =
      oneofl [ "band"; "level"; "label"; "data"; "spatialextent"; "timestamp"; "nosuch" ]
    in
    let literal =
      oneofl
        [ "0"; "1"; "3"; "-1"; "2.5"; "-0.0"; "1e308"; "4611686018427387903";
          "99999999999999999999"; "'r2'"; "''"; "TRUE"; "DATE '1986-03-01'";
          "DATE '1986-02-30'"; "DATE 'x'"; "BOX(0, 0, 2, 2)"; "BOX(2, 2, 0, 0)";
          "BOX(0, 0)" ]
    in
    let pred =
      oneof
        [ map3 (fun a op l -> [ a; op; l ]) attr
            (oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ]) literal;
          map2 (fun a l -> [ a; "AT"; l ]) attr literal;
          map2 (fun a l -> [ a; "OVERLAPS"; l ]) attr literal ]
    in
    let* projection =
      oneofl [ [ "*" ]; [ "band" ]; [ "band"; ","; "timestamp" ]; [ "nosuch" ]; [] ]
    in
    let* source = oneofl [ "scene"; "extra"; "scenes"; "nosuch" ] in
    let* preds = list_size (int_range 0 3) pred in
    let* order =
      oneof
        [ return [];
          map2 (fun a d -> [ "ORDER"; "BY"; a ] @ d) attr
            (oneofl [ []; [ "ASC" ]; [ "DESC" ] ]) ]
    in
    let* limit =
      oneof
        [ return [];
          map
            (fun n -> [ "LIMIT"; n ])
            (oneofl
               [ "0"; "1"; "4"; "-1"; "-5"; "4611686018427387903";
                 "99999999999999999999"; "2.5"; "'x'" ]) ]
    in
    let where_ =
      match preds with
      | [] -> []
      | p :: ps -> ("WHERE" :: p) @ List.concat_map (fun p -> "AND" :: p) ps
    in
    let tokens = ("SELECT" :: projection) @ [ "FROM"; source ] @ where_ @ order @ limit in
    let n = List.length tokens in
    let* edit = int_range 0 3 in
    let* at = int_bound (n - 1) in
    let* other = oneofl ("WHERE" :: "AND" :: "LIMIT" :: "BY" :: ";" :: "(" :: tokens) in
    return
      (String.concat " "
         (List.concat
            (List.mapi
               (fun i tok ->
                 if i <> at then [ tok ]
                 else
                   match edit with
                   | 0 -> [ tok ]
                   | 1 -> []
                   | 2 -> [ tok; tok ]
                   | _ -> [ other ])
               tokens))))

(* The same SELECTs against two kernels holding the same rows: one
   class with the window index on [spatialextent], one whose extents
   are the [decoy]s, so every SELECT on it scans.  AT never comes first,
   so the indexed class always probes its window (AT first is
   [test_optimizer_at_and_overlaps]). *)
type scene_op =
  | S_insert of Box.t * int  (* the day of January 1990 *)
  | S_update of int * Box.t
  | S_delete of int

let window_box_gen =
  QCheck.Gen.(
    let coord =
      frequency
        [ (4, map float_of_int (int_range (-8) 8));
          (2, map (fun i -> float_of_int i +. 0.5) (int_range (-8) 8)) ]
    in
    frequency
      [ (6, map2
          (fun (x1, y1) (x2, y2) ->
            Box.make ~xmin:(Float.min x1 x2) ~ymin:(Float.min y1 y2)
              ~xmax:(Float.max x1 x2) ~ymax:(Float.max y1 y2))
          (pair coord coord) (pair coord coord));
        (2, map2 (fun x y -> Box.make ~xmin:x ~ymin:y ~xmax:x ~ymax:y) coord coord);
        (1, return (Box.make ~xmin:(-1e300) ~ymin:(-1e300) ~xmax:1e300 ~ymax:1e300)) ])

let window_case_gen =
  QCheck.Gen.(
    let op =
      frequency
        [ (5, map2 (fun b d -> S_insert (b, d)) window_box_gen (int_range 1 6));
          (2, map2 (fun i b -> S_update (i, b)) nat window_box_gen);
          (2, map (fun i -> S_delete i) nat) ]
    in
    let select =
      let* w = window_box_gen in
      let window =
        Ast.P_overlaps ("spatialextent", w)
      in
      let* extra =
        oneof
          [ return [];
            map
              (fun n -> [ Ast.P_compare ("n", Ast.C_ge, Value.int n) ])
              (int_range 0 20);
            map
              (fun d -> [ Ast.P_at ("timestamp", Abstime.of_ymd 1990 1 d) ])
              (int_range 1 6) ]
      in
      let* extra_first =
        match extra with [ Ast.P_compare _ ] -> bool | _ -> return false
      in
      let* projection = oneofl [ []; [ "n" ]; [ "n"; "spatialextent" ] ] in
      let* order_by =
        oneofl
          [ None; Some ("timestamp", Ast.Asc); Some ("timestamp", Ast.Desc);
            Some ("n", Ast.Desc) ]
      in
      let* limit = oneof [ return None; map Option.some (int_range 0 5) ] in
      return
        { Ast.projection;
          source = "scene";
          where_ = (if extra_first then extra @ [ window ] else window :: extra);
          order_by;
          limit }
    in
    pair (list_size (int_range 0 40) op) (list_size (int_range 1 6) select))

let prop_window_select_matches_scan =
  QCheck.Test.make ~name:"OVERLAPS through the window index = through a scan"
    ~count:200
    (QCheck.make window_case_gen)
    (fun (ops, selects) ->
      let session extents =
        let s = Session.create () in
        let _ =
          ok
            (Session.run_string s
               ("DEFINE CLASS scene (n int, spatialextent box, timestamp \
                 abstime, decoy box, decoy_t abstime)" ^ extents))
        in
        s
      in
      let indexed = session ""
      and scanned = session " SPATIAL decoy TEMPORAL decoy_t" in
      let kernels = [ Session.kernel indexed; Session.kernel scanned ] in
      let nth k i =
        match Kernel.objects_of_class k "scene" with
        | [] -> None
        | oids -> Some (List.nth oids (i mod List.length oids))
      in
      List.iteri
        (fun n op ->
          List.iter
            (fun k ->
              match op with
              | S_insert (b, day) ->
                ignore
                  (ok
                     (Kernel.insert_object k ~cls:"scene"
                        [ ("n", Value.int n); ("spatialextent", Value.box b);
                          ("timestamp", Value.abstime (Abstime.of_ymd 1990 1 day));
                          ("decoy", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:0. ~ymax:0.));
                          ("decoy_t", Value.abstime (Abstime.of_ymd 1990 1 1)) ]))
              | S_update (i, b) ->
                Option.iter
                  (fun oid ->
                    ok
                      (Kernel.update_object k ~cls:"scene" oid
                         [ ("spatialextent", Value.box b) ]))
                  (nth k i)
              | S_delete i ->
                Option.iter
                  (fun oid -> ok (Kernel.delete_object k ~cls:"scene" oid))
                  (nth k i))
            kernels)
        ops;
      List.for_all
        (fun (select : Ast.select) ->
          let path s =
            (ok (Optimizer.plan_select (Session.kernel s) select)).Plan.path
          in
          let rows s =
            match Executor.execute (Session.executor s) (Ast.Select select) with
            | Ok (Executor.Rows { rows; _ }) -> rows
            | _ -> QCheck.Test.fail_report "expected rows"
          in
          let probes attr = function
            | Plan.Index_range (a, _, _) -> a = attr
            | _ -> false
          in
          let show_path s = Format.asprintf "%a" Plan.pp_access_path (path s) in
          let show_rows s =
            String.concat " " (List.map (fun (oid, _) -> string_of_int oid) (rows s))
          in
          (probes "spatialextent" (path indexed)
           && path scanned = Plan.Full_scan
           && rows indexed = rows scanned)
          || QCheck.Test.fail_reportf "paths %s / %s, rows [%s] / [%s]"
               (show_path indexed) (show_path scanned) (show_rows indexed)
               (show_rows scanned))
        selects)

(* The same SELECTs against two kernels holding the same rows: one
   class with B-trees on an int ([n]), a float ([level]) and an abstime
   ([timestamp], its temporal extent), one whose temporal extent is a
   decoy and that has no other B-tree, so every SELECT on it scans.
   The index path delivers rows in key order, then by OID, where the
   scan delivers heap order; so the scan's rows, sorted the same way
   and then by the ORDER BY, cut by the LIMIT, must be the index path's
   rows in the same order. *)
type btree_op =
  | B_insert of int * float * int  (* n, level, day of January 1990 *)
  | B_update of int * int * int  (* a live row, which attribute, value *)
  | B_delete of int

let level_gen = QCheck.Gen.oneofl [ -1.5; -0.; 0.; 0.5; 1.; 2.5; 3. ]

let btree_case_gen =
  QCheck.Gen.(
    let op =
      frequency
        [ (5, map3 (fun n l d -> B_insert (n, l, d)) (int_range (-3) 3) level_gen
                (int_range 1 6));
          (2, map3 (fun i a v -> B_update (i, a, v)) nat (int_bound 2)
                (int_range (-3) 6));
          (2, map (fun i -> B_delete i) nat) ]
    in
    let literal = function
      | "n" ->
        oneof
          [ map Value.int (int_range (-4) 4);
            map (fun i -> Value.float (float_of_int i +. 0.5)) (int_range (-4) 3) ]
      | "level" ->
        oneof [ map Value.float level_gen; map Value.int (int_range (-2) 3) ]
      | _ -> map (fun d -> Value.abstime (Abstime.of_ymd 1990 1 d)) (int_range 1 8)
    in
    let pred =
      oneof
        [ map (fun d -> Ast.P_at ("timestamp", Abstime.of_ymd 1990 1 d))
            (int_range 1 6);
          (let* attr = oneofl [ "n"; "level"; "timestamp" ] in
           let* cmp =
             oneofl [ Ast.C_eq; Ast.C_lt; Ast.C_le; Ast.C_gt; Ast.C_ge ]
           in
           map (fun v -> Ast.P_compare (attr, cmp, v)) (literal attr)) ]
    in
    let select =
      let* where_ = list_size (int_range 1 2) pred in
      let* projection = oneofl [ []; [ "n" ]; [ "level"; "timestamp" ] ] in
      let* order_by =
        oneof
          [ return None;
            map2
              (fun a d -> Some (a, d))
              (oneofl [ "n"; "level"; "timestamp"; "oid" ])
              (oneofl [ Ast.Asc; Ast.Desc ]) ]
      in
      let* limit = oneof [ return None; map Option.some (int_range 0 5) ] in
      return { Ast.projection; source = "rows"; where_; order_by; limit }
    in
    pair (list_size (int_range 0 40) op) (list_size (int_range 1 6) select))

let prop_btree_select_matches_scan =
  QCheck.Test.make ~name:"B-tree path = scan" ~count:200
    (QCheck.make btree_case_gen)
    (fun (ops, selects) ->
      let session extents =
        let s = Session.create () in
        let _ =
          ok
            (Session.run_string s
               ("DEFINE CLASS rows (n int, level float, timestamp abstime, \
                 decoy_t abstime)" ^ extents))
        in
        s
      in
      let indexed = session ""
      and scanned = session " TEMPORAL decoy_t" in
      let tab =
        Option.get (Kernel.class_table (Session.kernel indexed) "rows")
      in
      Result.get_ok (Table.create_btree_index tab "n");
      Result.get_ok (Table.create_btree_index tab "level");
      let kernels = [ Session.kernel indexed; Session.kernel scanned ] in
      let nth k i =
        match Kernel.objects_of_class k "rows" with
        | [] -> None
        | oids -> Some (List.nth oids (i mod List.length oids))
      in
      let day d = Value.abstime (Abstime.of_ymd 1990 1 d) in
      List.iter
        (fun op ->
          List.iter
            (fun k ->
              match op with
              | B_insert (n, level, d) ->
                ignore
                  (ok
                     (Kernel.insert_object k ~cls:"rows"
                        [ ("n", Value.int n); ("level", Value.float level);
                          ("timestamp", day d); ("decoy_t", day 1) ]))
              | B_update (i, attr, v) ->
                let change =
                  match attr with
                  | 0 -> ("n", Value.int v)
                  | 1 -> ("level", Value.float (float_of_int v /. 2.))
                  | _ -> ("timestamp", day (1 + abs v))
                in
                Option.iter
                  (fun oid ->
                    ok (Kernel.update_object k ~cls:"rows" oid [ change ]))
                  (nth k i)
              | B_delete i ->
                Option.iter
                  (fun oid -> ok (Kernel.delete_object k ~cls:"rows" oid))
                  (nth k i))
            kernels)
        ops;
      List.for_all
        (fun (select : Ast.select) ->
          let path s =
            (ok (Optimizer.plan_select (Session.kernel s) select)).Plan.path
          in
          let rows s (select : Ast.select) =
            match Executor.execute (Session.executor s) (Ast.Select select) with
            | Ok (Executor.Rows { rows; _ }) -> rows
            | _ -> QCheck.Test.fail_report "expected rows"
          in
          let probed =
            match path indexed with
            | Plan.Index_eq (a, _) | Plan.Index_range (a, _, _) -> Some a
            | Plan.Full_scan -> None
          in
          let got = rows indexed select in
          let all = { select with Ast.order_by = None; limit = None } in
          let stored = rows scanned { all with Ast.projection = [] } in
          let value attr (oid, _) =
            if attr = "oid" then Value.int oid
            else List.assoc attr (List.assoc oid stored)
          in
          let by attr a b =
            Gaea_storage.Vorder.compare_exn (value attr a) (value attr b)
          in
          let expected =
            match probed with
            | None -> []
            | Some attr ->
              let in_key_order =
                List.stable_sort
                  (fun a b ->
                    match by attr a b with
                    | 0 -> Int.compare (fst a) (fst b)
                    | c -> c)
                  (rows scanned all)
              in
              let ordered =
                match select.Ast.order_by with
                | None -> in_key_order
                | Some (attr, dir) ->
                  List.stable_sort
                    (fun a b ->
                      match dir with
                      | Ast.Asc -> by attr a b
                      | Ast.Desc -> -by attr a b)
                    in_key_order
              in
              List.filteri
                (fun i _ -> i < Option.value select.Ast.limit ~default:max_int)
                ordered
          in
          let show rows =
            String.concat " " (List.map (fun (oid, _) -> string_of_int oid) rows)
          in
          (probed <> None && path scanned = Plan.Full_scan && got = expected)
          || QCheck.Test.fail_reportf "paths %s / %s, rows [%s], expected [%s]"
               (Format.asprintf "%a" Plan.pp_access_path (path indexed))
               (Format.asprintf "%a" Plan.pp_access_path (path scanned))
               (show got) (show expected))
        selects)

let prop_select_tokens =
  QCheck.Test.make ~name:"random SELECT token sequences never raise" ~count:1000
    (QCheck.make ~print:Fun.id select_tokens_gen)
    (fun src -> never_raises (Lazy.force select_fuzz_session) src)

(* ------------------------------------------------------------------ *)
(* One-pass parser against the token-list front end (Parse_oracle)     *)
(* ------------------------------------------------------------------ *)

(* the same AST, floats compared by their bits, or the same error text *)
let same_parse a b =
  let bytes ast = Marshal.to_string ast [ Marshal.No_sharing ] in
  match a, b with
  | Ok x, Ok y -> String.equal (bytes x) (bytes y)
  | Error e, Error f ->
    String.equal (Gaea_core.Gaea_error.to_string e) (Gaea_core.Gaea_error.to_string f)
  | _ -> false

let parse_report = function
  | Ok stmts -> String.concat "; " (List.map Ast.statement_to_string stmts)
  | Error e -> "error: " ^ Gaea_core.Gaea_error.to_string e

let test_parse_examples_match_oracle () =
  List.iter
    (fun src ->
      let got = Parser.parse src in
      check_bool "an example parses" true (Result.is_ok got);
      check_bool "the oracle's AST" true (same_parse got (Parse_oracle.Parser.parse src)))
    (Lazy.force example_scripts)

(* a lex error anywhere in a script beats an earlier syntax error, and
   nothing of the script runs *)
let test_parse_lex_error_wins () =
  let lex_error = "parse error: unexpected character '@'" in
  List.iter
    (fun src ->
      check_bool src true (same_parse (Parser.parse src) (Parse_oracle.Parser.parse src));
      let session = Session.create () in
      (match Session.run_string_partial session src with
       | [], Some e -> check_str src lex_error (Gaea_core.Gaea_error.to_string e)
       | _ -> Alcotest.failf "%S ran or parsed" src);
      check_bool "no class defined" true
        (Option.is_none (Kernel.find_class (Session.kernel session) "c")))
    [ "SELECT FROM c; DEFINE CLASS c (a int); SHOW @";
      "DEFINE CLASS c (a int); SELECT FROM c; SHOW @ CLASSES" ]

(* literals at the lexer's edges: ints around max_int and min_int and
   past them, floats with exponents and many digits, half-written
   numbers, comments, quoted strings, and DATE strings in canonical,
   padded, short, timed and invalid forms, placed where a statement
   takes a literal *)
let literal_gen =
  QCheck.Gen.(
    let digits n = string_size ~gen:numeral (return n) in
    let sign = oneofl [ ""; "-" ] in
    let near_bound =
      map2 (fun s d -> s ^ "461168601842738790" ^ string_of_int d) sign (int_bound 9)
    in
    let long_int =
      map3 (fun s z d -> s ^ z ^ d) sign (oneofl [ ""; "0"; "00" ])
        (int_range 1 21 >>= digits)
    in
    let float_lit =
      let* s = sign in
      let* whole = int_range 1 19 >>= digits in
      let* frac = oneof [ return ""; map (( ^ ) ".") (int_range 1 19 >>= digits) ] in
      let* exp =
        oneof
          [ return "";
            map3
              (fun e s d -> e ^ s ^ d)
              (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ])
              (int_range 0 4 >>= digits) ]
      in
      return (s ^ whole ^ frac ^ exp)
    in
    (* where the exact product or quotient stops being exact: 2^53,
       10^22 *)
    let float_edge =
      map3
        (fun m e k -> m ^ e ^ string_of_int k)
        (int_range 15 17 >>= digits) (oneofl [ "e"; "e-"; ".5e" ]) (int_range 18 26)
    in
    let fixed =
      oneofl
        [ "2."; "1e"; "1e+"; "-"; "--"; "-- a comment\n"; "0"; "-0"; "-0.0";
          "1e308"; "1e309"; "4.9e-324"; "9007199254740993"; "0.1"; "'a b'";
          "''"; "\"q\""; "'open"; "$p"; "$"; string_of_int max_int;
          string_of_int min_int; "DATE '1990-02-30'"; "DATE '1990-1-5'";
          "DATE ' 1990-01-05 '"; "DATE '+990-01-05'"; "DATE '1990-01-0x'" ]
    in
    let date =
      let* y = int_range 0 2100 in
      let* m = int_range 0 13 in
      let* d = int_range 0 32 in
      let* h = int_range 0 25 in
      let* body =
        oneofl
          [ Printf.sprintf "%04d-%02d-%02d" y m d;
            Printf.sprintf "  %04d-%02d-%02d " y m d;
            Printf.sprintf "%d-%d-%d" y m d;
            Printf.sprintf "%04d-%02d-%02dT%02d:00:30" y m d h;
            Printf.sprintf "%04d-%02d-%02d %02d:15:00" y m d h ]
      in
      return ("DATE '" ^ body ^ "'")
    in
    let literal =
      frequency
        [ (3, near_bound); (2, long_int); (4, float_lit); (2, float_edge);
          (3, fixed); (4, date) ]
    in
    let* a = literal and* b = literal in
    oneofl
      [ Printf.sprintf "SELECT * FROM t WHERE x = %s" a;
        Printf.sprintf "SELECT * FROM t WHERE x AT %s LIMIT %s" a b;
        Printf.sprintf "INSERT INTO c (a = %s, b = %s);" a b;
        Printf.sprintf "INSERT INTO c (b = BOX(%s, 0, 1, %s))" a b;
        Printf.sprintf "DERIVE c AT %s NEED %s" a b;
        Printf.sprintf "%s %s" a b ])

let prop_parse_matches_oracle =
  QCheck.Test.make ~name:"one-pass parse = the token-list front end" ~count:1500
    (QCheck.make ~print:Fun.id
       (QCheck.Gen.frequency
          [ (1, mutated_script_gen); (2, select_tokens_gen); (3, literal_gen) ]))
    (fun src ->
      let got = Parser.parse src and expected = Parse_oracle.Parser.parse src in
      same_parse got expected
      || QCheck.Test.fail_reportf "parsed to %s, the oracle to %s" (parse_report got)
           (parse_report expected))

let () =
  Alcotest.run "query"
    [ ( "lexer",
        [ tc "basics" test_lexer_basics;
          tc "comments/params" test_lexer_comments_and_params;
          tc "errors" test_lexer_errors;
          tc "error messages" test_lexer_error_messages;
          tc "end of input" test_lexer_end_of_input;
          tc "keywords in any case" test_lexer_keywords;
          QCheck_alcotest.to_alcotest prop_lexer_keyword_oracle ] );
      ( "parser",
        [ tc "define class" test_parse_define_class;
          tc "define process" test_parse_define_process;
          tc "select" test_parse_select;
          tc "misc statements" test_parse_misc_statements;
          tc "scripts and errors" test_parse_script_and_errors;
          tc "examples parse to the oracle's AST" test_parse_examples_match_oracle;
          tc "a later lex error beats an earlier syntax error"
            test_parse_lex_error_wins;
          QCheck_alcotest.to_alcotest prop_parse_matches_oracle ] );
      ( "optimizer",
        [ tc "access paths" test_optimizer_access_paths;
          tc "materialize" test_optimizer_materialize;
          tc "selectivity from the B-tree" test_optimizer_selectivity_from_btree;
          tc "temporal index survives save/load" test_optimizer_index_survives_reload;
          tc "OVERLAPS probes the window index, also after save/load"
            test_optimizer_window_path;
          tc "AT and OVERLAPS together" test_optimizer_at_and_overlaps ] );
      ( "executor",
        [ tc "select filters" test_executor_select_filters;
          tc "limit is a prefix" test_executor_limit_is_prefix;
          tc "limit after order by" test_executor_limit_after_order_by;
          tc "limit 0" test_executor_limit_zero;
          tc "mistyped index probe" test_executor_mistyped_index_probe;
          tc "strict bound on an index" test_executor_strict_bound_on_index;
          tc "derive and verify" test_executor_derive_and_verify;
          tc "concept select" test_executor_concept_select;
          tc "derive concept" test_executor_derive_concept;
          tc "derive concept NEED n" test_executor_derive_concept_need;
          tc "metadata statements" test_executor_metadata_statements;
          tc "lineage and compare" test_executor_lineage_and_compare;
          tc "errors" test_executor_errors;
          tc "select oid" test_executor_select_oid;
          tc "unknown attribute" test_executor_unknown_attribute;
          tc "versions" test_executor_versions;
          tc "need.gaea, then NEED past the scenes"
            test_need_example_past_the_scenes;
          tc "NEED past a fired stage" test_need_past_a_fired_stage;
          tc "pipeline.gaea, then NEED past a fired stage"
            test_pipeline_need_past_a_fired_stage;
          (* 2^32 x 2^32 pixels wrap to 0: an empty pixel array was
             stored under those dims *)
          tc "image dims whose product wraps"
            (rejects_image ~dims:"4294967296, 4294967296"
               ~says:"4294967296x4294967296");
          (* just under Sys.max_array_length pixels: the dims pass, and
             the allocation no host can make used to escape as
             Out_of_memory *)
          tc "image too large to allocate"
            (rejects_image ~dims:"134217728, 134217727" ~says:"out of memory");
          tc "NEED below one" test_need_below_one;
          tc "LIMIT below zero" test_limit_below_zero;
          tc "AT takes a DATE, OVERLAPS a BOX" test_at_overlaps_literal_kind;
          tc "common() checks the extent it names"
            test_common_checks_named_extent;
          tc "a keyword as a name keeps its spelling" test_keyword_as_name;
          tc "CARD needs SETOF" test_card_needs_setof;
          tc "the net follows the latest versions"
            test_net_follows_latest_versions;
          tc "REFRESH recomputes an interpolated object"
            test_refresh_interpolated;
          QCheck_alcotest.to_alcotest prop_derive_reply_text ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mutated_examples; prop_select_tokens ] );
      ( "window",
        [ QCheck_alcotest.to_alcotest prop_window_select_matches_scan;
          QCheck_alcotest.to_alcotest prop_btree_select_matches_scan ] ) ]
