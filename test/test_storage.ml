(* Tests for the storage substrate (the Postgres stand-in): OIDs,
   tuples, heap, indexes, tables, statistics. *)

module Oid = Gaea_storage.Oid
module Tuple = Gaea_storage.Tuple
module Heap = Gaea_storage.Heap
module Index_btree = Gaea_storage.Index_btree
module Table = Gaea_storage.Table
module Stats = Gaea_storage.Stats
module Vorder = Gaea_storage.Vorder
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Oid / Vorder                                                        *)
(* ------------------------------------------------------------------ *)

let test_oid_allocator () =
  let a = Oid.allocator () in
  check_int "first" 1 (Oid.fresh a);
  check_int "second" 2 (Oid.fresh a);
  check_int "current" 2 (Oid.current a);
  Oid.advance_to a 100;
  check_int "after advance" 101 (Oid.fresh a);
  Oid.advance_to a 50;
  (* no going backwards *)
  check_int "monotone" 102 (Oid.fresh a)

let test_vorder () =
  let ok v = Result.get_ok v in
  check_bool "int lt" true (ok (Vorder.compare (Value.int 1) (Value.int 2)) < 0);
  check_bool "int/float mix" true
    (ok (Vorder.compare (Value.int 2) (Value.float 1.5)) > 0);
  check_bool "string" true
    (ok (Vorder.compare (Value.string "a") (Value.string "b")) < 0);
  check_bool "abstime" true
    (ok
       (Vorder.compare
          (Value.abstime (Gaea_geo.Abstime.of_ymd 1986 1 1))
          (Value.abstime (Gaea_geo.Abstime.of_ymd 1989 1 1)))
     < 0);
  check_bool "box unorderable" true
    (Result.is_error
       (Vorder.compare
          (Value.box (Gaea_geo.Box.point 0. 0.))
          (Value.box (Gaea_geo.Box.point 1. 1.))));
  check_bool "cross-type error" true
    (Result.is_error (Vorder.compare (Value.int 1) (Value.string "1")));
  check_bool "orderable predicate" true
    (Vorder.orderable Vtype.Abstime && not (Vorder.orderable Vtype.Image))

(* ------------------------------------------------------------------ *)
(* Tuple                                                               *)
(* ------------------------------------------------------------------ *)

let desc () =
  Result.get_ok
    (Tuple.descriptor
       [ ("name", Vtype.String); ("size", Vtype.Int); ("score", Vtype.Float) ])

let test_tuple_descriptor () =
  check_bool "dup attr" true
    (Result.is_error (Tuple.descriptor [ ("a", Vtype.Int); ("a", Vtype.Int) ]));
  check_bool "empty attrs" true (Result.is_error (Tuple.descriptor []));
  check_bool "empty name" true
    (Result.is_error (Tuple.descriptor [ ("", Vtype.Int) ]));
  let d = desc () in
  check_int "arity" 3 (Tuple.arity d);
  check_bool "attr index" true (Tuple.attr_index d "size" = Some 1);
  check_bool "attr type" true (Tuple.attr_type d "score" = Some Vtype.Float)

let test_tuple_make () =
  let d = desc () in
  (match Tuple.make d [ Value.string "x"; Value.int 5; Value.float 1.5 ] with
   | Ok t ->
     check_bool "get by name" true
       (Tuple.get_by_name t d "size" = Ok (Value.int 5))
   | Error e -> Alcotest.failf "make: %s" e);
  check_bool "arity error" true
    (Result.is_error (Tuple.make d [ Value.string "x" ]));
  check_bool "type error" true
    (Result.is_error
       (Tuple.make d [ Value.int 1; Value.int 5; Value.float 1. ]));
  (* int widens into float attributes *)
  (match Tuple.make d [ Value.string "x"; Value.int 5; Value.int 2 ] with
   | Ok t ->
     check_bool "widened" true
       (Tuple.get_by_name t d "score" = Ok (Value.float 2.))
   | Error e -> Alcotest.failf "widening: %s" e)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let mk_tuple d i =
  Result.get_ok
    (Tuple.make d
       [ Value.string (Printf.sprintf "row%d" i); Value.int i;
         Value.float (float_of_int i) ])

let test_heap () =
  let d = desc () in
  let h = Heap.create () in
  check_int "empty" 0 (Heap.length h);
  List.iter
    (fun i -> Result.get_ok (Heap.insert h i (mk_tuple d i)))
    [ 1; 2; 3; 4; 5 ];
  check_int "five" 5 (Heap.length h);
  check_bool "dup oid" true (Result.is_error (Heap.insert h 3 (mk_tuple d 3)));
  check_bool "get" true (Heap.get h 2 <> None);
  check_bool "delete" true (Heap.delete h 2);
  check_bool "delete again" false (Heap.delete h 2);
  check_bool "gone" true (Heap.get h 2 = None);
  check_int "four live" 4 (Heap.length h);
  check_int "five allocated" 5 (Heap.allocated h);
  (* scan preserves insertion order and skips tombstones *)
  let seen = ref [] in
  Heap.scan h (fun oid _ -> seen := oid :: !seen);
  Alcotest.(check (list int)) "scan order" [ 1; 3; 4; 5 ] (List.rev !seen);
  Alcotest.(check (list int)) "first two oids" [ 1; 3 ] (Heap.oids h 2);
  Alcotest.(check (list int)) "all oids when fewer" [ 1; 3; 4; 5 ]
    (Heap.oids h 9);
  Alcotest.(check (list int)) "no oids" [] (Heap.oids h 0);
  check_bool "find" true (Heap.find h (fun oid _ -> oid = 4) <> None)

(* Insert/delete churn: tombstones never outnumber live rows for long,
   and compaction keeps scan order, [get] and replaced tuples. *)
let test_heap_compaction () =
  let d = desc () in
  let h = Heap.create () in
  let rng = Random.State.make [| 13 |] in
  (* the live oids, newest first, and the deleted ones *)
  let live = ref [] and deleted = ref [] in
  let check_state what =
    let n = Heap.length h in
    if Heap.allocated h > (2 * n) + 16 then
      Alcotest.failf "%s: %d slots for %d live rows" what (Heap.allocated h) n;
    let seen = ref [] in
    Heap.scan h (fun oid _ -> seen := oid :: !seen);
    Alcotest.(check (list int)) (what ^ ": scan order") !live !seen
  in
  for i = 1 to 10_000 do
    Result.get_ok (Heap.insert h i (mk_tuple d i));
    live := i :: !live;
    (* delete one random live row for most inserts, so the heap churns
       while it grows slowly *)
    if i mod 5 <> 0 then begin
      let victim = List.nth !live (Random.State.int rng (List.length !live)) in
      check_bool "delete live" true (Heap.delete h victim);
      live := List.filter (( <> ) victim) !live;
      deleted := victim :: !deleted
    end;
    if i mod 1000 = 0 then check_state (Printf.sprintf "after %d inserts" i)
  done;
  (* replace keeps a row's position across the next compaction *)
  let oldest = List.nth !live (List.length !live - 1) in
  Result.get_ok (Heap.replace h oldest (mk_tuple d 0));
  List.iter
    (fun oid ->
      if oid <> oldest && Random.State.bool rng then begin
        ignore (Heap.delete h oid);
        live := List.filter (( <> ) oid) !live;
        deleted := oid :: !deleted
      end)
    !live;
  check_state "after the sweep";
  List.iter
    (fun oid ->
      let expect = if oid = oldest then mk_tuple d 0 else mk_tuple d oid in
      match Heap.get h oid with
      | Some tu -> check_bool "get" true (Tuple.equal tu expect)
      | None -> Alcotest.failf "live oid %d lost" oid)
    !live;
  List.iter
    (fun oid ->
      check_bool "deleted stays gone" true
        (Heap.get h oid = None && not (Heap.delete h oid)))
    !deleted

(* ------------------------------------------------------------------ *)
(* Indexes                                                             *)
(* ------------------------------------------------------------------ *)

let test_index_btree () =
  let idx = Result.get_ok (Index_btree.create Vtype.Int) in
  List.iter (fun (k, o) -> Result.get_ok (Index_btree.add idx (Value.int k) o))
    [ (5, 50); (1, 10); (3, 30); (3, 31); (9, 90) ];
  Alcotest.(check (list int)) "point" [ 30; 31 ] (Index_btree.find idx (Value.int 3));
  Alcotest.(check (list int)) "range closed" [ 10; 30; 31; 50 ]
    (Index_btree.range idx ~lo:(Value.int 1) ~hi:(Value.int 5) ());
  Alcotest.(check (list int)) "range open low" [ 10; 30; 31 ]
    (Index_btree.range idx ~hi:(Value.int 4) ());
  Alcotest.(check (list int)) "full range" [ 10; 30; 31; 50; 90 ]
    (Index_btree.range idx ());
  check_bool "min" true (Index_btree.min_key idx = Some (Value.int 1));
  check_bool "max" true (Index_btree.max_key idx = Some (Value.int 9));
  Index_btree.remove idx (Value.int 3) 30;
  Alcotest.(check (list int)) "after remove" [ 31 ] (Index_btree.find idx (Value.int 3));
  check_bool "wrong type key" true
    (Result.is_error (Index_btree.add idx (Value.string "x") 1));
  check_bool "unorderable type" true
    (Result.is_error (Index_btree.create Vtype.Image))

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let make_table () =
  let d = desc () in
  let t = Table.create ~name:"things" d in
  List.iter
    (fun i -> Result.get_ok (Table.insert t i
       [ Value.string (Printf.sprintf "row%d" (i mod 3)); Value.int i;
         Value.float (float_of_int i) ]))
    [ 1; 2; 3; 4; 5; 6 ];
  t

let test_table_basic () =
  let t = make_table () in
  check_int "rows" 6 (Table.row_count t);
  check_bool "get attr" true
    (Table.get_attr t 4 "size" = Some (Value.int 4));
  check_bool "delete" true (Table.delete t 4);
  check_int "after delete" 5 (Table.row_count t);
  check_bool "select" true
    (List.length (Table.select t (fun _ tu -> Tuple.get tu 1 = Value.int 5)) = 1)

let test_table_index_agreement () =
  let t = make_table () in
  let scan_result = Table.lookup_eq t "name" (Value.string "row1") in
  check_bool "no index used" false (Table.last_access_used_index t);
  Result.get_ok (Table.create_btree_index t "name");
  let idx_result = Table.lookup_eq t "name" (Value.string "row1") in
  check_bool "index used" true (Table.last_access_used_index t);
  Alcotest.(check (list int)) "index agrees with scan"
    (List.map fst scan_result) (List.map fst idx_result);
  check_bool "dup index" true (Result.is_error (Table.create_btree_index t "name"))

let test_table_range () =
  let t = make_table () in
  let scan = Table.lookup_range t "size" ~lo:(Value.int 2) ~hi:(Value.int 4) () in
  Result.get_ok (Table.create_btree_index t "size");
  let via_index = Table.lookup_range t "size" ~lo:(Value.int 2) ~hi:(Value.int 4) () in
  check_bool "btree used" true (Table.last_access_used_index t);
  Alcotest.(check (list int)) "range agrees" (List.map fst scan)
    (List.map fst via_index);
  Alcotest.(check (list int)) "ordered" [ 2; 3; 4 ] (List.map fst via_index)

let test_table_index_maintained () =
  let t = make_table () in
  Result.get_ok (Table.create_btree_index t "size");
  Result.get_ok (Table.insert t 100 [ Value.string "new"; Value.int 77; Value.float 0. ]);
  check_bool "new row indexed" true
    (List.map fst (Table.lookup_eq t "size" (Value.int 77)) = [ 100 ]);
  ignore (Table.delete t 100);
  check_bool "deletion unindexed" true
    (Table.lookup_eq t "size" (Value.int 77) = [])

let table_lookup_prop =
  QCheck.Test.make ~name:"indexed lookup = scan lookup" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 10))
    (fun values ->
      let d =
        Result.get_ok (Tuple.descriptor [ ("k", Vtype.Int) ])
      in
      let t1 = Table.create ~name:"a" d in
      let t2 = Table.create ~name:"b" d in
      List.iteri
        (fun i v ->
          ignore (Table.insert t1 (i + 1) [ Value.int v ]);
          ignore (Table.insert t2 (i + 1) [ Value.int v ]))
        values;
      ignore (Table.create_btree_index t2 "k");
      List.for_all
        (fun probe ->
          List.map fst (Table.lookup_eq t1 "k" (Value.int probe))
          = List.map fst (Table.lookup_eq t2 "k" (Value.int probe)))
        [ 0; 1; 5; 10 ])

(* Window index against a scan: random boxes (points, duplicates, the
   whole plane, negative, huge and subnormal coordinates) under random
   inserts, replaces and deletes, probed with random windows before and
   after the index is built. *)
type box_op =
  | Ins of Box.t
  | Rep of int * Box.t
  | Del of int
  | Probe of Box.t

let box_gen =
  QCheck.Gen.(
    let coord =
      frequency
        [ (6, map float_of_int (int_range (-8) 8));
          (2, map (fun i -> float_of_int i +. 0.5) (int_range (-8) 8));
          ( 2,
            oneofl
              [ 0.; -0.; 1e-300; -1e-310; 5e-324; 1e6; -1e6; 0x1p52;
                -0x1p53; 1e300; -1e300; 1e308; -1e308 ] ) ]
    in
    frequency
      [ (6, map2 Box.of_corners (pair coord coord) (pair coord coord));
        (2, map2 Box.point coord coord);
        ( 1,
          oneofl
            [ Box.make ~xmin:(-1e308) ~ymin:(-1e308) ~xmax:1e308 ~ymax:1e308;
              Box.make ~xmin:0. ~ymin:0. ~xmax:2. ~ymax:2. ] ) ])

let box_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun b -> Ins b) box_gen);
        (2, map2 (fun i b -> Rep (i, b)) nat box_gen);
        (2, map (fun i -> Del i) nat);
        (2, map (fun b -> Probe b) box_gen) ])

let box_op_to_string = function
  | Ins b -> "ins " ^ Box.to_string b
  | Rep (i, b) -> Printf.sprintf "rep %d %s" i (Box.to_string b)
  | Del i -> Printf.sprintf "del %d" i
  | Probe b -> "probe " ^ Box.to_string b

let window_index_prop =
  QCheck.Test.make ~name:"window index = scan filtered by Box.overlaps"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map box_op_to_string ops))
       QCheck.Gen.(list_size (int_range 0 80) box_op_gen))
    (fun ops ->
      let d =
        Result.get_ok
          (Tuple.descriptor [ ("n", Vtype.Int); ("where", Vtype.Box) ])
      in
      let indexed = Table.create ~name:"indexed" d in
      let plain = Table.create ~name:"plain" d in
      Result.get_ok (Table.create_box_index indexed "where");
      let next = ref 0 in
      let nth_live i =
        match Table.to_list plain with
        | [] -> None
        | rows -> Some (fst (List.nth rows (i mod List.length rows)))
      in
      let row b = [ Value.int !next; Value.box b ] in
      let agree w =
        let expect =
          List.map fst
            (Table.select plain (fun _ tu ->
                 match Tuple.get tu 1 with
                 | Value.VBox b -> Box.overlaps b w
                 | _ -> false))
        in
        let probe t =
          List.map fst
            (Table.lookup_range t "where" ~lo:(Value.box w) ~hi:(Value.box w) ())
        in
        let via_index = probe indexed in
        let used = Table.last_access_used_index indexed in
        let via_scan = probe plain in
        (used && via_index = expect && via_scan = expect)
        ||
        let show oids = String.concat "," (List.map string_of_int oids) in
        QCheck.Test.fail_reportf "window %s: expected [%s], index [%s], scan [%s]"
          (Box.to_string w) (show expect) (show via_index) (show via_scan)
      in
      let step = function
        | Ins b ->
          incr next;
          Result.get_ok (Table.insert indexed !next (row b));
          Result.get_ok (Table.insert plain !next (row b));
          true
        | Rep (i, b) ->
          Option.iter
            (fun oid ->
              Result.get_ok (Table.replace indexed oid (row b));
              Result.get_ok (Table.replace plain oid (row b)))
            (nth_live i);
          true
        | Del i ->
          Option.iter
            (fun oid ->
              ignore (Table.delete indexed oid);
              ignore (Table.delete plain oid))
            (nth_live i);
          true
        | Probe w -> agree w
      in
      let windows =
        [ Box.make ~xmin:(-1.) ~ymin:(-1.) ~xmax:1. ~ymax:1.;
          Box.point 0. 0.;
          Box.make ~xmin:(-1e308) ~ymin:(-1e308) ~xmax:1e308 ~ymax:1e308;
          Box.make ~xmin:2.5 ~ymin:(-3.5) ~xmax:7. ~ymax:0. ]
      in
      List.for_all step ops && List.for_all agree windows)

(* ------------------------------------------------------------------ *)
(* Rejected writes                                                     *)
(* ------------------------------------------------------------------ *)

(* A class's table carries a B-tree on its time and a window index on
   its box.  A row the table rejects — mistyped, short, or under an OID
   it already holds — must leave the heap and both indexes as they
   were, the window index included once a probe has built it. *)
let test_rejected_insert () =
  let d =
    Result.get_ok (Tuple.descriptor [ ("t", Vtype.Abstime); ("b", Vtype.Box) ])
  in
  let tab = Table.create ~name:"scene" d in
  Result.get_ok (Table.create_btree_index tab "t");
  Result.get_ok (Table.create_box_index tab "b");
  let day n = Value.abstime (Gaea_geo.Abstime.of_ymd 1988 6 n) in
  let box = Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.) in
  let found () =
    ( List.map fst (Table.lookup_range tab "t" ~lo:(day 1) ~hi:(day 9) ()),
      List.map fst (Table.lookup_range tab "b" ~lo:box ~hi:box ()) )
  in
  Result.get_ok (Table.insert tab 1 [ day 1; box ]);
  let before = found () in
  check_bool "mistyped" true (Result.is_error (Table.insert tab 2 [ box; day 2 ]));
  check_bool "short" true (Result.is_error (Table.insert tab 3 [ day 3 ]));
  check_bool "oid held" true (Result.is_error (Table.insert tab 1 [ day 4; box ]));
  check_int "rows" 1 (Table.row_count tab);
  check_bool "indexes unchanged" true (found () = before && before = ([ 1 ], [ 1 ]));
  check_bool "one time key" true (Table.btree_cardinality tab "t" = Some 1)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let t = make_table () in
  let s = Stats.analyze_table t in
  check_int "rows" 6 s.Stats.n_rows;
  let name_col = List.find (fun c -> c.Stats.attr = "name") s.Stats.columns in
  check_int "3 distinct names" 3 name_col.Stats.n_distinct;
  let size_col = List.find (fun c -> c.Stats.attr = "size") s.Stats.columns in
  check_int "6 distinct sizes" 6 size_col.Stats.n_distinct;
  check_bool "min" true (size_col.Stats.min_value = Some (Value.int 1));
  check_bool "max" true (size_col.Stats.max_value = Some (Value.int 6));
  Alcotest.(check (float 1e-9)) "selectivity" (1. /. 3.)
    (Stats.selectivity_eq s "name");
  Alcotest.(check (float 1e-9)) "unknown attr default" 0.1
    (Stats.selectivity_eq s "nope")

let () =
  Alcotest.run "storage"
    [ ("oid", [ tc "allocator" test_oid_allocator ]);
      ("vorder", [ tc "ordering" test_vorder ]);
      ( "tuple",
        [ tc "descriptor" test_tuple_descriptor; tc "make" test_tuple_make ] );
      ( "heap",
        [ tc "operations" test_heap;
          tc "compaction under churn" test_heap_compaction ] );
      ("indexes", [ tc "btree" test_index_btree ]);
      ( "table",
        [ tc "basics" test_table_basic;
          tc "index agreement" test_table_index_agreement;
          tc "range" test_table_range;
          tc "index maintenance" test_table_index_maintained ] );
      qsuite "table-props" [ table_lookup_prop; window_index_prop ];
      ("rejected-write", [ tc "a rejected row leaves the indexes" test_rejected_insert ]);
      ("stats", [ tc "analyze" test_stats ]) ]
