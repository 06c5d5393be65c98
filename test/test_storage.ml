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
          (Value.box (Gaea_geo.Box.make ~xmin:0. ~ymin:0. ~xmax:0. ~ymax:0.))
          (Value.box (Gaea_geo.Box.make ~xmin:1. ~ymin:1. ~xmax:1. ~ymax:1.))));
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
  Alcotest.(check (list int)) "no oids" [] (Heap.oids h 0)

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

(* The heap against a list model: random inserts (duplicate OIDs
   included), deletes (absent OIDs included) and replaces over a few
   dozen OIDs, so the heap churns and compacts many times.  Every
   deleted or replaced tuple must be collectable at the end. *)
type heap_op = H_insert of int | H_delete of int | H_replace of int

let heap_model_prop =
  let d = desc () in
  let oid = QCheck.Gen.int_range (-2) 40 in
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun o -> H_insert o) oid);
          (2, map (fun o -> H_delete o) oid);
          (1, map (fun o -> H_replace o) oid) ])
  in
  let show = function
    | H_insert o -> Printf.sprintf "insert %d" o
    | H_delete o -> Printf.sprintf "delete %d" o
    | H_replace o -> Printf.sprintf "replace %d" o
  in
  QCheck.Test.make ~name:"heap = list model under churn" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let h = Heap.create () in
      (* live rows in insertion order, and the tuples dropped so far *)
      let model = ref [] and dropped = Weak.create (List.length ops) in
      let ndropped = ref 0 in
      let drop tuple =
        Weak.set dropped !ndropped (Some tuple);
        incr ndropped
      in
      let fresh = ref 0 in
      let tuple () =
        incr fresh;
        mk_tuple d !fresh
      in
      let check () =
        let expected = !model in
        let oids = List.map fst expected in
        let scanned = ref [] in
        Heap.scan h (fun oid tu -> scanned := (oid, tu) :: !scanned);
        let same a b =
          List.length a = List.length b
          && List.for_all2 (fun (o, t) (o', t') -> o = o' && t == t') a b
        in
        if not (same (List.rev !scanned) expected) then
          QCheck.Test.fail_report "scan differs from the model";
        if not (same (List.of_seq (Heap.to_seq h)) expected) then
          QCheck.Test.fail_report "to_seq differs from the model";
        let n = List.length expected in
        List.iter
          (fun k ->
            if Heap.oids h k <> List.filteri (fun i _ -> i < k) oids then
              QCheck.Test.fail_reportf "oids %d differs from the model" k)
          [ 0; 1; n / 2; n; n + 3 ];
        if Heap.length h <> n then QCheck.Test.fail_report "length";
        if Heap.allocated h > (2 * n) + 16 then
          QCheck.Test.fail_reportf "%d slots for %d rows" (Heap.allocated h) n;
        for o = -2 to 40 do
          match Heap.get h o, List.assoc_opt o expected with
          | Some t, Some t' when t == t' -> ()
          | None, None -> ()
          | _ -> QCheck.Test.fail_reportf "get %d differs from the model" o
        done;
        let positions = List.map (Heap.slot h) oids in
        if List.exists (fun p -> p < 0) positions then
          QCheck.Test.fail_report "a live row has no slot";
        if positions <> List.sort_uniq Int.compare positions then
          QCheck.Test.fail_report "slot positions do not ascend";
        if not (same (List.map (Heap.row h) positions) expected) then
          QCheck.Test.fail_report "the rows at the slots differ from the model"
      in
      List.iter
        (fun op ->
          (match op with
           | H_insert o ->
             let tu = tuple () in
             (match Heap.insert h o tu, List.mem_assoc o !model with
              | Ok (), false -> model := !model @ [ (o, tu) ]
              | Error _, true -> ()
              | _ -> QCheck.Test.fail_reportf "insert %d" o)
           | H_delete o ->
             let was = List.assoc_opt o !model in
             if Heap.delete h o <> Option.is_some was then
               QCheck.Test.fail_reportf "delete %d" o;
             Option.iter drop was;
             model := List.remove_assoc o !model
           | H_replace o ->
             let tu = tuple () in
             (match Heap.replace h o tu, List.assoc_opt o !model with
              | Ok (), Some old ->
                drop old;
                model := List.map (fun (o', t) -> (o', if o' = o then tu else t)) !model
              | Error _, None -> ()
              | _ -> QCheck.Test.fail_reportf "replace %d" o));
          check ())
        ops;
      Gc.full_major ();
      for i = 0 to !ndropped - 1 do
        if Weak.check dropped i then
          QCheck.Test.fail_reportf "dropped tuple %d is still reachable" i
      done;
      (* the heap stays alive through the collection *)
      Heap.length h = List.length !model)

(* The first [n] OIDs a heap hands out, as an array
   ({!Heap.first_oids}, also followed by a tail) and as a list
   ({!Heap.oids}), are the first [n] of its scan, for
   [n] of -1, 0, every live row and past them, after every step of
   random inserts of fresh OIDs and deletes.  A closing sweep deletes
   all but two rows, so a heap that has held five rows or more sees
   tombstones outnumber live rows and compacts in place; the arrays
   handed out at every earlier step are the caller's and must read the
   same after it. *)
let heap_first_oids_prop =
  let d = desc () in
  QCheck.Test.make ~name:"first n OIDs = first n of scan" ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function None -> "insert" | Some i -> Printf.sprintf "delete #%d" i)
              ops))
       QCheck.Gen.(
         list_size (int_range 0 300)
           (frequency [ (3, return None); (2, map Option.some small_nat) ])))
    (fun ops ->
      let h = Heap.create () and next = ref 0 and handed = ref [] in
      let scanned () =
        let acc = ref [] in
        Heap.scan h (fun oid _ -> acc := oid :: !acc);
        List.rev !acc
      in
      let check () =
        let all = scanned () in
        let live = List.length all in
        List.iter
          (fun n ->
            let want = List.filteri (fun i _ -> i < n) all in
            let first = Heap.first_oids h n in
            handed := (first, want) :: !handed;
            if Array.to_list first <> want then
              QCheck.Test.fail_reportf "first_oids %d of %d differs from scan" n
                live;
            if
              Array.to_list (Heap.first_oids ~tail:[| -1; -2 |] h n)
              <> want @ [ -1; -2 ]
            then
              QCheck.Test.fail_reportf "first_oids ~tail %d of %d differs" n live;
            if Heap.oids h n <> want then
              QCheck.Test.fail_reportf "oids %d of %d differs from scan" n live)
          [ -1; 0; live; live + 5 ]
      in
      let step op =
        (match op with
         | None ->
           incr next;
           Result.get_ok (Heap.insert h !next (mk_tuple d !next))
         | Some i ->
           (match scanned () with
            | [] -> ()
            | all -> ignore (Heap.delete h (List.nth all (i mod List.length all)))));
        check ()
      in
      List.iter step ops;
      while Heap.length h > 2 do
        step (Some 0)
      done;
      List.for_all (fun (first, want) -> Array.to_list first = want) !handed)

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
       [| Value.string (Printf.sprintf "row%d" (i mod 3)); Value.int i;
          Value.float (float_of_int i) |]))
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
  Result.get_ok (Table.create_btree_index t "name");
  let idx_result = Table.lookup_eq t "name" (Value.string "row1") in
  Alcotest.(check (list int)) "index agrees with scan"
    (List.map fst scan_result) (List.map fst idx_result);
  check_bool "dup index" true (Result.is_error (Table.create_btree_index t "name"))

let test_table_range () =
  let t = make_table () in
  let scan = Table.lookup_range t "size" ~lo:(Value.int 2) ~hi:(Value.int 4) () in
  Result.get_ok (Table.create_btree_index t "size");
  let via_index = Table.lookup_range t "size" ~lo:(Value.int 2) ~hi:(Value.int 4) () in
  Alcotest.(check (list int)) "range agrees" (List.map fst scan)
    (List.map fst via_index);
  Alcotest.(check (list int)) "ordered" [ 2; 3; 4 ] (List.map fst via_index)

let test_table_index_maintained () =
  let t = make_table () in
  Result.get_ok (Table.create_btree_index t "size");
  Result.get_ok (Table.insert t 100 [| Value.string "new"; Value.int 77; Value.float 0. |]);
  check_bool "new row indexed" true
    (List.map fst (Table.lookup_eq t "size" (Value.int 77)) = [ 100 ]);
  ignore (Table.delete t 100);
  check_bool "deletion unindexed" true
    (Table.lookup_eq t "size" (Value.int 77) = [])

(* The B-tree against a scan, after random inserts, deletes and
   replaces made once the index exists; a replace keeps its row's key
   (new data only, the index untouched) or changes it. *)
let table_lookup_prop =
  QCheck.Test.make ~name:"indexed lookup = scan lookup" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 10))
        (list_of_size (QCheck.Gen.int_range 0 40)
           (triple (int_range 0 3) (int_range 0 39) (int_range 0 10))))
    (fun (values, ops) ->
      let d =
        Result.get_ok
          (Tuple.descriptor [ ("k", Vtype.Int); ("d", Vtype.Int) ])
      in
      let t1 = Table.create ~name:"a" d in
      let t2 = Table.create ~name:"b" d in
      let insert oid v =
        List.iter
          (fun t -> ignore (Table.insert t oid [| Value.int v; Value.int 0 |]))
          [ t1; t2 ]
      in
      List.iteri (fun i v -> insert (i + 1) v) values;
      ignore (Table.create_btree_index t2 "k");
      let next = ref (List.length values) in
      let agree () =
        List.for_all
          (fun probe ->
            List.map fst (Table.lookup_eq t1 "k" (Value.int probe))
            = List.map fst (Table.lookup_eq t2 "k" (Value.int probe)))
          (List.init 11 Fun.id)
      in
      List.for_all
        (fun (kind, slot, v) ->
          (match kind, Table.oids t1 (Table.row_count t1) with
           | 0, _ ->
             incr next;
             insert !next v
           | _, [] -> ()
           | 1, oids ->
             let oid = List.nth oids (slot mod List.length oids) in
             List.iter (fun t -> ignore (Table.delete t oid)) [ t1; t2 ]
           | kind, oids ->
             let oid = List.nth oids (slot mod List.length oids) in
             let key =
               if kind = 2 then Option.get (Table.get_attr t1 oid "k")
               else Value.int v
             in
             List.iter
               (fun t -> ignore (Table.replace t oid [| key; Value.int v |]))
               [ t1; t2 ]);
          agree ())
        ops
      && agree ())

(* Window index against a scan: random boxes (points, duplicates, the
   whole plane, negative, huge and subnormal coordinates, small boxes
   far out, where cell numbers pass 2^31) under random inserts,
   replaces and deletes, probed with random windows and with windows
   that touch a stored box only on an edge or a corner, before and
   after the index is built. *)
type box_op =
  | Ins of Box.t
  | Rep of int * Box.t
  | Del of int
  | Probe of Box.t
  | Touch of int * int  (* a live row, and which edge or corner *)

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
    let spanned (x1, y1) (x2, y2) =
      Box.make ~xmin:(Float.min x1 x2) ~ymin:(Float.min y1 y2)
        ~xmax:(Float.max x1 x2) ~ymax:(Float.max y1 y2)
    in
    (* a few units across, 2^34 to 2^45 out: cells numbered past 2^31 *)
    let far =
      let* base = oneofl [ 0x1p34; -0x1p34; 0x1p45; -0x1p45 ] in
      let near = map (fun i -> base +. float_of_int i) (int_range (-4) 4) in
      map2 spanned (pair near near) (pair near near)
    in
    frequency
      [ (6, map2 spanned (pair coord coord) (pair coord coord));
        (2, map2 (fun x y -> Box.make ~xmin:x ~ymin:y ~xmax:x ~ymax:y) coord coord);
        (2, far);
        ( 1,
          oneofl
            [ Box.make ~xmin:(-1e308) ~ymin:(-1e308) ~xmax:1e308 ~ymax:1e308;
              Box.make ~xmin:0. ~ymin:0. ~xmax:2. ~ymax:2. ] ) ])

(* A window meeting [b] only along one of its edges (k = 0..3) or at
   one of its corners (k = 4..7), [None] when it would not be finite *)
let touching (b : Box.t) k =
  let w = Float.max 1. (Box.width b) and h = Float.max 1. (Box.height b) in
  let xmin, ymin, xmax, ymax =
    match k land 7 with
    | 0 -> (b.Box.xmax, b.Box.ymin, b.Box.xmax +. w, b.Box.ymax)
    | 1 -> (b.Box.xmin -. w, b.Box.ymin, b.Box.xmin, b.Box.ymax)
    | 2 -> (b.Box.xmin, b.Box.ymax, b.Box.xmax, b.Box.ymax +. h)
    | 3 -> (b.Box.xmin, b.Box.ymin -. h, b.Box.xmax, b.Box.ymin)
    | 4 -> (b.Box.xmax, b.Box.ymax, b.Box.xmax +. w, b.Box.ymax +. h)
    | 5 -> (b.Box.xmin -. w, b.Box.ymax, b.Box.xmin, b.Box.ymax +. h)
    | 6 -> (b.Box.xmax, b.Box.ymin -. h, b.Box.xmax +. w, b.Box.ymin)
    | _ -> (b.Box.xmin -. w, b.Box.ymin -. h, b.Box.xmin, b.Box.ymin)
  in
  Result.to_option (Box.make_checked ~xmin ~ymin ~xmax ~ymax)

let box_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun b -> Ins b) box_gen);
        (2, map2 (fun i b -> Rep (i, b)) nat box_gen);
        (2, map (fun i -> Del i) nat);
        (2, map (fun b -> Probe b) box_gen);
        (2, map2 (fun i k -> Touch (i, k)) nat (int_bound 7)) ])

let box_op_to_string = function
  | Ins b -> "ins " ^ Box.to_string b
  | Rep (i, b) -> Printf.sprintf "rep %d %s" i (Box.to_string b)
  | Del i -> Printf.sprintf "del %d" i
  | Probe b -> "probe " ^ Box.to_string b
  | Touch (i, k) -> Printf.sprintf "touch %d %d" i k

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
        match Table.select plain (fun _ _ -> true) with
        | [] -> None
        | rows -> Some (fst (List.nth rows (i mod List.length rows)))
      in
      let row b = [| Value.int !next; Value.box b |] in
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
        let via_scan = probe plain in
        (via_index = expect && via_scan = expect)
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
        | Touch (i, k) ->
          (match nth_live i with
           | None -> true
           | Some oid ->
             (match Table.get_attr plain oid "where" with
              | Some (Value.VBox b) ->
                Option.fold ~none:true ~some:agree (touching b k)
              | _ -> true))
      in
      let windows =
        [ Box.make ~xmin:(-1.) ~ymin:(-1.) ~xmax:1. ~ymax:1.;
          Box.make ~xmin:0. ~ymin:0. ~xmax:0. ~ymax:0.;
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
  Result.get_ok (Table.insert tab 1 [| day 1; box |]);
  let before = found () in
  check_bool "mistyped" true (Result.is_error (Table.insert tab 2 [| box; day 2 |]));
  check_bool "short" true (Result.is_error (Table.insert tab 3 [| day 3 |]));
  check_bool "oid held" true (Result.is_error (Table.insert tab 1 [| day 4; box |]));
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
      qsuite "heap-props" [ heap_model_prop; heap_first_oids_prop ];
      ("indexes", [ tc "btree" test_index_btree ]);
      ( "table",
        [ tc "basics" test_table_basic;
          tc "index agreement" test_table_index_agreement;
          tc "range" test_table_range;
          tc "index maintenance" test_table_index_maintained ] );
      qsuite "table-props" [ table_lookup_prop; window_index_prop ];
      ("rejected-write", [ tc "a rejected row leaves the indexes" test_rejected_insert ]);
      ("stats", [ tc "analyze" test_stats ]) ]
