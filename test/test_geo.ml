(* Tests for the spatio-temporal substrate: Abstime, Interval, Allen,
   Box. *)

open Gaea_geo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Abstime                                                             *)
(* ------------------------------------------------------------------ *)

let test_abstime_epoch () =
  let epoch = Abstime.of_seconds 0 in
  check_str "epoch renders" "1970-01-01T00:00:00" (Abstime.to_string epoch);
  check_int "epoch seconds" 0 (Abstime.to_seconds epoch)

let test_abstime_roundtrip_known () =
  List.iter
    (fun (y, m, d) ->
      let t = Abstime.of_ymd y m d in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%d-%d-%d" y m d)
        (y, m, d) (Abstime.to_ymd t))
    [ (1970, 1, 1); (1986, 1, 15); (2000, 2, 29); (1900, 3, 1); (1, 1, 1);
      (1969, 12, 31); (1899, 2, 28); (2400, 2, 29) ]

let test_abstime_leap_years () =
  check_bool "2000 leap" true (Abstime.is_leap_year 2000);
  check_bool "1900 not leap" false (Abstime.is_leap_year 1900);
  check_bool "1988 leap" true (Abstime.is_leap_year 1988);
  check_bool "1989 not leap" false (Abstime.is_leap_year 1989);
  check_int "feb 1988" 29 (Abstime.days_in_month 1988 2);
  check_int "feb 1989" 28 (Abstime.days_in_month 1989 2)

let test_abstime_invalid () =
  Alcotest.check_raises "feb 30" (Invalid_argument "Abstime.of_ymd: invalid date 1989-02-30")
    (fun () -> ignore (Abstime.of_ymd 1989 2 30));
  Alcotest.check_raises "month 13"
    (Invalid_argument "Abstime.of_ymd: invalid date 1989-13-01") (fun () ->
      ignore (Abstime.of_ymd 1989 13 1));
  Alcotest.check_raises "bad time"
    (Invalid_argument "Abstime.of_ymd_hms: invalid time 24:00:00") (fun () ->
      ignore (Abstime.of_ymd_hms 1989 1 1 24 0 0))

let test_abstime_hms () =
  let t = Abstime.of_ymd_hms 1986 1 15 13 45 30 in
  let (y, m, d), (hh, mm, ss) = Abstime.to_ymd_hms t in
  Alcotest.(check (triple int int int)) "date" (1986, 1, 15) (y, m, d);
  Alcotest.(check (triple int int int)) "time" (13, 45, 30) (hh, mm, ss);
  check_str "iso" "1986-01-15T13:45:30" (Abstime.to_string t)

let test_abstime_pre_epoch () =
  let t = Abstime.of_ymd_hms 1969 12 31 23 0 0 in
  check_bool "negative" true (Abstime.to_seconds t < 0);
  check_str "renders" "1969-12-31T23:00:00" (Abstime.to_string t)

let test_abstime_add_days () =
  let t = Abstime.of_ymd 1988 12 31 in
  check_str "across year" "1989-01-01T00:00:00"
    (Abstime.to_string (Abstime.add_days t 1));
  check_str "backwards" "1988-12-30T00:00:00"
    (Abstime.to_string (Abstime.add_days t (-1)))

let test_abstime_diff () =
  let a = Abstime.of_ymd 1989 7 1 and b = Abstime.of_ymd 1988 7 1 in
  check_float "365 days" 365. (Abstime.diff_days a b);
  check_float "negative" (-365.) (Abstime.diff_days b a)

let test_abstime_parse () =
  List.iter
    (fun s ->
      match Abstime.of_string s with
      | Some t -> check_bool (s ^ " reparses") true (Abstime.of_string (Abstime.to_string t) = Some t)
      | None -> Alcotest.failf "should parse %s" s)
    [ "1986-01-15"; "1986-01-15T12:30:00"; "1986-01-15 12:30:00" ];
  List.iter
    (fun s -> check_bool (s ^ " rejected") true (Abstime.of_string s = None))
    [ "1986-13-01"; "1986-02-30"; "86-1-1x"; ""; "1986-01-15T25:00:00" ]

let abstime_roundtrip_prop =
  QCheck.Test.make ~name:"abstime ymd roundtrip" ~count:500
    QCheck.(triple (int_range 1600 2400) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) ->
      let t = Abstime.of_ymd y m d in
      Abstime.to_ymd t = (y, m, d))

let abstime_day_arith_prop =
  QCheck.Test.make ~name:"add_days n then -n is identity" ~count:500
    QCheck.(pair (int_range (-200000) 200000) (int_range (-5000) 5000))
    (fun (secs, days) ->
      let t = Abstime.of_seconds secs in
      Abstime.equal t (Abstime.add_days (Abstime.add_days t days) (-days)))

let abstime_string_prop =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:500
    QCheck.(int_range (-4000000000) 4000000000)
    (fun secs ->
      let t = Abstime.of_seconds secs in
      Abstime.of_string (Abstime.to_string t) = Some t)

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let iv y1 m1 d1 y2 m2 d2 = Interval.of_ymd_pair (y1, m1, d1) (y2, m2, d2)

let test_interval_make () =
  let i = iv 1986 1 1 1986 12 31 in
  check_bool "not instant" false (Interval.is_instant i);
  Alcotest.check_raises "inverted"
    (Invalid_argument
       "Interval.make: stop 1986-01-01T00:00:00 before start 1987-01-01T00:00:00")
    (fun () ->
      ignore (Interval.make (Abstime.of_ymd 1987 1 1) (Abstime.of_ymd 1986 1 1)))

let test_interval_contains () =
  let i = iv 1986 1 1 1986 12 31 in
  check_bool "mid" true (Interval.contains i (Abstime.of_ymd 1986 6 1));
  check_bool "start incl" true (Interval.contains i (Abstime.of_ymd 1986 1 1));
  check_bool "stop incl" true (Interval.contains i (Abstime.of_ymd 1986 12 31));
  check_bool "outside" false (Interval.contains i (Abstime.of_ymd 1987 1 1))

let test_interval_ops () =
  let a = iv 1986 1 1 1986 6 30 and b = iv 1986 6 1 1986 12 31 in
  check_bool "overlap" true (Interval.overlaps a b);
  let c = iv 1990 1 1 1990 2 1 in
  check_bool "disjoint" false (Interval.overlaps a c)

let test_interval_touching () =
  (* closed intervals sharing an endpoint do overlap *)
  let a = iv 1986 1 1 1986 6 1 and b = iv 1986 6 1 1986 12 1 in
  check_bool "touching closed intervals overlap" true (Interval.overlaps a b)

let interval_gen =
  QCheck.Gen.(
    map2
      (fun s len -> Interval.make (Abstime.of_seconds s)
          (Abstime.of_seconds (s + len)))
      (int_range (-1000000) 1000000)
      (int_range 1 500000))

let interval_arb = QCheck.make ~print:Interval.to_string interval_gen

let interval_overlap_sym_prop =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:500
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) -> Interval.overlaps a b = Interval.overlaps b a)

(* ------------------------------------------------------------------ *)
(* Allen                                                               *)
(* ------------------------------------------------------------------ *)

let test_allen_examples () =
  let rel a b = Allen.relate a b in
  let i s e = Interval.make (Abstime.of_seconds s) (Abstime.of_seconds e) in
  let cases =
    [ (i 0 1, i 2 3, Allen.Before);
      (i 0 1, i 1 2, Allen.Meets);
      (i 0 2, i 1 3, Allen.Overlaps);
      (i 0 1, i 0 2, Allen.Starts);
      (i 1 2, i 0 3, Allen.During);
      (i 1 2, i 0 2, Allen.Finishes);
      (i 0 1, i 0 1, Allen.Equal);
      (i 2 3, i 0 1, Allen.After);
      (i 1 2, i 0 1, Allen.Met_by);
      (i 1 3, i 0 2, Allen.Overlapped_by);
      (i 0 2, i 0 1, Allen.Started_by);
      (i 0 3, i 1 2, Allen.Contains);
      (i 0 2, i 1 2, Allen.Finished_by) ]
  in
  List.iter
    (fun (a, b, expected) ->
      check_str
        (Printf.sprintf "%s vs %s" (Interval.to_string a) (Interval.to_string b))
        (Allen.to_string expected)
        (Allen.to_string (rel a b)))
    cases

let test_allen_rejects_instants () =
  let i = Interval.instant (Abstime.of_seconds 5) in
  Alcotest.check_raises "instant"
    (Invalid_argument "Allen.relate: instant (zero-duration) interval")
    (fun () -> ignore (Allen.relate i i))

let proper_interval_gen =
  QCheck.Gen.(
    map2
      (fun s len ->
        Interval.make (Abstime.of_seconds s) (Abstime.of_seconds (s + len)))
      (int_range (-100) 100)
      (int_range 1 100))

let proper_arb = QCheck.make ~print:Interval.to_string proper_interval_gen

let allen_inverse_prop =
  QCheck.Test.make ~name:"relate b a = inverse (relate a b)" ~count:1000
    QCheck.(pair proper_arb proper_arb)
    (fun (a, b) ->
      Allen.equal_relation (Allen.relate b a) (Allen.inverse (Allen.relate a b)))

(* ------------------------------------------------------------------ *)
(* Box                                                                 *)
(* ------------------------------------------------------------------ *)

let box = Box.make

let test_box_make () =
  let b = box ~xmin:0. ~ymin:0. ~xmax:2. ~ymax:3. in
  check_float "area" 6. (Box.area b);
  check_float "width" 2. (Box.width b);
  check_float "height" 3. (Box.height b);
  Alcotest.check_raises "inverted"
    (Invalid_argument "Box.make: inverted box (2,0,0,3)") (fun () ->
      ignore (box ~xmin:2. ~ymin:0. ~xmax:0. ~ymax:3.));
  Alcotest.check_raises "nan" (Invalid_argument "Box.make: xmin is not finite")
    (fun () -> ignore (box ~xmin:Float.nan ~ymin:0. ~xmax:1. ~ymax:1.))

let test_box_predicates () =
  let a = box ~xmin:0. ~ymin:0. ~xmax:10. ~ymax:10. in
  let b = box ~xmin:5. ~ymin:5. ~xmax:15. ~ymax:15. in
  let c = box ~xmin:20. ~ymin:20. ~xmax:30. ~ymax:30. in
  check_bool "overlap" true (Box.overlaps a b);
  check_bool "disjoint" false (Box.overlaps a c);
  check_bool "touching counts" true
    (Box.overlaps a (box ~xmin:10. ~ymin:0. ~xmax:20. ~ymax:10.));
  check_bool "contains" true
    (Box.contains ~outer:a ~inner:(box ~xmin:1. ~ymin:1. ~xmax:9. ~ymax:9.));
  check_bool "contains self" true (Box.contains ~outer:a ~inner:a)

let test_box_intersection_hull () =
  let a = box ~xmin:0. ~ymin:0. ~xmax:10. ~ymax:10. in
  let b = box ~xmin:5. ~ymin:5. ~xmax:15. ~ymax:15. in
  (match Box.intersection a b with
   | Some i ->
     check_float "ixmin" 5. (Box.xmin i);
     check_float "ixmax" 10. (Box.xmax i)
   | None -> Alcotest.fail "expected intersection");
  let h = Box.hull a b in
  check_float "hxmax" 15. (Box.xmax h)

let box_gen =
  QCheck.Gen.(
    map
      (fun (x1, y1, x2, y2) ->
        box ~xmin:(Float.min x1 x2) ~ymin:(Float.min y1 y2)
          ~xmax:(Float.max x1 x2) ~ymax:(Float.max y1 y2))
      (quad (float_range (-100.) 100.) (float_range (-100.) 100.)
         (float_range (-100.) 100.) (float_range (-100.) 100.)))

let box_arb = QCheck.make ~print:Box.to_string box_gen

let box_overlap_sym_prop =
  QCheck.Test.make ~name:"box overlap symmetric" ~count:500
    QCheck.(pair box_arb box_arb)
    (fun (a, b) -> Box.overlaps a b = Box.overlaps b a)

let box_intersection_prop =
  QCheck.Test.make ~name:"intersection within both, hull contains both"
    ~count:500
    QCheck.(pair box_arb box_arb)
    (fun (a, b) ->
      let inter_ok =
        match Box.intersection a b with
        | None -> not (Box.overlaps a b)
        | Some i -> Box.contains ~outer:a ~inner:i && Box.contains ~outer:b ~inner:i
      in
      let h = Box.hull a b in
      inter_ok && Box.contains ~outer:h ~inner:a && Box.contains ~outer:h ~inner:b)

let box_area_prop =
  QCheck.Test.make ~name:"area = width * height >= 0" ~count:500 box_arb
    (fun b -> Box.area b >= 0. && Box.area b = Box.width b *. Box.height b)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "geo"
    [ ( "abstime",
        [ Alcotest.test_case "epoch" `Quick test_abstime_epoch;
          Alcotest.test_case "roundtrip known dates" `Quick test_abstime_roundtrip_known;
          Alcotest.test_case "leap years" `Quick test_abstime_leap_years;
          Alcotest.test_case "invalid dates" `Quick test_abstime_invalid;
          Alcotest.test_case "time of day" `Quick test_abstime_hms;
          Alcotest.test_case "pre-epoch" `Quick test_abstime_pre_epoch;
          Alcotest.test_case "add days" `Quick test_abstime_add_days;
          Alcotest.test_case "diff" `Quick test_abstime_diff;
          Alcotest.test_case "parsing" `Quick test_abstime_parse ] );
      qsuite "abstime-props"
        [ abstime_roundtrip_prop; abstime_day_arith_prop; abstime_string_prop ];
      ( "interval",
        [ Alcotest.test_case "make/duration" `Quick test_interval_make;
          Alcotest.test_case "contains" `Quick test_interval_contains;
          Alcotest.test_case "ops" `Quick test_interval_ops;
          Alcotest.test_case "touching" `Quick test_interval_touching ] );
      qsuite "interval-props"
        [ interval_overlap_sym_prop ];
      ( "allen",
        [ Alcotest.test_case "all 13 examples" `Quick test_allen_examples;
          Alcotest.test_case "instants rejected" `Quick test_allen_rejects_instants ] );
      qsuite "allen-props" [ allen_inverse_prop ];
      ( "box",
        [ Alcotest.test_case "make/area" `Quick test_box_make;
          Alcotest.test_case "predicates" `Quick test_box_predicates;
          Alcotest.test_case "intersection/hull" `Quick test_box_intersection_hull ] );
      qsuite "box-props"
        [ box_overlap_sym_prop; box_intersection_prop; box_area_prop ] ]
