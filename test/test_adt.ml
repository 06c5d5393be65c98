(* Tests for the system-level semantics layer: Sexp, Vtype, Value,
   Operator, Registry, Dataflow. *)

open Gaea_adt
module Image = Gaea_raster.Image
module Matrix = Gaea_raster.Matrix
module Composite = Gaea_raster.Composite
module Pixel = Gaea_raster.Pixel
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Interval = Gaea_geo.Interval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Sexp                                                                *)
(* ------------------------------------------------------------------ *)

let test_sexp_basic () =
  check_str "atom" "hello" (Sexp.to_string (Sexp.atom "hello"));
  check_str "quoting" "\"two words\"" (Sexp.to_string (Sexp.atom "two words"));
  check_str "empty atom" "\"\"" (Sexp.to_string (Sexp.atom ""));
  check_str "list" "(a b (c d))"
    (Sexp.to_string
       (Sexp.list
          [ Sexp.atom "a"; Sexp.atom "b";
            Sexp.list [ Sexp.atom "c"; Sexp.atom "d" ] ]))

let test_sexp_parse () =
  (match Sexp.of_string "(a \"b c\" (d))" with
   | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b c"; Sexp.List [ Sexp.Atom "d" ] ]) -> ()
   | Ok other -> Alcotest.failf "wrong parse: %s" (Sexp.to_string other)
   | Error e -> Alcotest.failf "parse error: %s" e);
  check_bool "unterminated list" true (Result.is_error (Sexp.of_string "(a b"));
  check_bool "unterminated string" true (Result.is_error (Sexp.of_string "\"abc"));
  check_bool "stray paren" true (Result.is_error (Sexp.of_string ")"));
  check_bool "two sexps rejected by of_string" true
    (Result.is_error (Sexp.of_string "a b"));
  (match Sexp.of_string_many "a b (c)" with
   | Ok l -> check_int "many" 3 (List.length l)
   | Error e -> Alcotest.failf "many: %s" e)

let test_sexp_escapes () =
  let nasty = "quote\" back\\slash\nnewline\ttab" in
  let s = Sexp.to_string (Sexp.atom nasty) in
  match Sexp.of_string s with
  | Ok (Sexp.Atom a) -> check_str "roundtrip" nasty a
  | _ -> Alcotest.fail "escape roundtrip failed"

let sexp_gen =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then map Sexp.atom (string_size ~gen:printable (int_range 0 8))
            else
              frequency
                [ (2, map Sexp.atom (string_size ~gen:printable (int_range 0 8)));
                  (1, map Sexp.list (list_size (int_range 0 4) (self (n / 2)))) ])
          (min n 12)))

let sexp_arb = QCheck.make ~print:Sexp.to_string sexp_gen

let sexp_roundtrip_prop =
  QCheck.Test.make ~name:"sexp to_string/of_string roundtrip" ~count:500
    sexp_arb (fun s -> Sexp.of_string (Sexp.to_string s) = Ok s)

(* ------------------------------------------------------------------ *)
(* Vtype                                                               *)
(* ------------------------------------------------------------------ *)

let test_vtype_matches () =
  check_bool "any matches image" true
    (Vtype.matches ~expected:Vtype.Any ~actual:Vtype.Image);
  check_bool "setof any matches setof box" true
    (Vtype.matches ~expected:(Vtype.Setof Vtype.Any)
       ~actual:(Vtype.Setof Vtype.Box));
  check_bool "int does not match float" false
    (Vtype.matches ~expected:Vtype.Float ~actual:Vtype.Int);
  check_bool "setof mismatch" false
    (Vtype.matches ~expected:(Vtype.Setof Vtype.Int) ~actual:Vtype.Int)

let test_vtype_strings () =
  List.iter
    (fun t ->
      check_bool (Vtype.to_string t) true
        (Vtype.of_string (Vtype.to_string t) = Some t))
    Vtype.
      [ Int; Float; String; Bool; Image; Composite; Matrix; Vector; Box;
        Abstime; Interval; Setof Image; Any ];
  (* the paper's physical type names alias our logical types *)
  check_bool "char16 -> string" true (Vtype.of_string "char16" = Some Vtype.String);
  check_bool "float4 -> float" true (Vtype.of_string "float4" = Some Vtype.Float);
  check_bool "int2 -> int" true (Vtype.of_string "int2" = Some Vtype.Int)

let test_vtype_base () =
  check_bool "base of nested setof" true
    (Vtype.equal (Vtype.base (Vtype.Setof (Vtype.Setof Vtype.Image))) Vtype.Image)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let sample_image =
  Image.of_array ~label:"t" ~nrow:2 ~ncol:2 Pixel.Float8
    [| 1.5; -2.25; Float.nan; 1e300 |]

let sample_values =
  [ Value.int 42;
    Value.int (-7);
    Value.float 3.14159;
    Value.float Float.nan;
    Value.float infinity;
    Value.string "hello world";
    Value.string "";
    Value.bool true;
    Value.image sample_image;
    Value.composite (Composite.of_bands [ sample_image; sample_image ]);
    Value.matrix
      (Matrix.init ~rows:2 ~cols:2 (fun i j -> float_of_int ((2 * i) + j + 1)));
    Value.vector [| 0.1; 0.2 |];
    Value.box (Box.make ~xmin:(-1.) ~ymin:0. ~xmax:2. ~ymax:3.);
    Value.abstime (Abstime.of_ymd 1986 1 15);
    Value.interval (Interval.of_ymd_pair (1986, 1, 1) (1989, 12, 31));
    Value.set [ Value.int 1; Value.set [ Value.string "nested" ] ];
    Value.set [] ]

(* The value codec through its text: to_sexp, printed, parsed, of_sexp. *)
let of_text s = Result.bind (Sexp.of_string s) Value.of_sexp
let text_roundtrip v = of_text (Sexp.to_string (Value.to_sexp v))

let test_value_serialize_roundtrip () =
  List.iter
    (fun v ->
      match text_roundtrip v with
      | Ok v' ->
        check_bool (Value.to_display v ^ " roundtrips") true (Value.equal v v')
      | Error e -> Alcotest.failf "%s: %s" (Value.to_display v) e)
    sample_values

let test_value_hash_consistent () =
  List.iter
    (fun v ->
      match text_roundtrip v with
      | Ok v' ->
        check_int
          (Value.to_display v ^ " hash stable")
          (Value.content_hash v) (Value.content_hash v')
      | Error e -> Alcotest.failf "%s" e)
    sample_values

(* Families whose raw hashes share their low bits: without the
   avalanche step each collapses into a handful of buckets of any
   Hashtbl keyed by the content hash. *)
let test_value_hash_low_bits () =
  let n = 1000 in
  let family name f =
    let low =
      List.init n (fun i -> Value.content_hash (f i) land 0xfff)
      |> List.sort_uniq compare
    in
    let ratio = float_of_int (List.length low) /. float_of_int n in
    if ratio < 0.8 then
      Alcotest.failf "%s: %d distinct low-12-bit hashes of %d" name
        (List.length low) n
  in
  family "3-day timestamps" (fun i ->
      Value.abstime (Abstime.add_days (Abstime.of_ymd 1980 1 1) (3 * i)));
  family "integer-cornered boxes" (fun i ->
      let x = float_of_int i in
      Value.box (Box.make ~xmin:x ~ymin:0. ~xmax:(x +. 1.) ~ymax:1.));
  family "integral floats" (fun i -> Value.float (float_of_int i));
  family "multiples of 4096" (fun i -> Value.int (i * 4096));
  family "2x2 integral-float images" (fun i ->
      Value.image
        (Image.of_array ~nrow:2 ~ncol:2 Pixel.Float8
           [| float_of_int i; 0.; 0.; 0. |]))

let test_value_types () =
  check_bool "int type" true (Vtype.equal (Value.type_of (Value.int 1)) Vtype.Int);
  check_bool "set type" true
    (Vtype.equal
       (Value.type_of
          (Value.set
             [ Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:0. ~ymax:0.) ]))
       (Vtype.Setof Vtype.Box));
  check_bool "empty set type" true
    (Vtype.equal (Value.type_of (Value.set [])) (Vtype.Setof Vtype.Any))

let test_value_accessors () =
  check_bool "int widens to float" true (Value.to_float (Value.int 3) = Ok 3.);
  check_bool "bad cast" true (Result.is_error (Value.to_int (Value.string "x")));
  check_bool "image to composite" true
    (Result.is_ok (Value.to_composite (Value.image sample_image)));
  check_bool "deserialize garbage" true (Result.is_error (of_text "(nope 1)"));
  check_bool "deserialize malformed box" true
    (Result.is_error (of_text "(box 1 2)"))

(* ------------------------------------------------------------------ *)
(* Operator                                                            *)
(* ------------------------------------------------------------------ *)

let add_op =
  Operator.lift2 ~name:"test_add" Vtype.Int Vtype.Int Vtype.Int (fun a b ->
      match Value.to_int a, Value.to_int b with
      | Ok x, Ok y -> Ok (Value.int (x + y))
      | _ -> Error "bad args")

let test_operator_apply () =
  check_bool "applies" true
    (Operator.apply add_op [ Value.int 2; Value.int 3 ] = Ok (Value.int 5));
  (match Operator.apply add_op [ Value.int 2 ] with
   | Error e -> check_str "arity error" "test_add: expected 2 argument(s), got 1" e
   | Ok _ -> Alcotest.fail "should fail");
  (match Operator.apply add_op [ Value.int 2; Value.string "x" ] with
   | Error e ->
     check_str "type error" "test_add: argument 2 has type string, expected int" e
   | Ok _ -> Alcotest.fail "should fail")

let test_operator_variadic () =
  let sum =
    Operator.make ~name:"test_sum" ~params:[] ~variadic:Vtype.Int
      ~returns:Vtype.Int (fun args ->
        let total =
          List.fold_left
            (fun acc v -> acc + Result.value ~default:0 (Value.to_int v))
            0 args
        in
        Ok (Value.int total))
  in
  check_bool "3 args" true
    (Operator.apply sum [ Value.int 1; Value.int 2; Value.int 3 ]
     = Ok (Value.int 6));
  check_bool "variadic type check" true
    (Result.is_error (Operator.apply sum [ Value.int 1; Value.string "x" ]))

let test_operator_exception_conversion () =
  let bad =
    Operator.lift1 ~name:"test_boom" Vtype.Int Vtype.Int (fun _ ->
        invalid_arg "internal failure")
  in
  match Operator.apply bad [ Value.int 1 ] with
  | Error e -> check_str "converted" "test_boom: internal failure" e
  | Ok _ -> Alcotest.fail "should convert the exception"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_builtins () =
  let reg = Registry.with_builtins () in
  check_bool "has img_nrow" true (Registry.find_operator reg "img_nrow" <> None);
  check_bool "has unsuperclassify" true
    (Registry.find_operator reg "unsuperclassify" <> None);
  check_bool "has pca compound" true (Registry.find_compound reg "pca" <> None);
  check_bool "rich operator suite" true (Registry.operator_count reg > 60);
  check_int "11 primitive classes" 11 (List.length (Registry.all_classes reg))

let test_registry_browse () =
  let reg = Registry.with_builtins () in
  let img_ops = Registry.operators_for_type reg Vtype.Image in
  check_bool "img ops found" true
    (List.exists (fun o -> Operator.name o = "img_subtract") img_ops);
  let classes = Registry.classes_with_operator reg "box_overlaps" in
  check_bool "box class found" true
    (List.exists (fun c -> c.Registry.cname = "box") classes)

let test_registry_duplicates () =
  let reg = Registry.create () in
  check_bool "first ok" true (Result.is_ok (Registry.register_operator reg add_op));
  check_bool "dup rejected" true
    (Result.is_error (Registry.register_operator reg add_op));
  check_bool "class ok" true
    (Result.is_ok (Registry.register_class reg ~name:"c" ~repr:Vtype.Int ()));
  check_bool "dup class" true
    (Result.is_error (Registry.register_class reg ~name:"c" ~repr:Vtype.Int ()))

let test_registry_user_extension () =
  (* the paper's extensibility: users define new operators and use them *)
  let reg = Registry.with_builtins () in
  let double =
    Operator.lift1 ~name:"user_double" Vtype.Image Vtype.Image (fun v ->
        Result.map
          (fun i -> Value.image (Gaea_raster.Band_math.scale 2. i))
          (Value.to_image v))
  in
  check_bool "registered" true (Result.is_ok (Registry.register_operator reg double));
  let img = Image.of_array ~nrow:1 ~ncol:1 Pixel.Float8 [| 21. |] in
  match Registry.apply reg "user_double" [ Value.image img ] with
  | Ok (Value.VImage out) -> Alcotest.(check (float 0.)) "applied" 42. (Image.get out 0 0)
  | _ -> Alcotest.fail "user operator failed"

let test_pca_compound_equals_native () =
  (* the Fig 4 network and the native implementation run the same
     Matrix functions, so they agree bit for bit *)
  let reg = Registry.with_builtins () in
  let scene = Gaea_raster.Synthetic.landsat_scene ~seed:20 ~nrow:12 ~ncol:12 ~bands:3 () in
  let c = Value.composite scene.Gaea_raster.Synthetic.composite in
  let k = Value.int 2 in
  match
    Registry.apply reg "pca" [ c; k ], Registry.apply reg "pca_native" [ c; k ]
  with
  | Ok (Value.VComposite net), Ok (Value.VComposite native) ->
    check_int "bands" (Composite.n_bands native) (Composite.n_bands net);
    check_bool "bit-identical" true (Composite.equal net native)
  | Error e, _ | _, Error e -> Alcotest.failf "pca failed: %s" e
  | _ -> Alcotest.fail "unexpected value kinds"

let test_spca_compound_equals_native () =
  let reg = Registry.with_builtins () in
  let scene = Gaea_raster.Synthetic.landsat_scene ~seed:21 ~nrow:10 ~ncol:10 ~bands:2 () in
  let c = Value.composite scene.Gaea_raster.Synthetic.composite in
  match
    Registry.apply reg "spca" [ c; Value.int 2 ],
    Registry.apply reg "spca_native" [ c; Value.int 2 ]
  with
  | Ok (Value.VComposite net), Ok (Value.VComposite native) ->
    check_bool "bit-identical" true (Composite.equal net native)
  | Error e, _ | _, Error e -> Alcotest.failf "spca failed: %s" e
  | _ -> Alcotest.fail "unexpected value kinds"

let test_registry_template_ops () =
  let reg = Registry.with_builtins () in
  let boxes =
    Value.set
      [ Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:10. ~ymax:10.);
        Value.box (Box.make ~xmin:5. ~ymin:5. ~xmax:15. ~ymax:15.) ]
  in
  check_bool "common_boxes overlap" true
    (Registry.apply reg "common_boxes" [ boxes ] = Ok (Value.bool true));
  let disjoint =
    Value.set
      [ Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.);
        Value.box (Box.make ~xmin:5. ~ymin:5. ~xmax:6. ~ymax:6.) ]
  in
  check_bool "common_boxes disjoint" true
    (Registry.apply reg "common_boxes" [ disjoint ] = Ok (Value.bool false));
  check_bool "card" true
    (Registry.apply reg "card" [ boxes ] = Ok (Value.int 2));
  check_bool "anyof" true
    (Result.is_ok (Registry.apply reg "anyof" [ boxes ]));
  check_bool "anyof empty set errors" true
    (Result.is_error (Registry.apply reg "anyof" [ Value.set [] ]))

(* ------------------------------------------------------------------ *)
(* Dataflow                                                            *)
(* ------------------------------------------------------------------ *)

let lookup_add name = if name = "test_add" then Some add_op else None

let test_dataflow_simple () =
  (* (a + b) + 10 *)
  let open Dataflow in
  match
    make ~name:"addnet" ~input_types:[ Vtype.Int; Vtype.Int ]
      ~returns:Vtype.Int
      ~nodes:
        [ node 1 "test_add" [ From_input 0; From_input 1 ];
          node 2 "test_add" [ From_node 1; From_const (Value.int 10) ] ]
      (From_node 2)
  with
  | Error e -> Alcotest.failf "make: %s" e
  | Ok net ->
    let op = Dataflow.to_operator ~lookup:lookup_add net in
    (match Operator.apply op [ Value.int 3; Value.int 4 ] with
     | Ok (Value.VInt 17) -> ()
     | Ok v -> Alcotest.failf "wrong result %s" (Value.to_display v)
     | Error e -> Alcotest.failf "execute: %s" e);
    check_bool "input arity checked" true
      (Result.is_error (Operator.apply op [ Value.int 3 ]));
    check_bool "input type checked" true
      (Result.is_error (Operator.apply op [ Value.int 3; Value.string "x" ]));
    check_bool "describe mentions ops" true
      (String.length (Dataflow.describe net) > 20)

let test_dataflow_validation () =
  let open Dataflow in
  let mk nodes output =
    make ~name:"bad" ~input_types:[ Vtype.Int ] ~returns:Vtype.Int ~nodes output
  in
  check_bool "dup id" true
    (Result.is_error
       (mk [ node 1 "f" [ From_input 0 ]; node 1 "g" [ From_input 0 ] ]
          (From_node 1)));
  check_bool "unknown node ref" true
    (Result.is_error (mk [ node 1 "f" [ From_node 9 ] ] (From_node 1)));
  check_bool "bad input index" true
    (Result.is_error (mk [ node 1 "f" [ From_input 3 ] ] (From_node 1)));
  check_bool "cycle" true
    (Result.is_error
       (mk
          [ node 1 "f" [ From_node 2 ]; node 2 "g" [ From_node 1 ] ]
          (From_node 2)));
  check_bool "unknown output" true
    (Result.is_error (mk [ node 1 "f" [ From_input 0 ] ] (From_node 5)))

let test_dataflow_unknown_operator () =
  let open Dataflow in
  match
    make ~name:"n" ~input_types:[ Vtype.Int ] ~returns:Vtype.Int
      ~nodes:[ node 1 "nonexistent" [ From_input 0 ] ]
      (From_node 1)
  with
  | Error e -> Alcotest.failf "make: %s" e
  | Ok net ->
    let op = Dataflow.to_operator ~lookup:(fun _ -> None) net in
    (match Operator.apply op [ Value.int 1 ] with
     | Error e -> check_str "reports" "n: unknown operator nonexistent" e
     | Ok _ -> Alcotest.fail "should fail")

let test_dataflow_to_operator () =
  let open Dataflow in
  match
    make ~name:"inc" ~input_types:[ Vtype.Int ] ~returns:Vtype.Int
      ~nodes:[ node 1 "test_add" [ From_input 0; From_const (Value.int 1) ] ]
      (From_node 1)
  with
  | Error e -> Alcotest.failf "make: %s" e
  | Ok net ->
    let op = Dataflow.to_operator ~lookup:lookup_add net in
    check_bool "wrapped works" true
      (Operator.apply op [ Value.int 41 ] = Ok (Value.int 42))


(* random value generator for the roundtrip property *)
let value_gen =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self n ->
            let scalar =
              oneof
                [ map Value.int int;
                  map Value.float (float_range (-1e6) 1e6);
                  map Value.string (string_size ~gen:printable (int_range 0 12));
                  map Value.bool bool;
                  map
                    (fun s -> Value.abstime (Abstime.of_seconds s))
                    (int_range (-1000000000) 1000000000);
                  map2
                    (fun s len ->
                      Value.interval
                        (Interval.make (Abstime.of_seconds s)
                           (Abstime.of_seconds (s + len))))
                    (int_range (-1000000) 1000000)
                    (int_range 0 100000);
                  map
                    (fun (x1, y1, x2, y2) ->
                      Value.box
                        (Box.make ~xmin:(Float.min x1 x2)
                           ~ymin:(Float.min y1 y2) ~xmax:(Float.max x1 x2)
                           ~ymax:(Float.max y1 y2)))
                    (quad (float_range (-100.) 100.) (float_range (-100.) 100.)
                       (float_range (-100.) 100.) (float_range (-100.) 100.));
                  map
                    (fun vs -> Value.vector (Array.of_list vs))
                    (list_size (int_range 0 6) (float_range (-10.) 10.));
                  map
                    (fun cells ->
                      Value.image
                        (Image.of_array ~nrow:3 ~ncol:2 Pixel.Float8
                           (Array.of_list cells)))
                    (list_size (return 6) (float_range (-10.) 10.))
                ]
            in
            if n <= 0 then scalar
            else
              frequency
                [ (4, scalar);
                  (1, map Value.set (list_size (int_range 0 3) (self (n / 2)))) ])
          (min size 6)))

let value_arb = QCheck.make ~print:Value.to_display value_gen

let value_roundtrip_prop =
  QCheck.Test.make ~name:"random value serialize/deserialize roundtrip"
    ~count:300 value_arb (fun v ->
      match text_roundtrip v with
      | Ok v' -> Value.equal v v' && Value.content_hash v = Value.content_hash v'
      | Error _ -> false)

let scalar_pair_gen =
  QCheck.Gen.(
    let scalar =
      oneof
        [ map Value.int int;
          map Value.float (float_range (-1e6) 1e6);
          map Value.string (string_size ~gen:printable (int_range 0 8)) ]
    in
    pair scalar scalar)

let vorder_antisym_prop =
  QCheck.Test.make ~name:"vorder: compare antisymmetric on same-kind scalars"
    ~count:300 (QCheck.make scalar_pair_gen) (fun (a, b) ->
      match
        Gaea_storage.Vorder.compare a b, Gaea_storage.Vorder.compare b a
      with
      | Ok x, Ok y -> (x > 0) = (y < 0) && (x = 0) = (y = 0)
      | Error _, Error _ -> true
      | _ -> false)

let () =
  Alcotest.run "adt"
    [ ( "sexp",
        [ tc "rendering" test_sexp_basic;
          tc "parsing" test_sexp_parse;
          tc "escapes" test_sexp_escapes ] );
      qsuite "sexp-props" [ sexp_roundtrip_prop ];
      qsuite "value-props" [ value_roundtrip_prop; vorder_antisym_prop ];
      ( "vtype",
        [ tc "matches" test_vtype_matches;
          tc "strings" test_vtype_strings;
          tc "base" test_vtype_base ] );
      ( "value",
        [ tc "serialize roundtrip" test_value_serialize_roundtrip;
          tc "hash consistency" test_value_hash_consistent;
          tc "hash low bits vary" test_value_hash_low_bits;
          tc "types" test_value_types;
          tc "accessors" test_value_accessors ] );
      ( "operator",
        [ tc "apply/typecheck" test_operator_apply;
          tc "variadic" test_operator_variadic;
          tc "exception conversion" test_operator_exception_conversion ] );
      ( "registry",
        [ tc "builtins" test_registry_builtins;
          tc "browse" test_registry_browse;
          tc "duplicates" test_registry_duplicates;
          tc "user extension" test_registry_user_extension;
          tc "pca net = native" test_pca_compound_equals_native;
          tc "spca net = native" test_spca_compound_equals_native;
          tc "template operators" test_registry_template_ops ] );
      ( "dataflow",
        [ tc "simple network" test_dataflow_simple;
          tc "validation" test_dataflow_validation;
          tc "unknown operator" test_dataflow_unknown_operator;
          tc "to_operator" test_dataflow_to_operator ] ) ]
