(* Tests for the gaea check static analyzer: one fixture per
   diagnostic code, rendering, and the no-false-positives property
   (a process the deriver executes successfully produces zero
   error-severity findings). *)

open Gaea_core
module Analysis = Gaea_analysis.Analysis
module Diagnostic = Gaea_analysis.Diagnostic
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Registry = Gaea_adt.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Gaea_error.to_string e)

let oks = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* Fixture helpers                                                     *)
(* ------------------------------------------------------------------ *)

let define_class k ~name ?derived_by attrs =
  ok
    (Kernel.define_class k
       (ok (Schema.define ~name ~attributes:attrs ?derived_by ())))

let image_attrs =
  [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
    ("timestamp", Vtype.Abstime) ]

(* src and out (both with full extents), plus noext without extents *)
let base_kernel () =
  let k = Kernel.create () in
  define_class k ~name:"src" image_attrs;
  define_class k ~name:"out" image_attrs;
  define_class k ~name:"noext" [ ("data", Vtype.Image) ];
  k

let m target rhs = { Template.target; rhs }
let attr a b = Template.Attr_of (a, b)

(* a complete, well-typed mapping set for the [out] class *)
let full_mappings ?(arg = "a") () =
  [ m "data" (attr arg "data");
    m "spatialextent" (attr arg "spatialextent");
    m "timestamp" (attr arg "timestamp") ]

let primitive ?(name = "p") ?(output = "out") ?(args = []) ?params
    ~assertions ~mappings () =
  let args =
    if args = [] then [ Process.scalar_arg "a" "src" ] else args
  in
  ok
    (Process.define_primitive ~name ~output_class:output ~args ?params
       ~template:(Template.make ~assertions ~mappings)
       ())

let codes_of ds = List.map (fun d -> d.Diagnostic.code) ds

let has_code code ds = List.mem code (codes_of ds)

let assert_code ?(k = base_kernel ()) code p =
  let ds = Analysis.check_process k p in
  if not (has_code code ds) then
    Alcotest.failf "expected %s, got [%s]" code
      (String.concat "; " (List.map Diagnostic.to_string ds))

let assert_no_errors ds =
  if Diagnostic.has_errors ds then
    Alcotest.failf "unexpected errors: %s" (Diagnostic.render ds)

(* ------------------------------------------------------------------ *)
(* Pass 1: template well-formedness                                    *)
(* ------------------------------------------------------------------ *)

let test_ga001_bad_mapping_target () =
  assert_code "GA001"
    (primitive ~assertions:[]
       ~mappings:(m "nosuchattr" (attr "a" "data") :: full_mappings ())
       ())

let test_ga002_unmapped_attr () =
  assert_code "GA002"
    (primitive ~assertions:[]
       ~mappings:[ m "data" (attr "a" "data") ]
       ())

let test_ga003_undeclared_argument () =
  (* define_primitive rejects templates referencing undeclared
     arguments, but Process.edit does not re-validate a replacement
     template — exactly the hole the analyzer covers *)
  let p0 = primitive ~assertions:[] ~mappings:(full_mappings ()) () in
  let bad =
    Template.make ~assertions:[]
      ~mappings:(m "data" (attr "ghost" "data") :: List.tl (full_mappings ()))
  in
  let p = ok (Process.edit p0 ~name:"p3" ~template:bad ()) in
  assert_code "GA003" p

let test_ga004_unknown_attribute () =
  assert_code "GA004"
    (primitive ~assertions:[]
       ~mappings:(m "data" (attr "a" "nodata") :: List.tl (full_mappings ()))
       ())

let test_ga005_unknown_operator () =
  assert_code "GA005"
    (primitive ~assertions:[]
       ~mappings:
         (m "data" (Template.Apply ("frobnicate", [ attr "a" "data" ]))
         :: List.tl (full_mappings ()))
       ())

let test_ga006_arity_mismatch () =
  (* img_scale : float -> image -> image, called with 1 arg *)
  assert_code "GA006"
    (primitive ~assertions:[]
       ~mappings:
         (m "data" (Template.Apply ("img_scale", [ attr "a" "data" ]))
         :: List.tl (full_mappings ()))
       ())

let test_ga007_type_mismatch () =
  (* img_mean : image -> float fed a box *)
  assert_code "GA007"
    (primitive
       ~assertions:
         [ Template.Expr_true
             (Template.Apply
                ( "lt",
                  [ Template.Apply
                      ("img_mean", [ attr "a" "spatialextent" ]);
                    Template.Const (Value.float 1.0) ] )) ]
       ~mappings:(full_mappings ()) ())

let test_ga007_mapping_type () =
  (* box mapped into an image attribute *)
  assert_code "GA007"
    (primitive ~assertions:[]
       ~mappings:
         (m "data" (attr "a" "spatialextent") :: List.tl (full_mappings ()))
       ())

let test_ga007_int_widens_to_float () =
  (* storage coerces Int -> Float on insert, so this must NOT error *)
  let k = base_kernel () in
  define_class k ~name:"fout"
    [ ("level", Vtype.Float); ("spatialextent", Vtype.Box);
      ("timestamp", Vtype.Abstime) ];
  let p =
    primitive ~output:"fout" ~assertions:[]
      ~mappings:
        [ m "level" (Template.Const (Value.int 3));
          m "spatialextent" (attr "a" "spatialextent");
          m "timestamp" (attr "a" "timestamp") ]
      ()
  in
  assert_no_errors (Analysis.check_process k p)

let test_ga008_unbound_parameter () =
  (* the constructors reject unbound parameters, so a registered
     process can never trip GA008; the analyzer keeps the check for
     robustness.  Assert the constructor-level guarantee and that the
     code stays catalogued. *)
  check_bool "constructor rejects" true
    (Result.is_error
       (Process.define_primitive ~name:"p" ~output_class:"out"
          ~args:[ Process.scalar_arg "a" "src" ]
          ~template:
            (Template.make ~assertions:[]
               ~mappings:
                 (m "data" (Template.Param "ghost")
                 :: List.tl (full_mappings ())))
          ()));
  check_bool "catalogued" true (Analysis.describe "GA008" <> None)

let test_ga009_common_without_extent () =
  assert_code "GA009"
    (primitive
       ~args:[ Process.scalar_arg "a" "noext" ]
       ~assertions:[ Template.Common ("a", "spatialextent") ]
       ~mappings:[ m "data" (attr "a" "data") ]
       ~output:"noext" ())

let test_ga010_duplicate_mapping () =
  assert_code "GA010"
    (primitive ~assertions:[]
       ~mappings:(m "data" (attr "a" "data") :: full_mappings ())
       ())

let test_ga013_unknown_class () =
  assert_code "GA013"
    (primitive ~output:"ghost" ~assertions:[] ~mappings:[] ())

(* ------------------------------------------------------------------ *)
(* Pass 2: cardinality satisfiability                                  *)
(* ------------------------------------------------------------------ *)

let test_ga011_contradictory_cards () =
  assert_code "GA011"
    (primitive
       ~args:[ Process.setof_arg ~card_min:2 ~card_max:4 "xs" "src" ]
       ~assertions:[ Template.Card_ge ("xs", 5) ]
       ~mappings:(full_mappings ~arg:"xs" ()) ())

let test_ga011_eq_vs_eq () =
  assert_code "GA011"
    (primitive
       ~args:[ Process.setof_arg "xs" "src" ]
       ~assertions:[ Template.Card_eq ("xs", 3); Template.Card_eq ("xs", 2) ]
       ~mappings:(full_mappings ~arg:"xs" ()) ())

let test_ga012_card_on_scalar () =
  assert_code "GA012"
    (primitive
       ~assertions:[ Template.Card_eq ("a", 2) ]
       ~mappings:(full_mappings ()) ())

let test_cards_satisfiable_ok () =
  (* spec 3..3 + card = 3: exactly Fig 3, must stay clean *)
  let k = base_kernel () in
  let p =
    primitive
      ~args:[ Process.setof_arg ~card_min:3 ~card_max:3 "xs" "src" ]
      ~assertions:[ Template.Card_eq ("xs", 3) ]
      ~mappings:
        [ m "data" (Template.Anyof (attr "xs" "data"));
          m "spatialextent" (Template.Anyof (attr "xs" "spatialextent"));
          m "timestamp" (Template.Anyof (attr "xs" "timestamp")) ]
      ()
  in
  assert_no_errors (Analysis.check_process k p)

(* ------------------------------------------------------------------ *)
(* Pass 3: compound nets                                               *)
(* ------------------------------------------------------------------ *)

(* a registered leaf primitive src -> out, plus the classes *)
let compound_kernel () =
  let k = base_kernel () in
  let leaf =
    primitive ~name:"leaf" ~assertions:[] ~mappings:(full_mappings ()) ()
  in
  ok (Kernel.define_process k leaf);
  k

let step ?(inputs = [ ("a", Process.From_arg "x") ]) name =
  { Process.step_process = name; step_inputs = inputs }

let compound ?(name = "c") ?(output = "out") ?(args = []) steps =
  let args = if args = [] then [ Process.scalar_arg "x" "src" ] else args in
  ok (Process.define_compound ~name ~output_class:output ~args ~steps ())

let test_ga020_direct_recursion () =
  let k = compound_kernel () in
  (* version 1 is sound; version 2 steps through its own name, which
     expansion resolves to the latest version — itself *)
  ok (Kernel.define_process k (compound ~name:"loop" [ step "leaf" ]));
  let v2 =
    Process.with_version (compound ~name:"loop" [ step "loop" ]) 2
  in
  ok (Kernel.define_process k v2);
  assert_code ~k "GA020" v2

let test_ga020_mutual_recursion () =
  let k = compound_kernel () in
  ok (Kernel.define_process k (compound ~name:"a2" [ step "leaf" ]));
  ok (Kernel.define_process k (compound ~name:"b2" [ step "a2" ]));
  let a2' = Process.with_version (compound ~name:"a2" [ step "b2" ]) 2 in
  ok (Kernel.define_process k a2');
  assert_code ~k "GA020" a2'

let test_ga021_unknown_subprocess () =
  let k = compound_kernel () in
  assert_code ~k "GA021" (compound [ step "ghost" ])

let test_ga022_class_mismatch () =
  let k = compound_kernel () in
  (* leaf expects src, gets out *)
  assert_code ~k "GA022"
    (compound
       ~args:[ Process.scalar_arg "x" "out" ]
       [ step "leaf" ])

let test_ga022_downgrades_when_related () =
  let k = compound_kernel () in
  let concepts = Kernel.concepts k in
  let _ =
    ok (Concept.define concepts ~name:"scene" ~members:[ "src"; "out" ] ())
  in
  let c =
    compound ~args:[ Process.scalar_arg "x" "out" ] [ step "leaf" ]
  in
  let ds = Analysis.check_process k c in
  check_bool "GA022 present" true (has_code "GA022" ds);
  (* related classes downgrade the mismatch to a warning *)
  assert_no_errors ds

let test_ga023_dead_step () =
  let k = compound_kernel () in
  assert_code ~k "GA023" (compound [ step "leaf"; step "leaf" ])

let test_ga024_unbound_step_arg () =
  let k = compound_kernel () in
  assert_code ~k "GA024" (compound [ step ~inputs:[] "leaf" ])

let test_ga024_unknown_binding_name () =
  let k = compound_kernel () in
  assert_code ~k "GA024"
    (compound
       [ step
           ~inputs:[ ("a", Process.From_arg "x"); ("zz", Process.From_arg "x") ]
           "leaf" ])

let test_ga025_card_disjoint () =
  let k = compound_kernel () in
  (* leaf's argument is scalar (1..1); a SETOF 2.. compound argument
     can never satisfy it *)
  assert_code ~k "GA025"
    (compound
       ~args:[ Process.setof_arg ~card_min:2 "x" "src" ]
       [ step "leaf" ])

let test_ga026_final_class_mismatch () =
  let k = compound_kernel () in
  define_class k ~name:"other" image_attrs;
  assert_code ~k "GA026" (compound ~output:"other" [ step "leaf" ])

let test_compound_clean () =
  let k = compound_kernel () in
  let c = compound [ step "leaf" ] in
  assert_no_errors (Analysis.check_process k c)

(* ------------------------------------------------------------------ *)
(* Net + version lints (check_kernel)                                  *)
(* ------------------------------------------------------------------ *)

let test_ga027_ga028_empty_net () =
  let k = base_kernel () in
  define_class k ~name:"derived_out" ~derived_by:"p" image_attrs;
  ok
    (Kernel.define_process k
       (primitive ~output:"derived_out" ~assertions:[]
          ~mappings:(full_mappings ()) ()));
  let ds = Analysis.check_kernel k in
  (* no data loaded: the process can never fire, its output class is
     unreachable — both informational *)
  check_bool "GA027" true (has_code "GA027" ds);
  check_bool "GA028" true (has_code "GA028" ds);
  assert_no_errors ds

let executed_kernel () =
  (* Fig 3 end to end: install, load bands, derive land cover *)
  let k = Kernel.create () in
  ok (Figures.install_all k);
  let _ = ok (Figures.load_tm_bands k ~seed:7 ~nrow:8 ~ncol:8 ()) in
  let _ = ok (Derivation.request k Figures.land_cover_class) in
  k

let test_ga030_ga031_superseded () =
  let k = executed_kernel () in
  let p20 = Option.get (Kernel.find_process k Figures.p20_name) in
  ok
    (Kernel.define_process k
       (Process.with_version ~derived_from:(Process.key p20) p20
          (p20.Process.version + 1)));
  let ds = Analysis.check_kernel k in
  check_bool "GA030" true (has_code "GA030" ds);
  check_bool "GA031" true (has_code "GA031" ds);
  assert_no_errors ds

(* GA030/GA031 by their definition, over the whole task log and every
   live derived object: the elements a check must flag *)
let superseded_reference k =
  let old (t : Task.t) =
    match Kernel.latest_process_version k t.Task.process with
    | Some latest -> latest > t.Task.process_version
    | None -> false
  in
  List.filter_map
    (fun (t : Task.t) ->
      if old t then Some (Printf.sprintf "task %d" t.Task.task_id) else None)
    (Kernel.tasks k)
  @ List.concat_map
      (fun (sch : Schema.t) ->
        if not (Schema.is_derived sch) then []
        else
          List.filter_map
            (fun oid ->
              match Kernel.task_producing k oid with
              | Some t when old t ->
                Some
                  (Printf.sprintf "object %d of class %s" oid
                     sch.Schema.c_name)
              | _ -> None)
            (Kernel.objects_of_class k sch.Schema.c_name))
      (Kernel.classes k)

let version_elements ds =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = "GA030" || d.Diagnostic.code = "GA031" then
        d.Diagnostic.element
      else None)
    ds

(* The Fig 3 kernel after its DERIVE, with one band updated (so its
   land cover is stale) and no process re-versioned: CHECK ALL reads
   exactly what it did when it walked the whole task log. *)
let test_check_all_without_reversions () =
  let k = Kernel.create () in
  ok (Figures.install_all k);
  let bands = ok (Figures.load_tm_bands k ~seed:7 ~nrow:8 ~ncol:8 ()) in
  let _ = ok (Derivation.request k Figures.land_cover_class) in
  ok
    (Kernel.update_object k ~cls:Figures.landsat_class (List.hd bands)
       [ ("data",
          Value.image
            (Gaea_raster.Synthetic.value_noise ~seed:3 ~nrow:8 ~ncol:8 ())) ]);
  check_bool "tasks were fired" true (Kernel.tasks k <> []);
  let ds = Analysis.check_kernel k in
  Alcotest.(check (list string)) "no superseded element" []
    (superseded_reference k);
  (* recorded when the check still read every task *)
  let unreachable proc =
    Printf.sprintf
      "info[GA027] process %s v1: no firing sequence from the current data \
       can run %s v1"
      proc proc
  in
  Alcotest.(check string) "diagnostics"
    (String.concat "\n"
       (List.map unreachable
          [ "desert-rainfall-200"; "desert-rainfall-250"; "ndvi-derivation";
            "veg-change-divide"; "veg-change-spca"; "veg-change-subtract" ]
       @ [ "info[GA028]: derived class ndvi_map cannot be reached from the \
            current data";
           "info[GA033] process unsupervised-classification v1 (object 4 of \
            class land_cover): object 4 is stale: inputs of task 1 changed \
            since unsupervised-classification v1 ran \u{2014} REFRESH \
            land_cover 4 to recompute";
           "0 error(s), 0 warning(s), 8 info(s)" ]))
    (Diagnostic.render ds);
  (* once P20 has a second version, the check flags the reference's
     elements *)
  let p20 = Option.get (Kernel.find_process k Figures.p20_name) in
  ok
    (Kernel.define_process k
       (Process.with_version ~derived_from:(Process.key p20) p20
          (p20.Process.version + 1)));
  let expected = superseded_reference k in
  check_bool "a superseded element" true (expected <> []);
  Alcotest.(check (list string)) "GA030/GA031 elements"
    (List.sort compare expected)
    (List.sort compare (version_elements (Analysis.check_kernel k)))

let test_ga032_derived_by_unknown () =
  let k = base_kernel () in
  define_class k ~name:"dangling" ~derived_by:"ghost" image_attrs;
  check_bool "GA032" true (has_code "GA032" (Analysis.check_kernel k))

let test_figures_lint_clean () =
  (* every shipped fixture process must come out error-free, before
     and after running the paper's derivations *)
  let k = Kernel.create () in
  ok (Figures.install_all k);
  assert_no_errors (Analysis.check_kernel k);
  assert_no_errors (Analysis.check_kernel (executed_kernel ()))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let test_render_and_json () =
  let k = base_kernel () in
  let ds =
    Analysis.check_process k
      (primitive ~assertions:[]
         ~mappings:(m "nosuchattr" (attr "a" "data") :: full_mappings ())
         ())
  in
  let text = Diagnostic.render ds in
  check_bool "code in text" true (contains_sub ~sub:"error[GA001]" text);
  let json = Diagnostic.render_json ds in
  check_bool "array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  check_bool "fields" true (contains_sub ~sub:"\"code\":\"GA001\"" json)

let test_severity_order () =
  let ds =
    Diagnostic.sort
      [ Diagnostic.make ~code:"GA027" ~severity:Diagnostic.Info "i";
        Diagnostic.make ~code:"GA001" ~severity:Diagnostic.Error "e";
        Diagnostic.make ~code:"GA010" ~severity:Diagnostic.Warning "w" ]
  in
  check_bool "order" true
    (codes_of ds = [ "GA001"; "GA010"; "GA027" ]);
  check_int "errors" 1 (Diagnostic.count Diagnostic.Error ds);
  check_bool "has_errors" true (Diagnostic.has_errors ds)

(* ------------------------------------------------------------------ *)
(* Property: successful execution implies zero error findings          *)
(* ------------------------------------------------------------------ *)

(* Generate small random primitive processes over src -> out, bind
   random inputs, execute; whenever the deriver succeeds, the analyzer
   must report no error-severity diagnostic for that process. *)

let apply_op k name vs =
  oks (Registry.apply (Kernel.registry k) name vs)

let gen_process =
  QCheck.Gen.(
    let* setof = bool in
    let* card_min = int_range 1 3 in
    let* card_max_opt =
      oneof [ return None; map (fun d -> Some (card_min + d)) (int_range 0 2) ]
    in
    let* card_assert =
      oneof [ return None; map (fun n -> Some n) (int_range 1 4) ]
    in
    let* scale = oneof [ return None; map (fun f -> Some f) (float_range 0.5 2.0) ] in
    let* drop_mapping = frequency [ (4, return false); (1, return true) ] in
    let* common = bool in
    let* n_objects = int_range 1 4 in
    return (setof, card_min, card_max_opt, card_assert, scale, drop_mapping, common, n_objects))

let print_gen (setof, cmin, cmax, card_assert, scale, drop, common, n) =
  Printf.sprintf
    "setof=%b card=%d..%s assert=%s scale=%s drop=%b common=%b n=%d" setof
    cmin
    (match cmax with None -> "inf" | Some m -> string_of_int m)
    (match card_assert with None -> "-" | Some n -> string_of_int n)
    (match scale with None -> "-" | Some f -> string_of_float f)
    drop common n

let prop_no_false_positives
    (setof, card_min, card_max_opt, card_assert, scale, drop_mapping, common, n_objects) =
  let k = base_kernel () in
  let arg_name = if setof then "xs" else "a" in
  let args =
    if setof then
      [ Process.setof_arg ~card_min ?card_max:card_max_opt "xs" "src" ]
    else [ Process.scalar_arg "a" "src" ]
  in
  let base_data = attr arg_name "data" in
  let one e = if setof then Template.Anyof e else e in
  let data_rhs =
    let d = one base_data in
    match scale with
    | None -> d
    | Some _ -> Template.Apply ("img_scale", [ Template.Param "f"; d ])
  in
  let params =
    match scale with None -> [] | Some f -> [ ("f", Value.float f) ]
  in
  let assertions =
    (if common then [ Template.Common (arg_name, "spatialextent") ] else [])
    @
    match card_assert with
    | Some n when setof -> [ Template.Card_eq (arg_name, n) ]
    | _ -> []
  in
  let mappings =
    [ m "data" data_rhs;
      m "spatialextent" (one (attr arg_name "spatialextent")) ]
    @
    if drop_mapping then []
    else [ m "timestamp" (one (attr arg_name "timestamp")) ]
  in
  match
    Process.define_primitive ~name:"q" ~output_class:"out" ~args ~params
      ~template:(Template.make ~assertions ~mappings)
      ()
  with
  | Error _ -> true (* rejected at definition: nothing to analyze *)
  | Ok p ->
    (* shared extent so common() can hold *)
    let extent = apply_op k "make_box" (List.map Value.float [ 0.; 0.; 10.; 10. ]) in
    let stamp = apply_op k "make_abstime" (List.map Value.int [ 1988; 6; 1 ]) in
    let oids =
      List.init n_objects (fun i ->
          ok
            (Kernel.insert_object k ~cls:"src"
               [ ("data", apply_op k "synth_rainfall" (List.map Value.int [ i; 6; 6 ]));
                 ("spatialextent", extent); ("timestamp", stamp) ]))
    in
    (match Kernel.execute_process k p ~inputs:[ (arg_name, oids) ] with
     | Error _ -> true (* runtime failures carry no static obligation *)
     | Ok _ ->
       (* execution succeeded: the analyzer must agree *)
       not (Diagnostic.has_errors (Analysis.check_process k p)))

let prop_executed_clean =
  QCheck.Test.make
    ~name:"deriver success implies zero error-severity findings" ~count:300
    (QCheck.make ~print:print_gen gen_process)
    prop_no_false_positives

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "template",
        [ tc "GA001 bad mapping target" test_ga001_bad_mapping_target;
          tc "GA002 unmapped attribute" test_ga002_unmapped_attr;
          tc "GA003 undeclared argument" test_ga003_undeclared_argument;
          tc "GA004 unknown attribute" test_ga004_unknown_attribute;
          tc "GA005 unknown operator" test_ga005_unknown_operator;
          tc "GA006 arity mismatch" test_ga006_arity_mismatch;
          tc "GA007 operator type mismatch" test_ga007_type_mismatch;
          tc "GA007 mapping type mismatch" test_ga007_mapping_type;
          tc "GA007 int widens to float" test_ga007_int_widens_to_float;
          tc "GA008 unbound parameter" test_ga008_unbound_parameter;
          tc "GA009 common without extent" test_ga009_common_without_extent;
          tc "GA010 duplicate mapping" test_ga010_duplicate_mapping;
          tc "GA013 unknown class" test_ga013_unknown_class ] );
      ( "cardinality",
        [ tc "GA011 spec vs assertion" test_ga011_contradictory_cards;
          tc "GA011 eq vs eq" test_ga011_eq_vs_eq;
          tc "GA012 card on scalar" test_ga012_card_on_scalar;
          tc "satisfiable stays clean" test_cards_satisfiable_ok ] );
      ( "compound",
        [ tc "GA020 direct recursion" test_ga020_direct_recursion;
          tc "GA020 mutual recursion" test_ga020_mutual_recursion;
          tc "GA021 unknown sub-process" test_ga021_unknown_subprocess;
          tc "GA022 class mismatch" test_ga022_class_mismatch;
          tc "GA022 concept downgrade" test_ga022_downgrades_when_related;
          tc "GA023 dead step" test_ga023_dead_step;
          tc "GA024 unbound step arg" test_ga024_unbound_step_arg;
          tc "GA024 unknown binding" test_ga024_unknown_binding_name;
          tc "GA025 disjoint cardinality" test_ga025_card_disjoint;
          tc "GA026 final class mismatch" test_ga026_final_class_mismatch;
          tc "clean compound" test_compound_clean ] );
      ( "kernel",
        [ tc "GA027/GA028 empty net" test_ga027_ga028_empty_net;
          tc "GA030/GA031 superseded" test_ga030_ga031_superseded;
          tc "CHECK ALL without re-versions" test_check_all_without_reversions;
          tc "GA032 derived by unknown" test_ga032_derived_by_unknown;
          tc "figures lint clean" test_figures_lint_clean ] );
      ( "render",
        [ tc "text and json" test_render_and_json;
          tc "severity order" test_severity_order ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_executed_clean ] ) ]
