(* Tests for the Gaea kernel: schema, concepts, templates, processes,
   tasks, execution, derivation, lineage, experiments, figures and the
   file-based baseline. *)

open Gaea_core
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Image = Gaea_raster.Image
module Pixel = Gaea_raster.Pixel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Gaea_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_define () =
  let cls =
    ok
      (Schema.define ~name:"landcover"
         ~attributes:
           [ ("area", Vtype.String); ("data", Vtype.Image);
             ("spatialextent", Vtype.Box); ("timestamp", Vtype.Abstime) ]
         ~derived_by:"classify" ())
  in
  (* conventional extent attributes are picked up automatically *)
  check_bool "spatial found" true (cls.Schema.spatial_attr = Some "spatialextent");
  check_bool "temporal found" true (cls.Schema.temporal_attr = Some "timestamp");
  check_bool "derived" true (Schema.is_derived cls);
  check_bool "derived_by" true (Schema.derived_by cls = Some "classify");
  check_bool "attr type" true (Schema.attr_type cls "data" = Some Vtype.Image);
  Alcotest.(check (list string)) "attr names"
    [ "area"; "data"; "spatialextent"; "timestamp" ]
    (Schema.attr_names cls)

let test_schema_validation () =
  check_bool "empty name" true
    (Result.is_error (Schema.define ~name:"" ~attributes:[ ("a", Vtype.Int) ] ()));
  check_bool "no attrs" true
    (Result.is_error (Schema.define ~name:"x" ~attributes:[] ()));
  check_bool "dup attrs" true
    (Result.is_error
       (Schema.define ~name:"x"
          ~attributes:[ ("a", Vtype.Int); ("a", Vtype.Int) ] ()));
  check_bool "bad spatial type" true
    (Result.is_error
       (Schema.define ~name:"x" ~attributes:[ ("s", Vtype.Int) ] ~spatial:"s" ()));
  check_bool "missing spatial attr" true
    (Result.is_error
       (Schema.define ~name:"x" ~attributes:[ ("a", Vtype.Int) ] ~spatial:"s" ()))

let test_schema_pp () =
  let cls =
    ok
      (Schema.define ~name:"c"
         ~attributes:[ ("data", Vtype.Image); ("timestamp", Vtype.Abstime) ]
         ())
  in
  let s = Format.asprintf "%a" Schema.pp cls in
  check_bool "mentions CLASS" true
    (String.length s > 10 && String.sub s 0 7 = "CLASS c")

(* ------------------------------------------------------------------ *)
(* Concept                                                             *)
(* ------------------------------------------------------------------ *)

let test_concept_dag () =
  let c = Concept.create () in
  let _ = ok (Concept.define c ~name:"Desert" ()) in
  let _ = ok (Concept.define c ~name:"Hot" ~members:[ "c2"; "c3" ] ()) in
  let _ = ok (Concept.define c ~name:"Cold" ~members:[ "c9" ] ()) in
  ok (Concept.add_isa c ~sub:"Hot" ~super:"Desert");
  ok (Concept.add_isa c ~sub:"Cold" ~super:"Desert");
  Alcotest.(check (list string)) "children" [ "Cold"; "Hot" ]
    (Concept.children c "Desert");
  Alcotest.(check (list string)) "ancestors" [ "Desert" ] (Concept.ancestors c "Hot");
  Alcotest.(check (list string)) "descendants" [ "Cold"; "Hot" ]
    (Concept.descendants c "Desert");
  Alcotest.(check (list string)) "leaves" [ "Cold"; "Hot" ]
    (Concept.leaves c "Desert");
  (* concept query reaches member classes of all descendants *)
  Alcotest.(check (list string)) "classes_of" [ "c2"; "c3"; "c9" ]
    (Concept.classes_of c "Desert");
  Alcotest.(check (list string)) "concepts_of_class" [ "Hot" ]
    (Concept.concepts_of_class c "c2")

let test_concept_validation () =
  let c = Concept.create () in
  let _ = ok (Concept.define c ~name:"A" ()) in
  let _ = ok (Concept.define c ~name:"B" ()) in
  check_bool "dup" true (Result.is_error (Concept.define c ~name:"A" ()));
  check_bool "self loop" true
    (Result.is_error (Concept.add_isa c ~sub:"A" ~super:"A"));
  ok (Concept.add_isa c ~sub:"A" ~super:"B");
  check_bool "dup edge" true
    (Result.is_error (Concept.add_isa c ~sub:"A" ~super:"B"));
  check_bool "cycle" true (Result.is_error (Concept.add_isa c ~sub:"B" ~super:"A"));
  check_bool "unknown" true
    (Result.is_error (Concept.add_isa c ~sub:"A" ~super:"Z"));
  ok (Concept.add_member c ~concept:"A" "cls1");
  check_bool "member added" true
    ((Option.get (Concept.find c "A")).Concept.members = [ "cls1" ])

let test_concept_diamond () =
  (* DAG, not tree: one concept under two parents *)
  let c = Concept.create () in
  List.iter (fun n -> ignore (ok (Concept.define c ~name:n ())))
    [ "Top"; "Left"; "Right"; "Bottom" ];
  ok (Concept.add_isa c ~sub:"Left" ~super:"Top");
  ok (Concept.add_isa c ~sub:"Right" ~super:"Top");
  ok (Concept.add_isa c ~sub:"Bottom" ~super:"Left");
  ok (Concept.add_isa c ~sub:"Bottom" ~super:"Right");
  Alcotest.(check (list string)) "both parents" [ "Left"; "Right" ]
    (Concept.parents c "Bottom");
  Alcotest.(check (list string)) "ancestors dedup" [ "Left"; "Right"; "Top" ]
    (Concept.ancestors c "Bottom")

(* ------------------------------------------------------------------ *)
(* Kernel: classes, objects, processes                                 *)
(* ------------------------------------------------------------------ *)

let simple_kernel () =
  let k = Kernel.create () in
  let src =
    ok
      (Schema.define ~name:"src"
         ~attributes:
           [ ("tag", Vtype.Int); ("data", Vtype.Image);
             ("spatialextent", Vtype.Box); ("timestamp", Vtype.Abstime) ]
         ())
  in
  ok (Kernel.define_class k src);
  let out =
    ok
      (Schema.define ~name:"out"
         ~attributes:
           [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
             ("timestamp", Vtype.Abstime) ]
         ~derived_by:"negate" ())
  in
  ok (Kernel.define_class k out);
  let open Template in
  let proc =
    ok
      (Process.define_primitive ~name:"negate" ~output_class:"out"
         ~args:[ Process.scalar_arg "x" "src" ]
         ~template:
           (make ~assertions:[]
              ~mappings:
                [ { target = "data";
                    rhs = Apply ("img_scale", [ Const (Value.float (-1.)); Attr_of ("x", "data") ]) };
                  { target = "spatialextent"; rhs = Attr_of ("x", "spatialextent") };
                  { target = "timestamp"; rhs = Attr_of ("x", "timestamp") } ])
         ())
  in
  ok (Kernel.define_process k proc);
  k

let insert_src k tag v =
  ok
    (Kernel.insert_object k ~cls:"src"
       [ ("tag", Value.int tag);
         ("data", Value.image (Image.of_array ~nrow:1 ~ncol:2 Pixel.Float8 [| v; v +. 1. |]));
         ("spatialextent", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
         ("timestamp", Value.abstime (Abstime.of_ymd 1986 1 1)) ])

let test_kernel_objects () =
  let k = simple_kernel () in
  let oid = insert_src k 7 1.5 in
  check_bool "attr" true (Kernel.object_attr k ~cls:"src" oid "tag" = Some (Value.int 7));
  check_bool "class of object" true (Kernel.class_of_object k oid = Some "src");
  check_int "count" 1 (Kernel.count_objects k "src");
  Alcotest.(check (list int)) "objects" [ oid ] (Kernel.objects_of_class k "src");
  (* validation *)
  check_bool "missing attr" true
    (Result.is_error (Kernel.insert_object k ~cls:"src" [ ("tag", Value.int 1) ]));
  check_bool "unknown attr" true
    (Result.is_error
       (Kernel.insert_object k ~cls:"src"
          [ ("tag", Value.int 1); ("data", Value.int 2); ("spatialextent", Value.int 3);
            ("timestamp", Value.int 4); ("zzz", Value.int 5) ]));
  check_bool "unknown class" true
    (Result.is_error (Kernel.insert_object k ~cls:"nope" []));
  check_bool "delete" true (Result.is_ok (Kernel.delete_object k ~cls:"src" oid));
  check_int "deleted" 0 (Kernel.count_objects k "src")

let test_kernel_duplicate_definitions () =
  let k = simple_kernel () in
  let dup = ok (Schema.define ~name:"src" ~attributes:[ ("a", Vtype.Int) ] ()) in
  check_bool "dup class" true (Result.is_error (Kernel.define_class k dup));
  let proc2 =
    ok
      (Process.define_primitive ~name:"negate" ~output_class:"out"
         ~args:[ Process.scalar_arg "x" "src" ]
         ~template:(Template.make ~assertions:[] ~mappings:[])
         ())
  in
  check_bool "dup process version" true (Result.is_error (Kernel.define_process k proc2))

let test_kernel_execute_process () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let task = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  check_int "one output" 1 (List.length task.Task.outputs);
  let out = List.hd task.Task.outputs in
  (match Kernel.object_attr k ~cls:"out" out "data" with
   | Some (Value.VImage img) ->
     Alcotest.(check (float 0.)) "negated" (-2.) (Image.get img 0 0)
   | _ -> Alcotest.fail "no data");
  check_int "executions counter" 1 (Kernel.counters k).Kernel.executions;
  check_int "pixels counter" 2 (Kernel.counters k).Kernel.pixels_processed;
  check_int "clock advanced" 1 (Kernel.clock k);
  (* task bookkeeping *)
  check_bool "task producing" true (Kernel.task_producing k out = Some task);
  check_bool "task using" true (Kernel.tasks_using k oid = [ task ]);
  check_bool "find task" true (Kernel.find_task k task.Task.task_id = Some task)

let test_kernel_execute_validation () =
  let k = simple_kernel () in
  let proc = Option.get (Kernel.find_process k "negate") in
  check_bool "unbound arg" true
    (Result.is_error (Kernel.execute_process k proc ~inputs:[]));
  check_bool "cardinality" true
    (Result.is_error (Kernel.execute_process k proc ~inputs:[ ("x", []) ]));
  let o1 = insert_src k 1 1. and o2 = insert_src k 2 2. in
  check_bool "too many for scalar" true
    (Result.is_error (Kernel.execute_process k proc ~inputs:[ ("x", [ o1; o2 ]) ]))

let test_kernel_recompute () =
  let k = simple_kernel () in
  let oid = insert_src k 1 3.5 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let task = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let pairs = ok (Kernel.recompute_task k task) in
  check_bool "recomputed data matches stored" true
    (List.for_all
       (fun (attr, v) ->
         Kernel.object_attr k ~cls:"out" (List.hd task.Task.outputs) attr
         = Some v)
       pairs)

(* ------------------------------------------------------------------ *)
(* Derived-object result cache                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_and_counters () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let t1 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let t2 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  check_int "same task returned" t1.Task.task_id t2.Task.task_id;
  check_int "executed once" 1 (Kernel.counters k).Kernel.executions;
  check_int "one hit" 1 (Kernel.counters k).Kernel.cache_hits;
  check_int "one miss" 1 (Kernel.counters k).Kernel.cache_misses;
  check_int "no duplicate output object" 1 (Kernel.count_objects k "out");
  check_int "one live entry" 1 (Kernel.cache_stats k).Kernel.entries;
  (* a different input binding is a different key *)
  let oid2 = insert_src k 2 5.0 in
  let t3 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid2 ]) ]) in
  check_bool "distinct task for distinct input" true
    (t3.Task.task_id <> t1.Task.task_id);
  check_int "second miss" 2 (Kernel.counters k).Kernel.cache_misses;
  (* each binding goes on reusing its own task *)
  let t4 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let t5 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid2 ]) ]) in
  check_int "first binding reuses its task" t1.Task.task_id t4.Task.task_id;
  check_int "second binding reuses its task" t3.Task.task_id t5.Task.task_id;
  check_int "one object per binding" 2 (Kernel.count_objects k "out");
  check_int "two executions" 2 (Kernel.counters k).Kernel.executions

let test_cache_invalidated_by_new_version () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let v1 = Option.get (Kernel.find_process k "negate") in
  let t1 = ok (Kernel.execute_process k v1 ~inputs:[ ("x", [ oid ]) ]) in
  (* registering a new version drops the old version's entries too: the
     process was edited, so its memoized derivations are suspect *)
  let v2 = ok (Process.edit v1 ~name:"negate" ~doc:"sharpened" ()) in
  ok (Kernel.define_process k v2);
  check_int "entry dropped" 0 (Kernel.cache_stats k).Kernel.entries;
  check_bool "invalidation counted" true
    ((Kernel.cache_stats k).Kernel.invalidations >= 1);
  let t1' = ok (Kernel.execute_process k v1 ~inputs:[ ("x", [ oid ]) ]) in
  check_bool "recomputed as a fresh task" true
    (t1'.Task.task_id <> t1.Task.task_id);
  check_int "two executions" 2 (Kernel.counters k).Kernel.executions

let test_cache_invalidated_by_delete () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let t1 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let out = List.hd t1.Task.outputs in
  check_bool "output deleted" true
    (Result.is_ok (Kernel.delete_object k ~cls:"out" out));
  let t2 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  check_bool "recomputed after output deletion" true
    (t2.Task.task_id <> t1.Task.task_id);
  check_int "object rematerialized" 1 (Kernel.count_objects k "out");
  (* deleting an input drops the entry that read it *)
  check_int "one live entry" 1 (Kernel.cache_stats k).Kernel.entries;
  check_bool "input deleted" true
    (Result.is_ok (Kernel.delete_object k ~cls:"src" oid));
  check_int "entry dropped with its input" 0
    (Kernel.cache_stats k).Kernel.entries

let test_cache_fig3_repeated_derive () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  let _ = ok (Figures.load_tm_bands k ~seed:7 ~nrow:16 ~ncol:16 ()) in
  let p = Option.get (Kernel.find_process k Figures.p20_name) in
  let binding =
    ok
      (Kernel.find_binding k p
         ~available:
           [ ( Figures.landsat_class,
               Kernel.objects_of_class k Figures.landsat_class ) ])
  in
  let t1 = ok (Kernel.execute_process k p ~inputs:binding) in
  let t2 = ok (Kernel.execute_process k p ~inputs:binding) in
  check_int "second DERIVE served from cache" t1.Task.task_id t2.Task.task_id;
  check_int "classified once" 1 (Kernel.counters k).Kernel.executions;
  check_bool "hit recorded" true ((Kernel.counters k).Kernel.cache_hits > 0);
  check_int "one land_cover object" 1
    (Kernel.count_objects k Figures.land_cover_class)

(* ------------------------------------------------------------------ *)
(* Process versioning                                                  *)
(* ------------------------------------------------------------------ *)

let test_process_edit_versioning () =
  let k = simple_kernel () in
  let v1 = Option.get (Kernel.find_process k "negate") in
  (* edit under the same name: version 2, original retained *)
  let v2 = ok (Process.edit v1 ~name:"negate" ~doc:"sharpened" ()) in
  ok (Kernel.define_process k v2);
  check_int "two versions" 2 (List.length (Kernel.process_versions k "negate"));
  check_bool "latest is v2" true
    ((Option.get (Kernel.find_process k "negate")).Process.version = 2);
  check_bool "v1 still there" true
    (Kernel.find_process k ~version:1 "negate" <> None);
  check_bool "derived_from recorded" true
    (v2.Process.derived_from = Some ("negate", 1));
  (* edit under a new name: version 1 of the new process *)
  let renamed = ok (Process.edit v1 ~name:"negate-strict" ()) in
  check_int "fresh version" 1 renamed.Process.version;
  check_bool "origin recorded" true
    (renamed.Process.derived_from = Some ("negate", 1))

let test_process_validation () =
  check_bool "no args" true
    (Result.is_error
       (Process.define_primitive ~name:"p" ~output_class:"o" ~args:[]
          ~template:(Template.make ~assertions:[] ~mappings:[]) ()));
  check_bool "unbound param" true
    (Result.is_error
       (Process.define_primitive ~name:"p" ~output_class:"o"
          ~args:[ Process.scalar_arg "x" "c" ]
          ~template:
            (Template.make ~assertions:[]
               ~mappings:[ { Template.target = "a"; rhs = Template.Param "k" } ])
          ()));
  check_bool "undeclared arg in template" true
    (Result.is_error
       (Process.define_primitive ~name:"p" ~output_class:"o"
          ~args:[ Process.scalar_arg "x" "c" ]
          ~template:
            (Template.make ~assertions:[]
               ~mappings:
                 [ { Template.target = "a"; rhs = Template.Attr_of ("y", "b") } ])
          ()));
  check_bool "compound step ref" true
    (Result.is_error
       (Process.define_compound ~name:"p" ~output_class:"o"
          ~args:[ Process.setof_arg "x" "c" ]
          ~steps:
            [ { Process.step_process = "sub";
                step_inputs = [ ("a", Process.From_step 0) ] } ]
          ()))

(* ------------------------------------------------------------------ *)
(* Task serialization                                                  *)
(* ------------------------------------------------------------------ *)

let test_task_sexp_roundtrip () =
  let task =
    { Task.task_id = 42; process = "p20"; process_version = 3;
      inputs = [ ("bands", [ 1; 2; 3 ]); ("mask", [ 9 ]) ];
      params = [ ("k", Value.int 12); ("cutoff", Value.float 2.5) ];
      outputs = [ 100 ]; output_class = "land_cover"; clock = 17 }
  in
  match Task.of_sexp (Task.to_sexp task) with
  | Ok t' ->
    check_int "id" task.Task.task_id t'.Task.task_id;
    check_bool "inputs" true (t'.Task.inputs = task.Task.inputs);
    check_bool "params" true
      (List.for_all2
         (fun (n1, v1) (n2, v2) -> n1 = n2 && Value.equal v1 v2)
         task.Task.params t'.Task.params);
    check_str "class" task.Task.output_class t'.Task.output_class
  | Error e -> Alcotest.failf "roundtrip: %s" (Gaea_error.to_string e)

(* ------------------------------------------------------------------ *)
(* find_binding                                                        *)
(* ------------------------------------------------------------------ *)

let test_find_binding_permutation () =
  (* two args of one class distinguished only by an assertion: binding
     search must try permutations (the NDVI red/nir situation) *)
  let k = Kernel.create () in
  let cls =
    ok (Schema.define ~name:"band" ~attributes:[ ("channel", Vtype.Int) ] ())
  in
  ok (Kernel.define_class k cls);
  let out = ok (Schema.define ~name:"o" ~attributes:[ ("z", Vtype.Int) ] ()) in
  ok (Kernel.define_class k out);
  let open Template in
  let chan arg n =
    Expr_true (Apply ("eq", [ Attr_of (arg, "channel"); Const (Value.int n) ]))
  in
  let proc =
    ok
      (Process.define_primitive ~name:"combine" ~output_class:"o"
         ~args:[ Process.scalar_arg "red" "band"; Process.scalar_arg "nir" "band" ]
         ~template:
           (make
              ~assertions:[ chan "red" 1; chan "nir" 2 ]
              ~mappings:[ { target = "z"; rhs = Const (Value.int 0) } ])
         ())
  in
  ok (Kernel.define_process k proc);
  (* insert in the "wrong" order so the naive assignment fails *)
  let nir = ok (Kernel.insert_object k ~cls:"band" [ ("channel", Value.int 2) ]) in
  let red = ok (Kernel.insert_object k ~cls:"band" [ ("channel", Value.int 1) ]) in
  let binding = ok (Kernel.find_binding k proc ~available:[ ("band", [ nir; red ]) ]) in
  check_bool "red bound to channel-1 object" true
    (List.assoc "red" binding = [ red ]);
  check_bool "nir bound to channel-2 object" true
    (List.assoc "nir" binding = [ nir ]);
  (* exclusion: once the only valid binding has fired, a fresh search
     finds nothing *)
  ignore (ok (Kernel.execute_process k proc ~inputs:binding));
  check_bool "exclusion respected" true
    (Result.is_error
       (Kernel.find_binding k ~fresh:true proc
          ~available:[ ("band", [ nir; red ]) ]))

(* ------------------------------------------------------------------ *)
(* Derivation: Fig 3 end-to-end + request_at                           *)
(* ------------------------------------------------------------------ *)

let test_fig3_end_to_end () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  let oids = ok (Figures.load_tm_bands k ~seed:7 ~nrow:32 ~ncol:32 ()) in
  check_int "3 bands" 3 (List.length oids);
  let outcome = ok (Derivation.request k Figures.land_cover_class) in
  check_int "one object" 1 (List.length outcome.Derivation.objects);
  check_int "one task" 1 (List.length outcome.Derivation.new_tasks);
  let oid = List.hd outcome.Derivation.objects in
  check_bool "acyclic" true (Lineage.is_acyclic k);
  check_bool "reproducible" true (ok (Lineage.verify_object k oid));
  (* 12 land-cover classes as the process requires *)
  (match Kernel.object_attr k ~cls:Figures.land_cover_class oid "numclass" with
   | Some (Value.VInt 12) -> ()
   | _ -> Alcotest.fail "numclass not mapped");
  (* second request retrieves *)
  let again = ok (Derivation.request k Figures.land_cover_class) in
  check_int "no recompute" 0 (List.length again.Derivation.new_tasks)

let test_fig3_guard_rejects_mismatched_extents () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  (* two bands here, one band with a disjoint extent: card(bands)=3
     can only be met with the mismatched band, so assertions fail *)
  let far =
    Gaea_geo.Extent.make
      (Box.make ~xmin:100. ~ymin:100. ~xmax:110. ~ymax:110.)
      (Gaea_geo.Interval.instant (Abstime.of_ymd 1986 1 15))
  in
  let _ = ok (Figures.load_tm_bands k ~seed:1 ~nrow:8 ~ncol:8 ~n_bands:2 ()) in
  let _ =
    ok (Figures.load_tm_bands k ~seed:2 ~nrow:8 ~ncol:8 ~n_bands:1 ~extent:far ())
  in
  match Derivation.request k Figures.land_cover_class with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "guard should have rejected disjoint extents"

let test_derivation_need_two_distinct () =
  let k = Kernel.create () in
  ok (Figures.install_vegetation k);
  let _ = ok (Figures.load_avhrr_year k ~seed:1 ~year:1988 ()) in
  let _ = ok (Figures.load_avhrr_year k ~seed:2 ~year:1989 ~vegetation_shift:0.2 ()) in
  let outcome = ok (Derivation.request ~need:2 k Figures.ndvi_class) in
  check_int "two objects" 2
    (List.length (List.sort_uniq compare outcome.Derivation.objects));
  check_int "two tasks" 2 (List.length outcome.Derivation.new_tasks);
  (* the two NDVI maps must come from different years *)
  let times =
    List.filter_map
      (fun oid -> Kernel.object_attr k ~cls:Figures.ndvi_class oid "timestamp")
      outcome.Derivation.objects
  in
  check_int "distinct timestamps" 2
    (List.length (List.sort_uniq compare (List.map Value.to_display times)))

let test_request_at_interpolation () =
  let k = simple_kernel () in
  (* src snapshots at Jan 1 and Jan 11; ask for Jan 6 *)
  let mk tag day v =
    ok
      (Kernel.insert_object k ~cls:"src"
         [ ("tag", Value.int tag);
           ("data", Value.image (Image.of_array ~nrow:1 ~ncol:1 Pixel.Float8 [| v |]));
           ("spatialextent", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
           ("timestamp", Value.abstime (Abstime.of_ymd 1986 1 day)) ])
  in
  let _ = mk 1 1 10. and _ = mk 2 11 20. in
  let outcome =
    ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 6) ())
  in
  let oid = List.hd outcome.Derivation.objects in
  (match Kernel.object_attr k ~cls:"src" oid "data" with
   | Some (Value.VImage img) ->
     Alcotest.(check (float 1e-9)) "midpoint" 15. (Image.get img 0 0)
   | _ -> Alcotest.fail "no data");
  check_int "interpolation counted" 1 (Kernel.counters k).Kernel.interpolations;
  (* the interpolation task is recorded and reproducible *)
  check_int "one task" 1 (List.length outcome.Derivation.new_tasks);
  let task = List.hd outcome.Derivation.new_tasks in
  check_str "generic process" Derivation.interpolation_process_name task.Task.process;
  check_bool "interp task reproducible" true (ok (Lineage.verify_task k task));
  (* direct hit afterwards: no new task *)
  let again =
    ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 6) ())
  in
  check_int "retrieved" 0 (List.length again.Derivation.new_tasks)

let test_request_at_retrieves_exact () =
  let k = simple_kernel () in
  let oid = insert_src k 1 5. in
  let outcome =
    ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 1) ())
  in
  Alcotest.(check (list int)) "exact hit" [ oid ] outcome.Derivation.objects

(* AT retrieves the stored object nearest the date, not the first one
   inserted into the window; equally near objects go to the lowest OID *)
let test_request_at_nearest () =
  let k = simple_kernel () in
  let mk day =
    ok
      (Kernel.insert_object k ~cls:"src"
         [ ("tag", Value.int day);
           ("data", Value.image (Image.of_array ~nrow:1 ~ncol:1 Pixel.Float8 [| 1. |]));
           ("spatialextent", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
           ("timestamp", Value.abstime (Abstime.of_ymd 1988 6 day)) ])
  in
  let d2 = mk 2 in
  let d3 = mk 3 in
  let d4 = mk 4 in
  let at day =
    (ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1988 6 day) ()))
      .Derivation.objects
  in
  Alcotest.(check (list int)) "nearest, not first inserted" [ d3 ] (at 3);
  Alcotest.(check (list int)) "nearest at the window's edge" [ d4 ] (at 5);
  ignore (ok (Kernel.delete_object k ~cls:"src" d3));
  Alcotest.(check (list int)) "tie goes to the lowest oid" [ d2 ] (at 3)

(* a restore is validated as an insert is: an unknown attribute is an
   error and spends no OID *)
let test_insert_with_oid_validates () =
  let k = simple_kernel () in
  let pairs extra =
    [ ("tag", Value.int 1); ("data", Value.int 2); ("spatialextent", Value.int 3);
      ("timestamp", Value.int 4) ]
    @ extra
  in
  check_bool "unknown attr" true
    (Result.is_error
       (Kernel.insert_object_with_oid k ~cls:"src" 40 (pairs [ ("zzz", Value.int 5) ])));
  check_bool "missing attr" true
    (Result.is_error (Kernel.insert_object_with_oid k ~cls:"src" 41 [ ("tag", Value.int 1) ]));
  check_bool "unknown class" true
    (Result.is_error (Kernel.insert_object_with_oid k ~cls:"nope" 42 []));
  check_int "nothing stored" 0 (Kernel.count_objects k "src");
  check_int "no oid spent" 0 (Kernel.last_oid k);
  let oid = insert_src k 1 1. in
  check_int "allocation goes on from 1" 1 oid

let test_request_at_no_data () =
  let k = simple_kernel () in
  check_bool "no snapshots" true
    (Result.is_error
       (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 1) ()))

let test_derivation_failure_reported () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  (* no TM data at all *)
  (match Derivation.request k Figures.land_cover_class with
   | Error e ->
     check_bool "mentions class" true
       (String.length (Gaea_error.to_string e) > 0)
   | Ok _ -> Alcotest.fail "should fail");
  check_bool "derivable is false" true
    (Derivation.derivation_plan k Figures.land_cover_class = None)

(* ------------------------------------------------------------------ *)
(* Lineage                                                             *)
(* ------------------------------------------------------------------ *)

let veg_kernel () =
  let k = Kernel.create () in
  ok (Figures.install_vegetation k);
  let _ = ok (Figures.load_avhrr_year k ~seed:1 ~year:1988 ()) in
  let _ = ok (Figures.load_avhrr_year k ~seed:2 ~year:1989 ~vegetation_shift:0.2 ()) in
  let _ = ok (Derivation.request ~need:2 k Figures.ndvi_class) in
  let run name =
    let p = Option.get (Kernel.find_process k name) in
    let binding =
      ok
        (Kernel.find_binding k p
           ~available:
             [ (Figures.ndvi_class, Kernel.objects_of_class k Figures.ndvi_class) ])
    in
    List.hd (ok (Kernel.execute_process k p ~inputs:binding)).Task.outputs
  in
  (k, run Figures.p_change_sub, run Figures.p_change_div)

let test_lineage_ancestors () =
  let k, by_sub, _ = veg_kernel () in
  let ancestors = Lineage.ancestors k by_sub in
  (* 2 NDVI maps + 4 AVHRR bands *)
  check_int "six ancestors" 6 (List.length ancestors);
  let bases = Lineage.base_inputs k by_sub in
  check_int "four base inputs" 4 (List.length bases);
  (* every base input is an AVHRR band *)
  check_bool "all avhrr" true
    (List.for_all
       (fun oid -> Kernel.class_of_object k oid = Some Figures.avhrr_class)
       bases);
  (* descendants of a base band include the change map *)
  let desc = Lineage.descendants k (List.hd bases) in
  check_bool "descends to change" true (List.mem by_sub desc)

let test_lineage_signatures () =
  let k, by_sub, by_div = veg_kernel () in
  check_bool "different derivations" false (Lineage.same_derivation k by_sub by_div);
  let report = Lineage.compare_derivations k by_sub by_div in
  check_bool "explains difference" true
    (String.length report > 40);
  (* two objects derived identically share the signature *)
  let p = Option.get (Kernel.find_process k Figures.p_change_sub) in
  let binding =
    ok
      (Kernel.find_binding k p
         ~available:
           [ (Figures.ndvi_class, Kernel.objects_of_class k Figures.ndvi_class) ])
  in
  let again = List.hd (ok (Kernel.execute_process k p ~inputs:binding)).Task.outputs in
  check_bool "same derivation" true (Lineage.same_derivation k by_sub again)

let test_lineage_tree_and_explain () =
  let k, by_sub, _ = veg_kernel () in
  let tree = Lineage.derivation_tree k by_sub in
  check_bool "has producing task" true (tree.Lineage.via <> None);
  let explain = Lineage.explain k by_sub in
  check_bool "mentions base data" true
    (String.length explain > 50);
  check_bool "acyclic" true (Lineage.is_acyclic k)

let test_lineage_verify_detects_change () =
  (* verify_object fails once a direct input of the producing task is
     gone: the recorded derivation can no longer be recomputed *)
  let k, by_sub, _ = veg_kernel () in
  check_bool "verifies before" true (ok (Lineage.verify_object k by_sub));
  let task = Option.get (Kernel.task_producing k by_sub) in
  let direct_input = List.hd (Task.input_oids task) in
  ignore (Kernel.delete_object k ~cls:Figures.ndvi_class direct_input);
  check_bool "verification now errors" true
    (Result.is_error (Lineage.verify_object k by_sub));
  (* deleting a grandparent does NOT break the direct recomputation:
     the task's own inputs are still stored *)
  let k2, by_sub2, _ = veg_kernel () in
  let base = List.hd (Lineage.base_inputs k2 by_sub2) in
  ignore (Kernel.delete_object k2 ~cls:Figures.avhrr_class base);
  check_bool "still verifies from direct inputs" true
    (ok (Lineage.verify_object k2 by_sub2))

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let test_experiment_reproduce () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  let _ = ok (Figures.load_tm_bands k ~seed:3 ~nrow:16 ~ncol:16 ()) in
  let m = Experiment.create_manager () in
  ok (Experiment.begin_experiment m ~name:"e1" ~doc:"land cover 1986" ());
  let outcome = ok (Derivation.request k Figures.land_cover_class) in
  List.iter
    (fun t -> ok (Experiment.record_task m ~experiment:"e1" t.Task.task_id))
    outcome.Derivation.new_tasks;
  ok (Experiment.add_note m ~experiment:"e1" "first classification");
  ok (Experiment.add_concept m ~experiment:"e1" "LandCover");
  let r = ok (Experiment.reproduce m k ~experiment:"e1") in
  check_int "total" 1 r.Experiment.total;
  check_int "reproduced" 1 r.Experiment.reproduced;
  check_bool "no failures" true (r.Experiment.failures = []);
  let report = ok (Experiment.report m k ~experiment:"e1") in
  check_bool "report text" true (String.length report > 40);
  check_bool "dup experiment" true
    (Result.is_error (Experiment.begin_experiment m ~name:"e1" ()));
  check_bool "unknown experiment" true
    (Result.is_error (Experiment.reproduce m k ~experiment:"zzz"))

(* ------------------------------------------------------------------ *)
(* Figures: full schema / Fig 5                                        *)
(* ------------------------------------------------------------------ *)

let test_install_all () =
  let k = Kernel.create () in
  ok (Figures.install_all k);
  check_int "nine classes" 9 (List.length (Kernel.classes k));
  check_bool "has concepts" true
    (List.length (Concept.all (Kernel.concepts k)) >= 5);
  (* the net mirrors the schema *)
  let view = Kernel.derivation_net k in
  check_int "places = classes" 9
    (Gaea_petri.Net.n_places view.Kernel.net);
  check_bool "has transitions" true
    (Gaea_petri.Net.n_transitions view.Kernel.net >= 7)

let test_fig5_compound () =
  let k = Kernel.create () in
  ok (Figures.install_fig3 k);
  ok (Figures.install_fig5 k);
  let _ = ok (Figures.load_tm_bands k ~seed:10 ~nrow:16 ~ncol:16 ()) in
  let compound = Option.get (Kernel.find_process k Figures.p_land_change) in
  check_bool "is compound" true (Process.is_compound compound);
  let bands = Kernel.objects_of_class k Figures.landsat_class in
  let task =
    ok
      (Kernel.execute_process k compound
         ~inputs:[ ("bands", [ List.nth bands 0; List.nth bands 1 ]) ])
  in
  (* compound expansion recorded one task per primitive step *)
  check_int "two tasks recorded" 2 (List.length (Kernel.tasks k));
  check_str "final task is the classification step" Figures.p_classify_change
    task.Task.process;
  (* the intermediate change image exists *)
  check_int "intermediate stored" 1
    (Kernel.count_objects k Figures.change_image_class);
  check_bool "result reproducible" true
    (ok (Lineage.verify_object k (List.hd task.Task.outputs)))

let test_desert_parameters_differ () =
  let k = Kernel.create () in
  ok (Figures.install_deserts k);
  let rain = ok (Figures.load_rainfall k ~seed:5 ~nrow:16 ~ncol:16 ()) in
  let run name =
    let p = Option.get (Kernel.find_process k name) in
    List.hd (ok (Kernel.execute_process k p ~inputs:[ ("rain", [ rain ]) ])).Task.outputs
  in
  let d250 = run Figures.p_desert_250 in
  let d200 = run Figures.p_desert_200 in
  check_bool "different signatures" false (Lineage.same_derivation k d250 d200);
  (* 200mm mask is a subset of the 250mm mask *)
  let img oid =
    match Kernel.object_attr k ~cls:Figures.desert_class oid "data" with
    | Some (Value.VImage i) -> i
    | _ -> Alcotest.fail "no mask"
  in
  let m250 = img d250 and m200 = img d200 in
  let subset = ref true in
  for i = 0 to Image.size m200 - 1 do
    if Image.get_linear m200 i = 1. && Image.get_linear m250 i <> 1. then
      subset := false
  done;
  check_bool "200mm subset of 250mm" true !subset

(* ------------------------------------------------------------------ *)
(* File-based baseline                                                 *)
(* ------------------------------------------------------------------ *)

let test_filebased_shortcomings () =
  let fb = Filebased.create () in
  let img = Image.of_array ~nrow:2 ~ncol:2 Pixel.Float8 [| 1.; 2.; 3.; 4. |] in
  Filebased.save fb ~name:"ndvi88" img;
  check_int "one file" 1 (Filebased.file_count fb);
  (* silent overwrite *)
  Filebased.save fb ~name:"ndvi88" (Gaea_raster.Band_math.scale 2. img);
  check_int "overwrite counted" 1 (Filebased.stats fb).Filebased.overwrites;
  (* scientist a computes; scientist b cannot know what the file means
     and recomputes *)
  let work imgs = Gaea_raster.Band_math.scale 3. (List.hd imgs) in
  let _ = ok (Filebased.run_analysis fb ~scientist:"a" ~output:"r" ~inputs:[ "ndvi88" ] work) in
  check_int "computed once" 1 (Filebased.stats fb).Filebased.computations;
  let _ = ok (Filebased.run_analysis fb ~scientist:"b" ~output:"r" ~inputs:[ "ndvi88" ] work) in
  check_int "b recomputed" 2 (Filebased.stats fb).Filebased.computations;
  (* a remembers and reuses *)
  let _ = ok (Filebased.run_analysis fb ~scientist:"a" ~output:"r" ~inputs:[ "ndvi88" ] work) in
  check_int "a reused" 2 (Filebased.stats fb).Filebased.computations;
  check_bool "remembers" true (Filebased.remembers fb ~scientist:"a" "r");
  (* missing file *)
  check_bool "missing input" true
    (Result.is_error
       (Filebased.run_analysis fb ~scientist:"c" ~output:"x" ~inputs:[ "nope" ] work));
  check_int "failed recall counted" 1 (Filebased.stats fb).Filebased.failed_recalls


(* ------------------------------------------------------------------ *)
(* Persistence: the data-sharing roundtrip                             *)
(* ------------------------------------------------------------------ *)

let test_persist_roundtrip () =
  (* scientist A derives results; scientist B loads the export and can
     query, trace and REPRODUCE everything *)
  let k = Kernel.create () in
  ok (Figures.install_all k);
  let _ = ok (Figures.load_tm_bands k ~seed:7 ~nrow:16 ~ncol:16 ()) in
  let _ = ok (Figures.load_avhrr_year k ~seed:1 ~year:1988 ()) in
  let _ = ok (Figures.load_avhrr_year k ~seed:2 ~year:1989 ~vegetation_shift:0.2 ()) in
  let lc = ok (Derivation.request k Figures.land_cover_class) in
  let _ = ok (Derivation.request ~need:2 k Figures.ndvi_class) in
  let text = Persist.save k in
  match Persist.load text with
  | Error e -> Alcotest.failf "load: %s" (Gaea_error.to_string e)
  | Ok k2 ->
    check_int "classes restored" (List.length (Kernel.classes k))
      (List.length (Kernel.classes k2));
    check_int "processes restored"
      (List.length (Kernel.all_process_versions k))
      (List.length (Kernel.all_process_versions k2));
    check_int "tasks restored" (List.length (Kernel.tasks k))
      (List.length (Kernel.tasks k2));
    check_int "concepts restored"
      (List.length (Concept.all (Kernel.concepts k)))
      (List.length (Concept.all (Kernel.concepts k2)));
    (* the derived object is there with identical pixels *)
    let oid = List.hd lc.Derivation.objects in
    let img k =
      match Kernel.object_attr k ~cls:Figures.land_cover_class oid "data" with
      | Some (Value.VImage i) -> i
      | _ -> Alcotest.fail "no data"
    in
    check_bool "pixels identical" true (Image.equal (img k) (img k2));
    (* scientist B can verify A's derivations bit-for-bit *)
    check_bool "lineage intact" true
      (Kernel.task_producing k2 oid <> None);
    check_bool "reproduces in the loaded kernel" true
      (ok (Lineage.verify_object k2 oid));
    (* and continue working: new derivations get fresh ids *)
    let p = Option.get (Kernel.find_process k2 Figures.p_change_sub) in
    let binding =
      ok
        (Kernel.find_binding k2 p
           ~available:
             [ (Figures.ndvi_class, Kernel.objects_of_class k2 Figures.ndvi_class) ])
    in
    let task = ok (Kernel.execute_process k2 p ~inputs:binding) in
    check_bool "fresh task id" true
      (task.Task.task_id > List.length (Kernel.tasks k));
    check_bool "still acyclic" true (Lineage.is_acyclic k2)

let test_persist_versions_roundtrip () =
  let k = simple_kernel () in
  let v1 = Option.get (Kernel.find_process k "negate") in
  let v2 = ok (Process.edit v1 ~name:"negate" ()) in
  ok (Kernel.define_process k v2);
  match Persist.load (Persist.save k) with
  | Error e -> Alcotest.failf "load: %s" (Gaea_error.to_string e)
  | Ok k2 ->
    check_int "both versions" 2 (List.length (Kernel.process_versions k2 "negate"));
    check_bool "latest is v2" true
      ((Option.get (Kernel.find_process k2 "negate")).Process.version = 2)

(* Process lineage is identity: a renamed edit ("EDITED FROM negate
   (v1)") and a same-name re-version must print the same after a
   save -> load round trip. *)
let test_persist_process_lineage () =
  let k = simple_kernel () in
  let v1 = Option.get (Kernel.find_process k "negate") in
  ok (Kernel.define_process k (ok (Process.edit v1 ~name:"negate-strict" ())));
  ok (Kernel.define_process k (ok (Process.edit v1 ~name:"negate" ())));
  let printed k =
    List.map (Format.asprintf "%a" Process.pp) (Kernel.all_process_versions k)
  in
  match Persist.load (Persist.save k) with
  | Error e -> Alcotest.failf "load: %s" (Gaea_error.to_string e)
  | Ok k2 ->
    check_int "three versions" 3 (List.length (printed k));
    Alcotest.(check (list string)) "every version prints the same"
      (printed k) (printed k2)

let test_persist_garbage () =
  check_bool "garbage rejected" true (Result.is_error (Persist.load "(what)"));
  check_bool "empty ok" true (Result.is_ok (Persist.load ""))

(* a fresh empty directory under the system temp dir *)
let fresh_dir () =
  let d = Filename.temp_file "gaea_persist" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let is_io_error = function Error (Gaea_error.Io_error _) -> true | _ -> false

let test_persist_save_replaces_file () =
  let k = simple_kernel () in
  let dir = fresh_dir () in
  let target = Filename.concat dir "db.gaea" in
  let previous = Filename.concat dir "previous" in
  write_file target "(an older database)";
  (* a hard link shares the old file's bytes: writing the target in
     place would change them, renaming a new file over it does not *)
  Unix.link target previous;
  ok (Persist.save_to_file k target);
  check_str "target holds the new save" (Persist.save k) (read_file target);
  check_str "old file never rewritten" "(an older database)" (read_file previous);
  let k2 = ok (Persist.load_from_file target) in
  check_int "tasks" (List.length (Kernel.tasks k)) (List.length (Kernel.tasks k2));
  Alcotest.(check (list string)) "no temporary file left" [ "db.gaea"; "previous" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  remove_tree dir

let test_persist_failed_save_keeps_target () =
  let k = simple_kernel () in
  let dir = fresh_dir () in
  let target = Filename.concat dir "db.gaea" in
  write_file target "(the previous database)";
  check_bool "missing directory is an Io_error" true
    (is_io_error
       (Persist.save_to_file k (Filename.concat (Filename.concat dir "missing") "db.gaea")));
  (* the rename fails when the target is a non-empty directory: the
     temporary file must go and the target must not change *)
  let busy = Filename.concat dir "busy" in
  Sys.mkdir busy 0o755;
  write_file (Filename.concat busy "inner") "kept";
  check_bool "failed rename is an Io_error" true
    (is_io_error (Persist.save_to_file k busy));
  check_str "inner file unchanged" "kept" (read_file (Filename.concat busy "inner"));
  check_str "existing target byte-identical" "(the previous database)"
    (read_file target);
  Alcotest.(check (list string)) "no temporary file left" [ "busy"; "db.gaea" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  remove_tree dir

(* ------------------------------------------------------------------ *)
(* Template corner cases                                               *)
(* ------------------------------------------------------------------ *)

let test_template_introspection () =
  let open Template in
  let t =
    make
      ~assertions:[ Card_eq ("bands", 3); Common_space "bands" ]
      ~mappings:
        [ { target = "data";
            rhs = Apply ("f", [ Attr_of ("bands", "data"); Param "k" ]) };
          { target = "n"; rhs = Param "k" };
          { target = "t"; rhs = Anyof (Attr_of ("other", "ts")) } ]
  in
  Alcotest.(check (list string)) "params" [ "k" ] (free_params t);
  Alcotest.(check (list string)) "args" [ "bands"; "other" ] (referenced_args t);
  check_bool "renders" true
    (String.length (Format.asprintf "%a" (pp ~output_class:"C20") t) > 50);
  check_str "assertion text" "card(bands) = 3"
    (assertion_to_string (Card_eq ("bands", 3)))

let () =
  Alcotest.run "core"
    [ ( "schema",
        [ tc "define" test_schema_define;
          tc "validation" test_schema_validation;
          tc "pp" test_schema_pp ] );
      ( "concept",
        [ tc "dag" test_concept_dag;
          tc "validation" test_concept_validation;
          tc "diamond" test_concept_diamond ] );
      ( "kernel",
        [ tc "objects" test_kernel_objects;
          tc "duplicate definitions" test_kernel_duplicate_definitions;
          tc "insert_with_oid validates" test_insert_with_oid_validates;
          tc "execute process" test_kernel_execute_process;
          tc "execute validation" test_kernel_execute_validation;
          tc "recompute" test_kernel_recompute ] );
      ( "cache",
        [ tc "hit + counters" test_cache_hit_and_counters;
          tc "new version invalidates" test_cache_invalidated_by_new_version;
          tc "delete invalidates" test_cache_invalidated_by_delete;
          tc "fig3 repeated derive" test_cache_fig3_repeated_derive ] );
      ( "process",
        [ tc "edit versioning" test_process_edit_versioning;
          tc "validation" test_process_validation ] );
      ("task", [ tc "sexp roundtrip" test_task_sexp_roundtrip ]);
      ("binding", [ tc "permutation + exclusion" test_find_binding_permutation ]);
      ( "derivation",
        [ tc "fig3 end-to-end" test_fig3_end_to_end;
          tc "guard rejects extents" test_fig3_guard_rejects_mismatched_extents;
          tc "need=2 distinct" test_derivation_need_two_distinct;
          tc "request_at interpolates" test_request_at_interpolation;
          tc "request_at exact hit" test_request_at_retrieves_exact;
          tc "request_at no data" test_request_at_no_data;
          tc "request_at nearest" test_request_at_nearest;
          tc "failure reported" test_derivation_failure_reported ] );
      ( "lineage",
        [ tc "ancestors" test_lineage_ancestors;
          tc "signatures" test_lineage_signatures;
          tc "tree and explain" test_lineage_tree_and_explain;
          tc "verify detects loss" test_lineage_verify_detects_change ] );
      ("experiment", [ tc "reproduce" test_experiment_reproduce ]);
      ( "figures",
        [ tc "install all" test_install_all;
          tc "fig5 compound" test_fig5_compound;
          tc "desert parameters" test_desert_parameters_differ ] );
      ("filebased", [ tc "shortcomings" test_filebased_shortcomings ]);
      ( "persist",
        [ tc "share-and-reproduce roundtrip" test_persist_roundtrip;
          tc "versions roundtrip" test_persist_versions_roundtrip;
          tc "process lineage roundtrip" test_persist_process_lineage;
          tc "garbage" test_persist_garbage;
          tc "save replaces the file atomically" test_persist_save_replaces_file;
          tc "failed save keeps the target" test_persist_failed_save_keeps_target ] );
      ("template", [ tc "introspection" test_template_introspection ]) ]
