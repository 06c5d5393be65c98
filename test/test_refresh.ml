(* Tests for the incremental-recomputation subsystem: staleness marking
   and its transitive propagation, reuse of compound steps, targeted and
   full REFRESH, commit-order determinism across pool sizes, the
   persistence of reuse counters, and the GA033 staleness lint. *)

open Gaea_core
module Analysis = Gaea_analysis.Analysis
module Diagnostic = Gaea_analysis.Diagnostic
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Image = Gaea_raster.Image
module Pixel = Gaea_raster.Pixel
module Pool = Gaea_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Gaea_error.to_string e)

let events k = List.map snd (Kernel.event_log k)

(* ------------------------------------------------------------------ *)
(* Fixture: a three-level derivation chain behind one compound          *)
(* ------------------------------------------------------------------ *)

(* src --s1--> c1 --s2--> c2 --s3--> c3, wrapped in the compound
   "chain3" so one execution produces all three levels.  Updating the
   base image must stale every level transitively. *)
let chain_kernel () =
  let k = Kernel.create () in
  let base_attrs =
    [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
      ("timestamp", Vtype.Abstime) ]
  in
  ok (Kernel.define_class k (ok (Schema.define ~name:"src" ~attributes:base_attrs ())));
  List.iter
    (fun (cls, proc) ->
      ok
        (Kernel.define_class k
           (ok (Schema.define ~name:cls ~attributes:base_attrs ~derived_by:proc ()))))
    [ ("c1", "s1"); ("c2", "s2"); ("c3", "chain3") ];
  let open Template in
  let prim name out arg_cls factor =
    ok
      (Kernel.define_process k
         (ok
            (Process.define_primitive ~name ~output_class:out
               ~args:[ Process.scalar_arg "x" arg_cls ]
               ~template:
                 (make ~assertions:[]
                    ~mappings:
                      [ { target = "data";
                          rhs =
                            Apply
                              ("img_scale",
                               [ Const (Value.float factor); Attr_of ("x", "data") ]) };
                        { target = "spatialextent"; rhs = Attr_of ("x", "spatialextent") };
                        { target = "timestamp"; rhs = Attr_of ("x", "timestamp") } ])
               ())))
  in
  prim "s1" "c1" "src" 2.;
  prim "s2" "c2" "c1" 3.;
  prim "s3" "c3" "c2" 5.;
  let step proc bindings = { Process.step_process = proc; step_inputs = bindings } in
  ok
    (Kernel.define_process k
       (ok
          (Process.define_compound ~name:"chain3" ~output_class:"c3"
             ~args:[ Process.scalar_arg "x" "src" ]
             ~steps:
               [ step "s1" [ ("x", Process.From_arg "x") ];
                 step "s2" [ ("x", Process.From_step 0) ];
                 step "s3" [ ("x", Process.From_step 1) ] ]
             ())));
  k

let insert_src ?(vals = [| 1.; 2.; 3.; 4. |]) ?(day = 1) k =
  ok
    (Kernel.insert_object k ~cls:"src"
       [ ("data", Value.image (Image.of_array ~nrow:2 ~ncol:2 Pixel.Float8 vals));
         ("spatialextent", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
         ("timestamp", Value.abstime (Abstime.of_ymd 1986 1 day)) ])

let derive_chain k oid =
  let p = Option.get (Kernel.find_process k "chain3") in
  ignore (ok (Kernel.execute_process k p ~inputs:[ ("x", [ oid ]) ]));
  (* commit order: c1, c2, c3 *)
  ( List.hd (Kernel.objects_of_class k "c1"),
    List.hd (Kernel.objects_of_class k "c2"),
    List.hd (Kernel.objects_of_class k "c3") )

let update_src k oid vals =
  ok
    (Kernel.update_object k ~cls:"src" oid
       [ ("data", Value.image (Image.of_array ~nrow:2 ~ncol:2 Pixel.Float8 vals)) ])

let data_hash k cls oid =
  match Kernel.object_attr k ~cls oid "data" with
  | Some v -> Value.content_hash v
  | None -> Alcotest.failf "object #%d of %s has no data" oid cls

(* ------------------------------------------------------------------ *)
(* Staleness propagation                                                *)
(* ------------------------------------------------------------------ *)

let test_update_stales_transitively () =
  let k = chain_kernel () in
  let src = insert_src k in
  let o1, o2, o3 = derive_chain k src in
  Alcotest.(check (list int)) "nothing stale after derivation" []
    (Kernel.stale_objects k);
  update_src k src [| 10.; 20.; 30.; 40. |];
  Alcotest.(check (list int)) "all three levels stale"
    (List.sort compare [ o1; o2; o3 ])
    (Kernel.stale_objects k);
  check_bool "base object itself is not stale" false (Kernel.object_stale k src)

let test_update_spares_unrelated () =
  let k = chain_kernel () in
  let a = insert_src k in
  let b = insert_src ~vals:[| 5.; 6.; 7.; 8. |] k in
  let _ = derive_chain k a in
  let p = Option.get (Kernel.find_process k "chain3") in
  let _ = ok (Kernel.execute_process k p ~inputs:[ ("x", [ b ]) ]) in
  update_src k a [| 9.; 9.; 9.; 9. |];
  check_int "only a's chain is stale" 3 (List.length (Kernel.stale_objects k));
  List.iter
    (fun (t : Task.t) ->
      if List.mem b (Task.input_oids t) then
        List.iter
          (fun o ->
            check_bool "b's outputs stay fresh" false (Kernel.object_stale k o))
          t.Task.outputs)
    (Kernel.tasks k)

(* One walk decides staleness and cache invalidation: every level the
   update stales loses its cache entry, so no later probe can serve a
   stale result. *)
let test_update_empties_cache () =
  let k = chain_kernel () in
  let src = insert_src k in
  let _, o2, _ = derive_chain k src in
  check_bool "derivation cached its steps" true
    ((Kernel.cache_stats k).Kernel.entries > 0);
  update_src k src [| 10.; 20.; 30.; 40. |];
  check_int "every entry above the update dropped" 0
    (Kernel.cache_stats k).Kernel.entries;
  let c1 = List.hd (Kernel.objects_of_class k "c1") in
  let s2 = Option.get (Kernel.find_process k "s2") in
  let t = ok (Kernel.execute_process k s2 ~inputs:[ ("x", [ c1 ]) ]) in
  check_bool "re-running s2 does not serve the stale c2" true
    (t.Task.outputs <> [ o2 ])

(* Re-versioning a step stales its outputs and everything above them
   and ends their reuse, so a repeated compound reuses only the step
   below and derives the two above anew. *)
let test_reversion_drops_compound () =
  let k = chain_kernel () in
  let src = insert_src k in
  let o1, _, _ = derive_chain k src in
  let s2 = Option.get (Kernel.find_process k "s2") in
  ok (Kernel.define_process k (ok (Process.edit s2 ~name:"s2" ~doc:"v2" ())));
  check_bool "one invalidation for the process" true
    (List.exists
       (function
         | Events.Cache_invalidated { entries = 2; reason = "process s2" } -> true
         | _ -> false)
       (events k));
  let before = Kernel.cache_stats k in
  let p = Option.get (Kernel.find_process k "chain3") in
  let _ = ok (Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ]) in
  let after = Kernel.cache_stats k in
  check_int "s1 hits, nothing else does" 1
    (after.Kernel.hits - before.Kernel.hits);
  check_int "s2 and s3 miss" 2 (after.Kernel.misses - before.Kernel.misses);
  Alcotest.(check (list int)) "s1's object reused" [ o1 ]
    (Kernel.objects_of_class k "c1");
  check_int "a second c2" 2 (Kernel.count_objects k "c2");
  check_int "a second c3" 2 (Kernel.count_objects k "c3")

(* A compound has no reuse entry of its own: repeating it reuses each
   of its three steps and records nothing. *)
let test_repeated_compound_reuses_steps () =
  let k = chain_kernel () in
  let src = insert_src k in
  let p = Option.get (Kernel.find_process k "chain3") in
  let first = ok (Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ]) in
  let before = Kernel.cache_stats k and tasks = List.length (Kernel.tasks k) in
  let again = ok (Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ]) in
  let after = Kernel.cache_stats k in
  check_int "the last step's task again" first.Task.task_id again.Task.task_id;
  check_int "every step hits" 3 (after.Kernel.hits - before.Kernel.hits);
  check_int "no step misses" 0 (after.Kernel.misses - before.Kernel.misses);
  check_int "no task recorded" tasks (List.length (Kernel.tasks k));
  List.iter
    (fun cls -> check_int (cls ^ " holds one object") 1 (Kernel.count_objects k cls))
    [ "c1"; "c2"; "c3" ]

(* A result derived from a stale input is itself stale. *)
let test_derived_from_stale_is_stale () =
  let k = chain_kernel () in
  let src = insert_src k in
  let o1, o2, _ = derive_chain k src in
  update_src k src [| 10.; 20.; 30.; 40. |];
  let s2 = Option.get (Kernel.find_process k "s2") in
  let t = ok (Kernel.execute_process k s2 ~inputs:[ ("x", [ o1 ]) ]) in
  let fresh_c2 = List.hd t.Task.outputs in
  check_bool "a new object" true (fresh_c2 <> o2);
  check_bool "derived from stale c1, so stale" true
    (Kernel.object_stale k fresh_c2);
  let report = Kernel.refresh_stale k in
  check_int "refresh brings all four up to date" 4 report.Kernel.refreshed;
  Alcotest.(check (list int)) "nothing stale after refresh" []
    (Kernel.stale_objects k)

(* Only a further version supersedes anything.  A pseudo-task recorded
   under a name that has no process yet (the derivation manager records
   interpolations as "interpolate" v0) must not go stale when a process
   of that name is first defined. *)
let test_first_version_stales_nothing () =
  let k = chain_kernel () in
  let _ = insert_src k in
  let _ = insert_src ~vals:[| 9.; 9.; 9.; 9. |] ~day:11 k in
  let outcome =
    ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 6) ())
  in
  Alcotest.(check (list string)) "an interpolation task"
    [ Deriver.interpolation_process ]
    (List.map (fun (t : Task.t) -> t.Task.process) outcome.Derivation.new_tasks);
  let s1 = Option.get (Kernel.find_process k "s1") in
  ok
    (Kernel.define_process k
       (ok
          (Process.define_primitive ~name:Deriver.interpolation_process
             ~output_class:"c1"
             ~args:[ Process.scalar_arg "x" "src" ]
             ~template:(Option.get (Process.template s1))
             ())));
  Alcotest.(check (list int)) "nothing stale" [] (Kernel.stale_objects k)

let test_refresh_recomputes_in_place () =
  let k = chain_kernel () in
  let src = insert_src k in
  let o1, o2, o3 = derive_chain k src in
  let vals = [| 10.; 20.; 30.; 40. |] in
  update_src k src vals;
  let report = Kernel.refresh_stale k in
  check_int "all three refreshed" 3 report.Kernel.refreshed;
  check_int "none skipped" 0 report.Kernel.skipped;
  check_int "dirty set drained" 0 report.Kernel.remaining;
  Alcotest.(check (list int)) "stale set empty" [] (Kernel.stale_objects k);
  (* same oids, values bit-identical to a cold derivation of the new data *)
  let k2 = chain_kernel () in
  let src2 = insert_src ~vals k2 in
  let p1, p2, p3 = derive_chain k2 src2 in
  List.iter2
    (fun (cls, o) o' ->
      check_int (cls ^ " matches cold derivation") (data_hash k2 cls o')
        (data_hash k cls o))
    [ ("c1", o1); ("c2", o2); ("c3", o3) ]
    [ p1; p2; p3 ];
  (* refresh recorded new provenance for every level *)
  List.iter
    (fun o ->
      match Kernel.task_producing k o with
      | None -> Alcotest.fail "refreshed object lost its producing task"
      | Some (t : Task.t) ->
        check_bool "producing task is one of the refresh tasks" true
          (List.exists
             (fun (r : Task.t) -> r.Task.task_id = t.Task.task_id)
             report.Kernel.tasks))
    [ o1; o2; o3 ]

let test_targeted_refresh_pulls_upstream () =
  let k = chain_kernel () in
  let src = insert_src k in
  let o1, o2, o3 = derive_chain k src in
  update_src k src [| 2.; 4.; 6.; 8. |];
  (* asking only for the leaf must refresh its stale ancestors too,
     and leave nothing half-fresh *)
  let report = Kernel.refresh_stale ~only:[ o3 ] k in
  check_int "leaf plus its stale upstream" 3 report.Kernel.refreshed;
  List.iter
    (fun o -> check_bool "fresh afterwards" false (Kernel.object_stale k o))
    [ o1; o2; o3 ]

let test_refreshed_events_logged () =
  let k = chain_kernel () in
  let src = insert_src k in
  let _ = derive_chain k src in
  update_src k src [| 7.; 7.; 7.; 7. |];
  let _ = Kernel.refresh_stale k in
  let refreshed =
    List.filter_map
      (function Events.Object_refreshed { cls; _ } -> Some cls | _ -> None)
      (events k)
  in
  Alcotest.(check (list string)) "one event per level, in commit order"
    [ "c1"; "c2"; "c3" ] refreshed;
  check_int "metrics counted them" 3 (Kernel.counters k).Kernel.refreshes

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                        *)
(* ------------------------------------------------------------------ *)

let with_pool_size n f =
  let saved = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

(* several independent chains refresh in one run; the order they
   commit in must not depend on the pool size *)
let run_refresh lanes =
  with_pool_size lanes (fun () ->
      let k = chain_kernel () in
      let srcs =
        List.init 4 (fun i ->
            insert_src ~vals:[| float_of_int i; 2.; 3.; 4. |] k)
      in
      let p = Option.get (Kernel.find_process k "chain3") in
      List.iter
        (fun s -> ignore (ok (Kernel.execute_process k p ~inputs:[ ("x", [ s ]) ])))
        srcs;
      List.iter (fun s -> update_src k s [| 8.; 8.; 8.; 8. |]) srcs;
      let report = Kernel.refresh_stale k in
      ( report.Kernel.refreshed,
        List.map
          (fun (seq, ev) -> Printf.sprintf "%d %s" seq (Events.event_to_string ev))
          (Kernel.event_log k),
        List.map
          (fun (t : Task.t) -> (t.Task.task_id, t.Task.process, t.Task.outputs))
          (Kernel.tasks k),
        List.map (fun (cls, os) -> List.map (data_hash k cls) os)
          [ ("c1", Kernel.objects_of_class k "c1");
            ("c2", Kernel.objects_of_class k "c2");
            ("c3", Kernel.objects_of_class k "c3") ] ))

let test_refresh_determinism () =
  let (n1, log1, tasks1, values1) = run_refresh 1 in
  check_int "all twelve objects refreshed" 12 n1;
  List.iter
    (fun lanes ->
      let (n, log, tasks, values) = run_refresh lanes in
      check_int (Printf.sprintf "same refresh count @%d" lanes) n1 n;
      Alcotest.(check (list string))
        (Printf.sprintf "event log identical @%d" lanes)
        log1 log;
      check_bool (Printf.sprintf "tasks identical @%d" lanes) true
        (tasks = tasks1);
      check_bool (Printf.sprintf "values identical @%d" lanes) true
        (values = values1))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Commit order, skips, failures                                      *)
(* ------------------------------------------------------------------ *)

let log_lines k =
  List.map
    (fun (seq, ev) -> Printf.sprintf "%d %s" seq (Events.event_to_string ev))
    (Kernel.event_log k)

let task_rows k =
  List.map
    (fun (t : Task.t) -> (t.Task.task_id, t.Task.process, t.Task.outputs))
    (Kernel.tasks k)

let refreshed_classes k =
  List.filter_map
    (function Events.Object_refreshed { cls; _ } -> Some cls | _ -> None)
    (events k)

(* Each scenario runs at pool sizes 1, 2 and 8; everything observable
   must match the single-lane run. *)
let across_pool_sizes name run =
  let first = run 1 in
  List.iter
    (fun lanes ->
      check_bool (Printf.sprintf "%s identical @%d" name lanes) true
        (run lanes = first))
    [ 2; 8 ]

(* After a targeted refresh, c1's producing task (#4) is newer than
   c2's (#2) and c3's (#3).  A later full refresh must still commit
   c1, c2, c3 in dependency order: ordering by task id alone would
   recompute c2 from the stale c1. *)
let run_refresh_after_targeted lanes =
  with_pool_size lanes (fun () ->
      let k = chain_kernel () in
      let src = insert_src k in
      let o1, o2, o3 = derive_chain k src in
      update_src k src [| 2.; 4.; 6.; 8. |];
      let first = Kernel.refresh_stale ~only:[ o1 ] k in
      check_int "targeted refresh touches c1 only" 1 first.Kernel.refreshed;
      let producer o = (Option.get (Kernel.task_producing k o)).Task.task_id in
      Alcotest.(check (list int)) "producing task ids" [ 4; 2; 3 ]
        [ producer o1; producer o2; producer o3 ];
      let vals = [| 3.; 1.; 4.; 1. |] in
      update_src k src vals;
      let report = Kernel.refresh_stale k in
      check_int "full refresh recomputes all three" 3 report.Kernel.refreshed;
      check_int "nothing left stale" 0 report.Kernel.remaining;
      Alcotest.(check (list string)) "commit order c1, c2, c3"
        [ "c1"; "c1"; "c2"; "c3" ] (refreshed_classes k);
      let k2 = chain_kernel () in
      let p1, p2, p3 = derive_chain k2 (insert_src ~vals k2) in
      List.iter2
        (fun (cls, o) o' ->
          check_int (cls ^ " matches cold derivation") (data_hash k2 cls o')
            (data_hash k cls o))
        [ ("c1", o1); ("c2", o2); ("c3", o3) ]
        [ p1; p2; p3 ];
      (log_lines k, task_rows k))

let test_refresh_after_targeted () =
  across_pool_sizes "refresh after targeted refresh" run_refresh_after_targeted

(* An interpolated object is recomputed by the interpolation its task
   records, and the object derived from it refreshes after it.  An
   object whose input was deleted cannot be recomputed: it is skipped,
   the derived object reading it is skipped with it, and everything
   else still refreshes. *)
let run_refresh_with_skip lanes =
  with_pool_size lanes (fun () ->
      let k = chain_kernel () in
      let a = insert_src k in
      let _ = insert_src ~vals:[| 9.; 9.; 9.; 9. |] ~day:11 k in
      let _ = derive_chain k a in
      let interp =
        match
          Array.to_list
            (ok (Derivation.request_at k ~cls:"src" ~at:(Abstime.of_ymd 1986 1 6) ()))
              .Derivation.objects
        with
        | [ o ] -> o
        | _ -> Alcotest.fail "expected one interpolated object"
      in
      let run proc input =
        let p = Option.get (Kernel.find_process k proc) in
        match (ok (Kernel.execute_process k p ~inputs:[ ("x", [ input ]) ])).Task.outputs with
        | [ o ] -> o
        | _ -> Alcotest.fail "expected one derived object"
      in
      let d = run "s1" interp in
      let gone = insert_src ~vals:[| 7.; 7.; 7.; 7. |] ~day:21 k in
      let orphan = run "s1" gone in
      let below = run "s2" orphan in
      ok (Kernel.delete_object k ~cls:"src" gone);
      update_src k a [| 5.; 6.; 7.; 8. |];
      let report = Kernel.refresh_stale k in
      check_int "the chain and the interpolation refresh" 5
        report.Kernel.refreshed;
      check_int "two objects skipped" 2 report.Kernel.skipped;
      check_int "skipped objects stay stale" 2 report.Kernel.remaining;
      Alcotest.(check (list (pair int string))) "skip reasons"
        [ (orphan,
           Printf.sprintf "mapping data: object %d of class src has no attribute data"
             gone);
          (below, "stale input not refreshable") ]
        report.Kernel.skip_reasons;
      Alcotest.(check (list int)) "stale set" [ orphan; below ]
        (Kernel.stale_objects k);
      List.iter
        (fun o ->
          check_bool (Printf.sprintf "#%d reproduces" o) true
            (ok (Lineage.verify_object k o)))
        [ interp; d ];
      (report.Kernel.skip_reasons, log_lines k, task_rows k))

let test_refresh_with_skip () =
  across_pool_sizes "refresh with a skip" run_refresh_with_skip

(* A compound whose middle step fails evaluation: its three steps are
   independent, yet the steps run in order and the failure ends the
   compound, so only the first step commits, at any pool size. *)
let run_compound_mid_failure lanes =
  with_pool_size lanes (fun () ->
      let k = chain_kernel () in
      let open Template in
      let prim name out assertions factor =
        ok
          (Kernel.define_process k
             (ok
                (Process.define_primitive ~name ~output_class:out
                   ~args:[ Process.scalar_arg "x" "src" ]
                   ~template:
                     (make ~assertions
                        ~mappings:
                          [ { target = "data";
                              rhs =
                                Apply
                                  ("img_scale",
                                   [ Const (Value.float factor); Attr_of ("x", "data") ]) };
                            { target = "spatialextent"; rhs = Attr_of ("x", "spatialextent") };
                            { target = "timestamp"; rhs = Attr_of ("x", "timestamp") } ])
                   ())))
      in
      prim "bad" "c2" [ Expr_true (Const (Value.bool false)) ] 3.;
      prim "s1b" "c1" [] 7.;
      let step proc = { Process.step_process = proc; step_inputs = [ ("x", Process.From_arg "x") ] } in
      ok
        (Kernel.define_process k
           (ok
              (Process.define_compound ~name:"mid_fail" ~output_class:"c1"
                 ~args:[ Process.scalar_arg "x" "src" ]
                 ~steps:[ step "s1"; step "bad"; step "s1b" ]
                 ())));
      let src = insert_src k in
      let p = Option.get (Kernel.find_process k "mid_fail") in
      let err =
        match Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ] with
        | Ok _ -> Alcotest.fail "compound with a failing step succeeded"
        | Error e -> Gaea_error.to_string e
      in
      (match task_rows k with
       | [ (_, "s1", [ _ ]) ] -> ()
       | _ -> Alcotest.fail "expected only the first step's task");
      check_int "first step's object only" 1
        (List.length (Kernel.objects_of_class k "c1"));
      check_int "failing step made no object" 0
        (List.length (Kernel.objects_of_class k "c2"));
      (err, log_lines k, task_rows k))

let test_compound_mid_failure () =
  across_pool_sizes "compound failing mid-way" run_compound_mid_failure

(* ------------------------------------------------------------------ *)
(* Persistence of cache counters                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_stats_survive_persist () =
  let k = chain_kernel () in
  let src = insert_src k in
  let p = Option.get (Kernel.find_process k "chain3") in
  let _ = ok (Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ]) in
  let _ = ok (Kernel.execute_process k p ~inputs:[ ("x", [ src ]) ]) in
  (* some invalidation traffic too *)
  update_src k src [| 4.; 3.; 2.; 1. |];
  let before = Kernel.cache_stats k in
  check_bool "fixture produced hits" true (before.Kernel.hits > 0);
  check_bool "fixture produced invalidations" true
    (before.Kernel.invalidations > 0);
  let k2 = ok (Persist.load (Persist.save k)) in
  let after = Kernel.cache_stats k2 in
  check_int "hits survive" before.Kernel.hits after.Kernel.hits;
  check_int "misses survive" before.Kernel.misses after.Kernel.misses;
  check_int "invalidations survive" before.Kernel.invalidations
    after.Kernel.invalidations;
  check_int "evictions survive" before.Kernel.evictions after.Kernel.evictions;
  (* restore is event-silent, and the stale chain comes back from its
     own section *)
  Alcotest.(check (list int)) "stale set survives" (Kernel.stale_objects k)
    (Kernel.stale_objects k2)

let test_stale_set_survives_persist () =
  let k = chain_kernel () in
  let src = insert_src k in
  let _ = derive_chain k src in
  let vals = [| 4.; 3.; 2.; 1. |] in
  update_src k src vals;
  let stale = Kernel.stale_objects k in
  check_int "the chain is stale" 3 (List.length stale);
  let k2 = ok (Persist.load (Persist.save k)) in
  Alcotest.(check (list int)) "same stale set after load" stale
    (Kernel.stale_objects k2);
  let report = Kernel.refresh_stale k2 in
  check_int "REFRESH ALL on the loaded kernel refreshes it" 3
    report.Kernel.refreshed;
  Alcotest.(check (list int)) "fresh afterwards" [] (Kernel.stale_objects k2);
  let k3 = chain_kernel () in
  let p1, p2, p3 = derive_chain k3 (insert_src ~vals k3) in
  List.iter2
    (fun (cls, o) o' ->
      check_int (cls ^ " matches cold derivation") (data_hash k3 cls o')
        (data_hash k2 cls o))
    (List.combine [ "c1"; "c2"; "c3" ] stale)
    [ p1; p2; p3 ]

let test_stale_section_optional () =
  let k = chain_kernel () in
  let src = insert_src k in
  let _ = derive_chain k src in
  update_src k src [| 4.; 3.; 2.; 1. |];
  let old_save =
    String.split_on_char '\n' (Persist.save k)
    |> List.filter (fun line ->
           not (String.length line >= 7 && String.sub line 0 7 = "(stale "))
    |> String.concat "\n"
  in
  Alcotest.(check (list int)) "a save without the section loads fresh" []
    (Kernel.stale_objects (ok (Persist.load old_save)))

(* ------------------------------------------------------------------ *)
(* GA033: staleness lint                                                *)
(* ------------------------------------------------------------------ *)

let has_code code ds = List.exists (fun d -> d.Diagnostic.code = code) ds

let test_ga033_flags_stale () =
  let k = chain_kernel () in
  let src = insert_src k in
  let _ = derive_chain k src in
  check_bool "fresh kernel has no GA033" false
    (has_code "GA033" (Analysis.check_kernel k));
  update_src k src [| 3.; 1.; 4.; 1. |];
  let ds = List.filter (fun d -> d.Diagnostic.code = "GA033") (Analysis.check_kernel k) in
  check_int "one GA033 per stale object" 3 (List.length ds);
  List.iter
    (fun d ->
      check_bool "GA033 is informational" true
        (d.Diagnostic.severity = Diagnostic.Info))
    ds;
  (* the lint and the refresh subsystem share one staleness definition *)
  let _ = Kernel.refresh_stale k in
  check_bool "GA033 clears after REFRESH" false
    (has_code "GA033" (Analysis.check_kernel k))

let () =
  Alcotest.run "refresh"
    [ ( "staleness",
        [ tc "update stales the chain transitively" test_update_stales_transitively;
          tc "unrelated pipelines stay fresh" test_update_spares_unrelated;
          tc "update drops every cache entry it stales" test_update_empties_cache;
          tc "re-versioning a step drops the compound above"
            test_reversion_drops_compound;
          tc "derived from a stale input is stale" test_derived_from_stale_is_stale;
          tc "a first version stales nothing" test_first_version_stales_nothing ] );
      ( "reuse-by-step",
        [ tc "a repeated compound reuses every step"
            test_repeated_compound_reuses_steps ] );
      ( "refresh",
        [ tc "recomputes stale subgraph in place" test_refresh_recomputes_in_place;
          tc "targeted refresh pulls stale upstream" test_targeted_refresh_pulls_upstream;
          tc "events and metrics" test_refreshed_events_logged;
          tc "deterministic across pool sizes" test_refresh_determinism ] );
      ( "commit-order",
        [ tc "refresh after a targeted refresh" test_refresh_after_targeted;
          tc "refresh with a skip" test_refresh_with_skip;
          tc "compound failing mid-way" test_compound_mid_failure ] );
      ( "persist",
        [ tc "cache counters survive save/load" test_cache_stats_survive_persist;
          tc "stale set survives save/load" test_stale_set_survives_persist;
          tc "saves without a stale section" test_stale_section_optional ] );
      ( "lint",
        [ tc "GA033 flags stale derived objects" test_ga033_flags_stale ] ) ]
