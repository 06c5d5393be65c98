(* Tests for the kernel event log: the ring buffer, the counters it
   feeds, the exact event sequence of the staleness paths, cache
   invalidation observed through the log (parity with the direct cache
   tests in test_core), and a randomized persistence round-trip over
   event-built kernels. *)

open Gaea_core
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Image = Gaea_raster.Image
module Pixel = Gaea_raster.Pixel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Gaea_error.to_string e)

(* Same fixture as test_core: one source class, one derived class, one
   primitive process negating the source image. *)
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

let events k = List.map snd (Kernel.event_log k)

let count_where p k = List.length (List.filter p (events k))

(* ------------------------------------------------------------------ *)
(* Bus mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_ring_buffer_wrap () =
  let bus = Events.create ~log_capacity:4 () in
  for i = 0 to 9 do
    Events.emit bus (Events.Class_defined (Printf.sprintf "c%d" i))
  done;
  check_int "all emissions counted" 10 (Events.seen bus);
  let log = Events.log bus in
  check_int "ring keeps capacity entries" 4 (List.length log);
  Alcotest.(check (list int)) "latest sequence numbers survive"
    [ 6; 7; 8; 9 ] (List.map fst log);
  check_bool "oldest first" true
    (match log with
     | (6, Events.Class_defined "c6") :: _ -> true
     | _ -> false)

let test_event_rendering () =
  Alcotest.(check string) "object event" "object_inserted pt #3"
    (Events.event_to_string (Events.Object_inserted { cls = "pt"; oid = 3 }));
  Alcotest.(check string) "invalidate event"
    "cache_invalidated 2 entries (process negate)"
    (Events.event_to_string
       (Events.Cache_invalidated { entries = 2; reason = "process negate" }))

(* ------------------------------------------------------------------ *)
(* Kernel wiring                                                       *)
(* ------------------------------------------------------------------ *)

let test_lifecycle_events_logged () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  ok (Kernel.delete_object k ~cls:"src" oid);
  let has ev = List.mem ev (events k) in
  check_bool "class_defined" true (has (Events.Class_defined "src"));
  check_bool "process_defined" true
    (has (Events.Process_defined { name = "negate"; version = 1 }));
  check_bool "object_inserted" true
    (has (Events.Object_inserted { cls = "src"; oid }));
  check_bool "object_deleted" true
    (has (Events.Object_deleted { cls = "src"; oid }))

let test_cache_miss_then_hit_logged () =
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let t1 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let t2 = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  check_int "cache served the repeat" t1.Task.task_id t2.Task.task_id;
  let cache_traffic =
    List.filter_map
      (function
        | Events.Cache_miss { process; _ } -> Some ("miss " ^ process)
        | Events.Cache_hit { process; _ } -> Some ("hit " ^ process)
        | _ -> None)
      (events k)
  in
  Alcotest.(check (list string)) "miss first, then hit"
    [ "miss negate"; "hit negate" ] cache_traffic;
  (* the counters the bus bumps and the log must agree *)
  let c = Kernel.counters k in
  check_int "hit counter parity" c.Kernel.cache_hits
    (count_where (function Events.Cache_hit _ -> true | _ -> false) k);
  check_int "miss counter parity" c.Kernel.cache_misses
    (count_where (function Events.Cache_miss _ -> true | _ -> false) k);
  check_int "execution counter parity" c.Kernel.executions
    (count_where (function Events.Task_recorded _ -> true | _ -> false) k)

let invalidations_with reason_prefix k =
  count_where
    (function
      | Events.Cache_invalidated { reason; entries } ->
        entries > 0
        && String.length reason >= String.length reason_prefix
        && String.sub reason 0 (String.length reason_prefix) = reason_prefix
      | _ -> false)
    k

let test_invalidation_events_on_reversion () =
  (* parity with test_core's test_cache_invalidated_by_new_version,
     observed through the event log *)
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let v1 = Option.get (Kernel.find_process k "negate") in
  let _ = ok (Kernel.execute_process k v1 ~inputs:[ ("x", [ oid ]) ]) in
  let v2 = ok (Process.edit v1 ~name:"negate" ~doc:"sharpened" ()) in
  ok (Kernel.define_process k v2);
  check_bool "process_versioned logged" true
    (List.mem (Events.Process_versioned { name = "negate"; version = 2 })
       (events k));
  check_int "entries dropped" 0 (Kernel.cache_stats k).Kernel.entries;
  check_int "one invalidation event for the process" 1
    (invalidations_with "process negate" k)

let test_invalidation_events_on_delete () =
  (* parity with test_core's test_cache_invalidated_by_delete *)
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let _ = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  ok (Kernel.delete_object k ~cls:"src" oid);
  check_int "entry dropped with its input" 0
    (Kernel.cache_stats k).Kernel.entries;
  check_int "invalidation attributed to the object" 1
    (invalidations_with (Printf.sprintf "object #%d" oid) k)

let test_restore_is_event_silent () =
  (* kernel restore replays state without re-announcing it: Persist.load
     must not log events, bump counters or invalidate the cache *)
  let k = simple_kernel () in
  let oid = insert_src k 1 2.0 in
  let proc = Option.get (Kernel.find_process k "negate") in
  let task = ok (Kernel.execute_process k proc ~inputs:[ ("x", [ oid ]) ]) in
  let k2 = simple_kernel () in
  let before = Events.seen (Kernel.bus k2) in
  ok
    (Kernel.insert_object_with_oid k2 ~cls:"src" 42
       [ ("tag", Value.int 1);
         ("data", Value.image (Image.of_array ~nrow:1 ~ncol:2 Pixel.Float8 [| 0.; 1. |]));
         ("spatialextent", Value.box (Box.make ~xmin:0. ~ymin:0. ~xmax:1. ~ymax:1.));
         ("timestamp", Value.abstime (Abstime.of_ymd 1986 1 1)) ]);
  ok (Kernel.restore_task k2 task);
  check_int "no events emitted by restore paths" before
    (Events.seen (Kernel.bus k2))

(* ------------------------------------------------------------------ *)
(* Event sequence of the staleness paths                               *)
(* ------------------------------------------------------------------ *)

(* The exact log of the four paths that change staleness: a base
   update, a derive from the stale output, REFRESH, and a delete plus a
   re-version.  Staleness and cache invalidation are called where the
   state changes, so this pins both what is announced and in which
   order relative to the invalidations. *)
let test_staleness_event_sequence () =
  let k = simple_kernel () in
  let out2 =
    ok
      (Schema.define ~name:"out2"
         ~attributes:
           [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
             ("timestamp", Vtype.Abstime) ]
         ~derived_by:"renegate" ())
  in
  ok (Kernel.define_class k out2);
  let negate = Option.get (Kernel.find_process k "negate") in
  let renegate =
    ok
      (Process.define_primitive ~name:"renegate" ~output_class:"out2"
         ~args:[ Process.scalar_arg "x" "out" ]
         ~template:(Option.get (Process.template negate))
         ())
  in
  ok (Kernel.define_process k renegate);
  let src = insert_src k 1 2.0 in
  let t = ok (Kernel.execute_process k negate ~inputs:[ ("x", [ src ]) ]) in
  let out = List.hd t.Task.outputs in
  let mark = ref (Events.seen (Kernel.bus k)) in
  let since () =
    let from = !mark in
    mark := Events.seen (Kernel.bus k);
    List.filter_map
      (fun (seq, ev) ->
        if seq >= from then Some (Events.event_to_string ev) else None)
      (Kernel.event_log k)
  in
  let check name expected =
    Alcotest.(check (list string)) name expected (since ())
  in
  ok
    (Kernel.update_object k ~cls:"src" src
       [ ("data",
          Value.image (Image.of_array ~nrow:1 ~ncol:2 Pixel.Float8 [| 5.; 6. |])) ]);
  check "base update"
    [ "object_updated src #1"; "cache_invalidated 1 entries (object #1)" ];
  let t2 = ok (Kernel.execute_process k renegate ~inputs:[ ("x", [ out ]) ]) in
  check "derive from the stale output"
    [ "cache_miss renegate v1"; "object_inserted out2 #3";
      "task_recorded #2 renegate v1" ];
  let _ = Kernel.refresh_stale k in
  check "refresh"
    [ "object_updated out #2"; "cache_invalidated 1 entries (object #2)";
      "task_recorded #3 negate v1"; "object_refreshed out #2 task #3";
      "object_updated out2 #3"; "task_recorded #4 renegate v1";
      "object_refreshed out2 #3 task #4" ];
  ok (Kernel.delete_object k ~cls:"out2" (List.hd t2.Task.outputs));
  ok (Kernel.define_process k (ok (Process.edit negate ~name:"negate" ())));
  check "delete and re-version"
    [ "object_deleted out2 #3"; "cache_invalidated 1 entries (object #3)";
      "process_versioned negate v2";
      "cache_invalidated 1 entries (process negate)" ]

(* ------------------------------------------------------------------ *)
(* Compound determinism                                                *)
(* ------------------------------------------------------------------ *)

(* The deriver runs compound steps strictly in step order on the
   calling domain, whatever the pool size: oids, task ids and the full
   event log must be identical at any pool size. *)

module Pool = Gaea_par.Pool

(* [f ()] at a pool of [n] lanes: more than one lane takes the
   parallel path on any host *)
let with_pool_size n f =
  let saved = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

(* src --neg--> c_neg --fin--> c_fin, src --dbl--> c_dbl; the compound
   "pipeline" runs [neg x; dbl x; fin (step 0)] — steps 0 and 1 are
   independent, step 2 depends on step 0.  "twice" runs [neg x; neg x] — the duplicate
   step must register a cache hit, not a second execution. *)
let fan_kernel () =
  let k = Kernel.create () in
  let base_attrs =
    [ ("data", Vtype.Image); ("spatialextent", Vtype.Box);
      ("timestamp", Vtype.Abstime) ]
  in
  ok
    (Kernel.define_class k
       (ok
          (Schema.define ~name:"src"
             ~attributes:(("tag", Vtype.Int) :: base_attrs) ())));
  List.iter
    (fun (cls, proc) ->
      ok
        (Kernel.define_class k
           (ok (Schema.define ~name:cls ~attributes:base_attrs ~derived_by:proc ()))))
    [ ("c_neg", "neg"); ("c_dbl", "dbl"); ("c_fin", "pipeline") ];
  let open Template in
  let prim name out arg_cls arg factor =
    ok
      (Process.define_primitive ~name ~output_class:out
         ~args:[ Process.scalar_arg arg arg_cls ]
         ~template:
           (make ~assertions:[]
              ~mappings:
                [ { target = "data";
                    rhs =
                      Apply
                        ("img_scale",
                         [ Const (Value.float factor); Attr_of (arg, "data") ]) };
                  { target = "spatialextent"; rhs = Attr_of (arg, "spatialextent") };
                  { target = "timestamp"; rhs = Attr_of (arg, "timestamp") } ])
         ())
  in
  ok (Kernel.define_process k (prim "neg" "c_neg" "src" "x" (-1.)));
  ok (Kernel.define_process k (prim "dbl" "c_dbl" "src" "x" 2.));
  ok (Kernel.define_process k (prim "fin" "c_fin" "c_neg" "y" 10.));
  let step proc bindings = { Process.step_process = proc; step_inputs = bindings } in
  ok
    (Kernel.define_process k
       (ok
          (Process.define_compound ~name:"pipeline" ~output_class:"c_fin"
             ~args:[ Process.scalar_arg "x" "src" ]
             ~steps:
               [ step "neg" [ ("x", Process.From_arg "x") ];
                 step "dbl" [ ("x", Process.From_arg "x") ];
                 step "fin" [ ("y", Process.From_step 0) ] ]
             ())));
  ok
    (Kernel.define_process k
       (ok
          (Process.define_compound ~name:"twice" ~output_class:"c_neg"
             ~args:[ Process.scalar_arg "x" "src" ]
             ~steps:
               [ step "neg" [ ("x", Process.From_arg "x") ];
                 step "neg" [ ("x", Process.From_arg "x") ] ]
             ())));
  k

(* a fresh kernel per run, so oid / task-id / event sequences line up *)
let run_compound name lanes =
  with_pool_size lanes (fun () ->
      let k = fan_kernel () in
      let oid = insert_src k 1 2.0 in
      let p = Option.get (Kernel.find_process k name) in
      let task = ok (Kernel.execute_process k p ~inputs:[ ("x", [ oid ]) ]) in
      let log =
        List.map
          (fun (seq, ev) -> Printf.sprintf "%d %s" seq (Events.event_to_string ev))
          (Kernel.event_log k)
      in
      let tasks =
        List.map
          (fun (t : Task.t) -> (t.Task.task_id, t.Task.process, t.Task.outputs))
          (Kernel.tasks k)
      in
      (log, tasks, (task.Task.task_id, task.Task.process, task.Task.outputs)))

let test_scheduler_determinism () =
  let log1, tasks1, final1 = run_compound "pipeline" 1 in
  check_int "one task per primitive step" 3 (List.length tasks1);
  List.iter
    (fun lanes ->
      let log, tasks, final = run_compound "pipeline" lanes in
      Alcotest.(check (list string))
        (Printf.sprintf "event log identical @%d" lanes)
        log1 log;
      check_bool
        (Printf.sprintf "tasks identical @%d" lanes)
        true (tasks = tasks1);
      check_bool
        (Printf.sprintf "final task identical @%d" lanes)
        true (final = final1))
    [ 2; 8 ]

let test_scheduler_duplicate_step_hits_cache () =
  let log1, tasks1, final1 = run_compound "twice" 1 in
  check_int "duplicate step served from cache" 1 (List.length tasks1);
  let hits log =
    List.length
      (List.filter (fun l -> String.length l > 0 &&
                             String.split_on_char ' ' l
                             |> fun ws -> List.exists (( = ) "cache_hit") ws)
         log)
  in
  check_bool "at least one hit logged" true (hits log1 >= 1);
  List.iter
    (fun lanes ->
      let log, tasks, final = run_compound "twice" lanes in
      Alcotest.(check (list string))
        (Printf.sprintf "event log identical @%d" lanes)
        log1 log;
      check_bool
        (Printf.sprintf "tasks identical @%d" lanes)
        true (tasks = tasks1 && final = final1))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Persistence round-trip property                                     *)
(* ------------------------------------------------------------------ *)

let persist_roundtrip_prop =
  QCheck.Test.make ~name:"persist roundtrip preserves catalog, tasks, lineage"
    ~count:30
    QCheck.(
      pair (int_range 1 4)
        (pair (int_range 0 2) (list_of_size (Gen.return 4) (float_range (-50.) 50.))))
    (fun (n_objects, (extra_versions, floats)) ->
      let k = simple_kernel () in
      let vals = Array.of_list (floats @ [ 1.0; 2.0; 3.0; 4.0 ]) in
      let oids =
        List.init n_objects (fun i -> insert_src k (i + 1) vals.(i))
      in
      let v1 = Option.get (Kernel.find_process k "negate") in
      for _ = 1 to extra_versions do
        let latest = Option.get (Kernel.find_process k "negate") in
        ok (Kernel.define_process k (ok (Process.edit latest ~name:"negate" ())))
      done;
      List.iter
        (fun oid ->
          ignore (ok (Kernel.execute_process k v1 ~inputs:[ ("x", [ oid ]) ])))
        oids;
      match Persist.load (Persist.save k) with
      | Error e -> QCheck.Test.fail_report (Gaea_error.to_string e)
      | Ok k2 ->
        List.length (Kernel.classes k) = List.length (Kernel.classes k2)
        && List.length (Kernel.all_process_versions k)
           = List.length (Kernel.all_process_versions k2)
        && List.length (Kernel.tasks k) = List.length (Kernel.tasks k2)
        && Kernel.count_objects k "src" = Kernel.count_objects k2 "src"
        && Kernel.count_objects k "out" = Kernel.count_objects k2 "out"
        && List.for_all
             (fun (t : Task.t) ->
               match t.Task.outputs with
               | [ out ] -> Kernel.task_producing k2 out <> None
               | _ -> false)
             (Kernel.tasks k2)
        && List.for_all
             (fun (t : Task.t) -> Result.is_ok (Kernel.recompute_task k2 t))
             (Kernel.tasks k2))

let () =
  Alcotest.run "events"
    [ ( "bus",
        [ tc "ring buffer wrap" test_ring_buffer_wrap;
          tc "event rendering" test_event_rendering ] );
      ( "kernel",
        [ tc "lifecycle events logged" test_lifecycle_events_logged;
          tc "cache miss then hit logged" test_cache_miss_then_hit_logged;
          tc "invalidation on re-version" test_invalidation_events_on_reversion;
          tc "invalidation on delete" test_invalidation_events_on_delete;
          tc "restore is event-silent" test_restore_is_event_silent;
          tc "staleness event sequence" test_staleness_event_sequence ] );
      ( "scheduler",
        [ tc "step-parallel determinism" test_scheduler_determinism;
          tc "duplicate step hits cache" test_scheduler_duplicate_step_hits_cache ] );
      qsuite "persist" [ persist_roundtrip_prop ] ]
