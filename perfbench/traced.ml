(* The traced run: per-layer metrics.

   Every statement is issued as [Parser.parse_one] then
   [Executor.execute], each timed as its own span.  Around them the run
   adds spans for probe calls: side-effect-free calls into one layer's
   public functions on the same database state, re-issued by the
   benchmark and never counted in statement time.  The spans are timed
   from outside the program; nothing inside the library is
   instrumented. *)

open Exec

let us = 1e6
let ms = 1e3

(* time [f] into span [name], in seconds scaled by [scale] *)
let span sp name ~scale f =
  let t0 = now () in
  let r = f () in
  add sp name ((now () -. t0) *. scale);
  r

(* the rows on a plan's access path, for rows examined per row returned *)
let rows_on_path k (plan : Plan.select_plan) =
  List.fold_left
    (fun acc cls ->
      match Kernel.class_table k cls with
      | None -> acc
      | Some tab when cls = List.hd plan.Plan.classes ->
        acc
        + (match plan.Plan.path with
           | Plan.Full_scan -> Table.row_count tab
           | Plan.Index_eq (a, v) -> List.length (Table.lookup_eq tab a v)
           | Plan.Index_range (a, lo, hi) -> List.length (Table.lookup_range tab a ?lo ?hi ()))
      | Some tab -> acc + Table.row_count tab)
    0 plan.Plan.classes

let select_probe sp env (s : Ast.select) returned =
  match span sp "optimizer.plan_select_us" ~scale:us (fun () -> Optimizer.plan_select env.k s) with
  | Ok plan ->
    add sp "rows.examined" (float (rows_on_path env.k plan));
    add sp "rows.returned" (float returned)
  | Error e -> fail "plan_select probe: %s" (Gaea_error.to_string e)

(* once per round: the storage, ADT, kernel, backchain, binding,
   refresh, provenance, analysis and object-store probes *)
let round_probes sp (w : Gen.workload) env =
  let k = env.k in
  let base = w.Gen.base_cls in
  match Kernel.class_table k base with
  | None -> fail "no table for %s" base
  | Some tab ->
    ignore (span sp "storage.analyze_table_us" ~scale:us (fun () -> Stats.analyze_table tab));
    ignore
      (span sp "storage.scan_us" ~scale:us (fun () ->
           Table.fold tab ~init:0 ~f:(fun n _ _ -> n + 1)));
    let ((y, m, d) as date) = w.Gen.probe_date () in
    let day = Abstime.of_ymd y m d in
    ignore
      (span sp "storage.btree_range_us" ~scale:us (fun () ->
           Table.lookup_range tab "timestamp"
             ~lo:(Value.abstime (Abstime.add_days day (-1)))
             ~hi:(Value.abstime (Abstime.add_days day 1))
             ()));
    (match
       Parser.parse_one
         (Printf.sprintf "SELECT * FROM %s WHERE timestamp AT %s;" base
            (Gen.date_literal date))
     with
     | Ok (Ast.Select s as stmt) ->
       (match Executor.execute env.ex stmt with
        | Ok (Executor.Rows { rows; _ }) -> select_probe sp env s (List.length rows)
        | _ -> fail "probe SELECT failed")
     | _ -> fail "probe SELECT does not parse");
    (* content hashes of the stored images *)
    let data =
      match Tuple.attr_index (Table.descriptor tab) "data" with
      | None -> []
      | Some i -> Table.fold tab ~init:[] ~f:(fun acc _ t -> Tuple.get t i :: acc)
    in
    if data <> [] then begin
      let t0 = now () in
      let hashes = List.map Value.content_hash data in
      add sp "adt.content_hash_us" ((now () -. t0) *. us /. float (List.length data));
      let distinct f = List.length (List.sort_uniq compare (List.map f hashes)) in
      add sp "adt.hash_low12_distinct_ratio"
        (float (distinct (fun h -> h land 0xfff)) /. float (distinct Fun.id))
    end;
    ignore (span sp "kernel.current_marking_us" ~scale:us (fun () -> Kernel.current_marking k));
    let need = Kernel.count_objects k w.Gen.derived_cls + 1 in
    ignore
      (span sp "backchain.search_us" ~scale:us (fun () ->
           Derivation.derivation_plan k ~need w.Gen.derived_cls));
    (match Kernel.find_process k w.Gen.first_process with
     | None -> fail "no process %s" w.Gen.first_process
     | Some p ->
       let available = [ (base, Kernel.objects_of_class k base) ] in
       ignore
         (span sp "deriver.find_binding_us" ~scale:us (fun () ->
              Kernel.find_binding k p ~available)));
    ignore (span sp "refresh.stale_objects_us" ~scale:us (fun () -> Kernel.stale_objects k));
    ignore (span sp "provenance.tasks_us" ~scale:us (fun () -> Kernel.tasks k));
    ignore
      (span sp "analysis.check_all_ms" ~scale:ms (fun () ->
           Executor.execute env.ex Ast.Check_all));
    (* a copy of the first base object, inserted and deleted again *)
    (match Kernel.objects_of_class k base, Kernel.find_class k base with
     | oid :: _, Some def ->
       let pairs =
         List.filter_map
           (fun a -> Option.map (fun v -> (a, v)) (Kernel.object_attr k ~cls:base oid a))
           (Schema.attr_names def)
       in
       (match
          span sp "obj_store.insert_us" ~scale:us (fun () ->
              Kernel.insert_object k ~cls:base pairs)
        with
        | Ok copy ->
          (match
             span sp "obj_store.delete_us" ~scale:us (fun () ->
                 Kernel.delete_object k ~cls:base copy)
           with
           | Ok () -> ()
           | Error e -> fail "delete probe: %s" (Gaea_error.to_string e))
        | Error e -> fail "insert probe: %s" (Gaea_error.to_string e))
     | _ -> fail "no %s object to copy" base)

(* operator arguments seen per operator, for the pool probe *)
let last_args : (string, Value.t list) Hashtbl.t = Hashtbl.create 16

(* after a DERIVE that fired tasks: pure evaluation of the tasks just
   recorded, the registry on the same values, and a cache probe *)
let derive_probes sp env (op : Gen.op) (o : outcome) ~pixels =
  let k = env.k in
  let tasks = List.filter_map (Kernel.find_task k) o.fired in
  let eval =
    List.fold_left
      (fun acc t ->
        let t0 = now () in
        (match Derivation.recompute k t with
         | Ok _ -> ()
         | Error e -> fail "recompute task %d: %s" t.Task.task_id (Gaea_error.to_string e));
        acc +. (now () -. t0))
      0. tasks
  in
  add sp "deriver.eval_us" (eval *. us);
  add sp "deriver.eval_share" (eval /. o.latency);
  add sp "raster.mpixel_per_s" (float pixels /. o.latency /. 1e6);
  (match op with
   | Gen.Gql { expect = Gen.Fired (_ :: _ as ps); _ } ->
     let p = List.nth ps (List.length ps - 1) in
     let total = ref 0. in
     ignore
       (eval_recipe
          ~timed:(fun name args dt ->
            Hashtbl.replace last_args name args;
            total := !total +. dt;
            add sp ("registry.apply_ms." ^ name) (dt *. ms))
          p.Gen.recipe);
     add sp "registry.apply_ms" (!total *. ms)
   | _ -> ());
  match List.rev tasks with
  | [] -> fail "fired tasks not found"
  | t :: _ ->
    (match Kernel.find_process k ~version:t.Task.process_version t.Task.process with
     | None -> fail "process %s vanished" t.Task.process
     | Some p ->
       let t0 = now () in
       let r = Kernel.execute_process k p ~inputs:t.Task.inputs in
       let dt = now () -. t0 in
       (match r with
        | Ok t' when t'.Task.task_id = t.Task.task_id -> add sp "cache.probe_hit_us" (dt *. us)
        | Ok t' ->
          (* evicted: the probe re-derived; drop the duplicate again *)
          add sp "cache.probe_misses" 1.;
          List.iter
            (fun oid -> ignore (Kernel.delete_object k ~cls:t'.Task.output_class oid))
            t'.Task.outputs
        | Error e -> fail "cache probe: %s" (Gaea_error.to_string e)))

type cache_totals = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

(* run [rounds] rounds traced, with the round probes on at most 16 of
   them; returns the summed statement time *)
let run sp (w : Gen.workload) env ~rounds =
  let probe_every = max 1 (rounds / 16) in
  let k = env.k in
  let total = ref 0. in
  let cache = { hits = 0; misses = 0; evictions = 0; invalidations = 0 } in
  let gc0 = Gc.quick_stat () in
  for r = 1 to rounds do
    List.iter
      (fun op ->
        let c = Kernel.counters k in
        let refreshes = c.Kernel.refreshes and pixels = c.Kernel.pixels_processed in
        let cs = Kernel.cache_stats k in
        let seen = Gaea_core.Events.seen (Kernel.bus k) in
        match exec env op with
        | None -> ()
        | Some o ->
          total := !total +. o.latency;
          let kind = Gen.kind_name o.kind in
          let cs' = Kernel.cache_stats k in
          cache.hits <- cache.hits + cs'.Kernel.hits - cs.Kernel.hits;
          cache.misses <- cache.misses + cs'.Kernel.misses - cs.Kernel.misses;
          cache.evictions <- cache.evictions + cs'.Kernel.evictions - cs.Kernel.evictions;
          cache.invalidations <-
            cache.invalidations + cs'.Kernel.invalidations - cs.Kernel.invalidations;
          add sp "events.per_stmt" (float (Gaea_core.Events.seen (Kernel.bus k) - seen));
          add sp ("gc.minor_words_per_stmt." ^ kind) o.words;
          (match op with
           | Gen.Gql _ ->
             add sp "parser.parse_us" (o.parse *. us);
             add sp ("executor.execute_us." ^ kind) ((o.latency -. o.parse) *. us)
           | Gen.Ingest _ -> add sp "obj_store.insert_us" (o.latency *. us)
           | Gen.Update _ -> add sp "obj_store.update_us" (o.latency *. us)
           | Gen.Execute _ | Gen.Verify _ | Gen.Halve_cache_budget -> ());
          (match o.stmt, o.response with
           | Some (Ast.Select s), Some (Executor.Rows { rows; _ }) ->
             select_probe sp env s (List.length rows)
           | _ -> ());
          let c = Kernel.counters k in
          (match o.kind with
           | Gen.Derive ->
             derive_probes sp env op o ~pixels:(c.Kernel.pixels_processed - pixels)
           | Gen.Refresh ->
             let n = c.Kernel.refreshes - refreshes in
             add sp "refresh.refreshed_per_refresh" (float n);
             if n > 0 then add sp "refresh.us_per_object" (o.latency *. us /. float n)
           | _ -> ()))
      (w.Gen.next_round ());
    if r mod probe_every = 0 then round_probes sp w env
  done;
  let gc1 = Gc.quick_stat () in
  add sp "gc.major_collections" (float (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let looked = cache.hits + cache.misses in
  add sp "cache.hit_ratio" (if looked = 0 then 0. else float cache.hits /. float looked);
  add sp "cache.evictions" (float cache.evictions);
  add sp "cache.invalidations" (float cache.invalidations);
  add sp "cache.resident_bytes" (float (Kernel.cache_stats k).Kernel.resident_bytes);
  !total

(* ------------------------------------------------------------------ *)
(* End-of-run probes                                                   *)
(* ------------------------------------------------------------------ *)

let rec value_bytes = function
  | Value.VImage i -> 8 * Image.size i
  | Value.VComposite c -> 8 * Composite.n_pixels c * Composite.n_bands c
  | Value.VVector a -> 8 * Array.length a
  | Value.VString s -> String.length s
  | Value.VBox _ -> 32
  | Value.VSet l -> List.fold_left (fun acc v -> acc + value_bytes v) 0 l
  | Value.VInt _ | Value.VFloat _ | Value.VBool _ | Value.VAbstime _
  | Value.VInterval _ | Value.VMatrix _ ->
    8

let user_bytes k =
  List.fold_left
    (fun acc def ->
      let cls = def.Schema.c_name in
      List.fold_left
        (fun acc oid ->
          List.fold_left
            (fun acc a ->
              match Kernel.object_attr k ~cls oid a with
              | Some v -> acc + value_bytes v
              | None -> acc)
            acc (Schema.attr_names def))
        acc (Kernel.objects_of_class k cls))
    0 (Kernel.classes k)

let btree_indexes k =
  List.length
    (List.filter
       (fun def ->
         match def.Schema.temporal_attr, Kernel.class_table k def.Schema.c_name with
         | Some a, Some tab -> Table.has_btree_index tab a
         | _ -> false)
       (Kernel.classes k))

(* what a save -> load round trip loses today: staleness and indexes,
   recorded as counts rather than failures *)
let persist_probes sp (w : Gen.workload) env =
  let k = env.k in
  let s = Persist.save k in
  add sp "persist.bytes_per_user_byte" (float (String.length s) /. float (user_bytes k));
  let base = w.Gen.base_cls in
  (match Kernel.objects_of_class k base with
   | oid :: _ ->
     (match Kernel.object_attr k ~cls:base oid "data" with
      | Some (Value.VImage img) ->
        ignore
          (Kernel.update_object k ~cls:base oid
             [ ("data", Value.image (Image.map (fun x -> x +. 1.) img)) ])
      | _ -> fail "no image to update in %s" base)
   | [] -> fail "no %s object to update" base);
  let stale = List.length (Kernel.stale_objects k) in
  incr attempted;
  match Persist.load (Persist.save k) with
  | Error e -> fail "load: %s" (Gaea_error.to_string e)
  | Ok lk ->
    add sp "persist.stale_lost" (float (stale - List.length (Kernel.stale_objects lk)));
    add sp "persist.btree_indexes_lost" (float (btree_indexes k - btree_indexes lk))

(* seconds per call of [op], over at least 20 ms of calls *)
let time_op op args =
  let t0 = now () in
  let n = ref 0 in
  while !n < 3 || now () -. t0 < 0.02 do
    ignore (Registry.apply reg op args);
    incr n
  done;
  (now () -. t0) /. float !n

(* the dominant operator at one lane against the default pool size *)
let pool_probes sp =
  let lanes = Pool.size () in
  add sp "pool.lanes" (float lanes);
  let dominant =
    Hashtbl.fold
      (fun name _ best ->
        let t = sum (get sp ("registry.apply_ms." ^ name)) in
        match best with
        | Some (_, bt) when bt >= t -> best
        | _ -> Some (name, t))
      last_args None
  in
  match dominant with
  | None -> fail "no operator ran"
  | Some (name, _) ->
    let args = Hashtbl.find last_args name in
    let at n =
      Pool.set_size n;
      median (List.init 3 (fun _ -> time_op name args))
    in
    let t_default = at lanes in
    let t_one = at 1 in
    Pool.set_size lanes;
    add sp "pool.speedup" (t_one /. t_default)
