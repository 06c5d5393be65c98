module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Operator = Gaea_adt.Operator
module Oid = Gaea_storage.Oid

let ( let* ) r f = Result.bind r f

(* Provenance key of a derived result: the process identity, the exact
   input binding (argument order preserved — templates index into it),
   and the parameter bindings by content hash. *)
type cache_key =
  string * int * (string * Oid.t list) list * (string * int) list

(* A cached result with its memory charge and replacement priority.
   Eviction is GreedyDual-Size: priority = clock at (re)use +
   cost / bytes, so cheap-to-recompute, bulky, long-unused entries go
   first; the clock ratchets to each victim's priority, which ages the
   survivors (the LRU component). *)
type entry = {
  e_task : Task.t;
  e_bytes : int;
  e_cost : float;  (* measured recompute wall-seconds *)
  mutable e_priority : float;
  mutable e_tick : int;  (* last-use tick, LRU tie-break *)
}

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  invalidations : int;
  admissions : int;
  evictions : int;
  resident_bytes : int;
  budget_bytes : int;
}

type t = {
  registry : Registry.t;
  catalog : Catalog.t;
  objects : Obj_store.t;
  procs : Proc_registry.t;
  prov : Provenance.t;
  metrics : Metrics.t;
  bus : Events.bus;
  result_cache : (cache_key, entry) Hashtbl.t;
  producers : (Oid.t, cache_key list) Hashtbl.t;  (* output oid -> keys *)
  mutable invalidations : int;
  mutable budget : int;  (* GAEA_CACHE_BYTES *)
  mutable resident : int;  (* bytes currently charged *)
  mutable gds_clock : float;
  mutable tick : int;
}

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let default_budget = 256 * 1024 * 1024

let budget_from_env () =
  match Sys.getenv_opt "GAEA_CACHE_BYTES" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n > 0 -> n
     | _ -> default_budget)
  | None -> default_budget

(* Per-value resident size.  Raster payloads dominate and are charged
   at their storage-type width; scalars get a small flat charge. *)
let rec bytes_of_value v =
  match v with
  | Value.VImage img ->
    Gaea_raster.Image.size img
    * Gaea_raster.Pixel.size_bytes (Gaea_raster.Image.img_type img)
    + 64
  | Value.VComposite c ->
    List.fold_left
      (fun acc b -> acc + bytes_of_value (Value.VImage b))
      64
      (Gaea_raster.Composite.bands c)
  | Value.VMatrix m ->
    (Gaea_raster.Matrix.rows m * Gaea_raster.Matrix.cols m * 8) + 64
  | Value.VVector a -> (Array.length a * 8) + 64
  | Value.VString s -> String.length s + 32
  | Value.VSet vs -> List.fold_left (fun acc v -> acc + bytes_of_value v) 16 vs
  | _ -> 16

(* What a cached task pins in memory: the stored tuples of its output
   objects. *)
let task_bytes t (task : Task.t) =
  List.fold_left
    (fun acc oid ->
      match Obj_store.class_of t.objects oid with
      | None -> acc
      | Some cls ->
        (match Obj_store.tuple t.objects ~cls oid with
         | None -> acc
         | Some tup ->
           List.fold_left
             (fun acc v -> acc + bytes_of_value v)
             acc
             (Gaea_storage.Tuple.values tup)))
    0 task.Task.outputs

let cache_key_of (p : Process.t) inputs : cache_key =
  ( p.Process.proc_name,
    p.Process.version,
    List.sort (fun (a, _) (b, _) -> String.compare a b) inputs,
    List.map (fun (n, v) -> (n, Value.content_hash v)) p.Process.params
    |> List.sort (fun (a, _) (b, _) -> String.compare a b) )

let cache_stats t =
  { hits = t.metrics.Metrics.cache_hits;
    misses = t.metrics.Metrics.cache_misses;
    entries = Hashtbl.length t.result_cache;
    invalidations = t.invalidations;
    admissions = t.metrics.Metrics.cache_admissions;
    evictions = t.metrics.Metrics.cache_evictions;
    resident_bytes = t.resident;
    budget_bytes = t.budget }

(* Keys of the entries whose task produced [oid]: a compound's entry
   and its last step's entry share an output. *)
let producing_keys t oid =
  Option.value ~default:[] (Hashtbl.find_opt t.producers oid)

let remove_entry t key (e : entry) =
  Hashtbl.remove t.result_cache key;
  t.resident <- t.resident - e.e_bytes;
  List.iter
    (fun oid ->
      match List.filter (fun k -> k <> key) (producing_keys t oid) with
      | [] -> Hashtbl.remove t.producers oid
      | keys -> Hashtbl.replace t.producers oid keys)
    e.e_task.Task.outputs

let drop t ~reason n =
  if n > 0 then begin
    t.invalidations <- t.invalidations + n;
    Events.emit t.bus (Events.Cache_invalidated { entries = n; reason })
  end

let clear_cache t =
  let n = Hashtbl.length t.result_cache in
  Hashtbl.reset t.result_cache;
  Hashtbl.reset t.producers;
  t.resident <- 0;
  drop t ~reason:"clear" n

(* The staleness triggers decide what a change invalidates; the cache
   drops the entries that produced the objects they name. *)
let invalidate t ~reason oids =
  let doomed =
    List.sort_uniq compare (List.concat_map (producing_keys t) oids)
  in
  List.iter
    (fun key -> remove_entry t key (Hashtbl.find t.result_cache key))
    doomed;
  drop t ~reason (List.length doomed)

(* Evict lowest-priority entries (LRU tick breaks ties) until [need]
   more bytes fit under the budget. *)
let evict_for t ~need =
  let freed = ref 0 and count = ref 0 in
  while t.resident + need > t.budget && Hashtbl.length t.result_cache > 0 do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best)
            when best.e_priority < e.e_priority
                 || (best.e_priority = e.e_priority && best.e_tick <= e.e_tick)
            -> acc
          | _ -> Some (k, e))
        t.result_cache None
    in
    match victim with
    | None -> ()
    | Some (k, e) ->
      remove_entry t k e;
      t.gds_clock <- Float.max t.gds_clock e.e_priority;
      freed := !freed + e.e_bytes;
      incr count
  done;
  if !count > 0 then
    Events.emit t.bus
      (Events.Cache_evicted { entries = !count; bytes = !freed; reason = "budget" })

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Admission: charge the task's output bytes, evicting to fit.  An
   entry bigger than the whole budget is never admitted. *)
let admit t (p : Process.t) ~inputs ~cost task =
  let key = cache_key_of p inputs in
  (match Hashtbl.find_opt t.result_cache key with
   | Some old -> remove_entry t key old
   | None -> ());
  let bytes = task_bytes t task in
  if bytes <= t.budget then begin
    evict_for t ~need:bytes;
    let e =
      { e_task = task; e_bytes = bytes; e_cost = cost;
        e_priority = t.gds_clock +. (cost /. float_of_int (max 1 bytes));
        e_tick = next_tick t }
    in
    Hashtbl.replace t.result_cache key e;
    List.iter
      (fun oid -> Hashtbl.replace t.producers oid (key :: producing_keys t oid))
      task.Task.outputs;
    t.resident <- t.resident + bytes;
    Events.emit t.bus
      (Events.Cache_admitted
         { process = p.Process.proc_name; version = p.Process.version; bytes })
  end

let set_cache_budget t n =
  t.budget <- max 0 n;
  evict_for t ~need:0

let restore_cache_stats t ~hits ~misses ~invalidations ~admissions ~evictions =
  t.metrics.Metrics.cache_hits <- hits;
  t.metrics.Metrics.cache_misses <- misses;
  t.metrics.Metrics.cache_admissions <- admissions;
  t.metrics.Metrics.cache_evictions <- evictions;
  t.invalidations <- invalidations

let create ~registry ~catalog ~objects ~procs ~prov ~bus =
  { registry; catalog; objects; procs; prov; metrics = Events.metrics bus; bus;
    result_cache = Hashtbl.create 64; producers = Hashtbl.create 64;
    invalidations = 0; budget = budget_from_env (); resident = 0;
    gds_clock = 0.0; tick = 0 }

(* ------------------------------------------------------------------ *)
(* Template environment                                                *)
(* ------------------------------------------------------------------ *)

let make_env t (p : Process.t) (inputs : (string * Oid.t list) list) =
  let arg_class name =
    Option.map (fun a -> a.Process.arg_class) (Process.arg p name)
  in
  { Template.arg_objects =
      (fun name ->
        Option.map
          (fun oids -> List.map (fun o -> Value.int o) oids)
          (List.assoc_opt name inputs));
    attr_value =
      (fun name i attr ->
        match List.assoc_opt name inputs, arg_class name with
        | Some oids, Some cls when i >= 0 && i < List.length oids ->
          let oid = List.nth oids i in
          (match Obj_store.attr t.objects ~cls oid attr with
           | Some v -> Ok v
           | None ->
             Gaea_error.err
               (Printf.sprintf "object %d of class %s has no attribute %s" oid
                  cls attr))
        | _ ->
          Gaea_error.err
            (Printf.sprintf "bad argument reference %s[%d]" name i));
    spatial_attr =
      (fun name ->
        Option.bind (arg_class name) (fun cls ->
            Option.bind (Catalog.find t.catalog cls) (fun def ->
                def.Schema.spatial_attr)));
    temporal_attr =
      (fun name ->
        Option.bind (arg_class name) (fun cls ->
            Option.bind (Catalog.find t.catalog cls) (fun def ->
                def.Schema.temporal_attr)));
    param = (fun name -> Process.param p name);
    apply =
      (fun op args ->
        match Registry.apply t.registry op args with
        | Ok v -> Ok v
        | Error e -> Error (Gaea_error.Eval_error e));
    arity =
      (fun op ->
        Option.map
          (fun o ->
            match (Operator.signature o).Operator.variadic with
            | Some _ -> `Variadic
            | None -> `Fixed (List.length (Operator.signature o).Operator.params))
          (Registry.find_operator t.registry op)) }

let check_cards (p : Process.t) inputs =
  List.fold_left
    (fun acc spec ->
      let* () = acc in
      match List.assoc_opt spec.Process.arg_name inputs with
      | None ->
        Error
          (Gaea_error.Arity_mismatch
             (Printf.sprintf "%s: argument %s not bound" p.Process.proc_name
                spec.Process.arg_name))
      | Some oids ->
        let n = List.length oids in
        if n < spec.Process.card_min then
          Error
            (Gaea_error.Arity_mismatch
               (Printf.sprintf "%s: %s needs at least %d object(s), got %d"
                  p.Process.proc_name spec.Process.arg_name
                  spec.Process.card_min n))
        else (
          match spec.Process.card_max with
          | Some m when n > m ->
            Error
              (Gaea_error.Arity_mismatch
                 (Printf.sprintf "%s: %s takes at most %d object(s), got %d"
                    p.Process.proc_name spec.Process.arg_name m n))
          | _ -> Ok ()))
    (Ok ()) p.Process.args

let check_inputs t (p : Process.t) inputs =
  let* () = check_cards p inputs in
  match Process.template p with
  | None -> Ok ()
  | Some tmpl ->
    let env = make_env t p inputs in
    Template.check_assertions env tmpl

(* ------------------------------------------------------------------ *)
(* Binding search                                                      *)
(* ------------------------------------------------------------------ *)

(* subsets of size k, capped *)
let rec subsets_k cap k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    let with_x = List.map (fun s -> x :: s) (subsets_k cap (k - 1) rest) in
    let without = if List.length with_x >= cap then [] else subsets_k cap k rest in
    let all = with_x @ without in
    if List.length all > cap then List.filteri (fun i _ -> i < cap) all
    else all

let binding_equal b1 b2 =
  List.length b1 = List.length b2
  && List.for_all
       (fun (arg, oids) ->
         match List.assoc_opt arg b2 with
         | Some oids2 ->
           List.sort Int.compare oids = List.sort Int.compare oids2
         | None -> false)
       b1

let find_binding t ?(exclude = []) (p : Process.t) ~available =
  (* group argument specs by class, preserving declaration order *)
  let by_class = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      let cur =
        Option.value ~default:[]
          (Hashtbl.find_opt by_class spec.Process.arg_class)
      in
      Hashtbl.replace by_class spec.Process.arg_class (cur @ [ spec ]))
    p.Process.args;
  (* candidate assignments per class *)
  let cap = 32 in
  let class_assignments cls specs =
    let oids = Option.value ~default:[] (List.assoc_opt cls available) in
    (* assign specs in order; unbounded SETOF specs swallow the rest *)
    let rec go specs remaining =
      match specs with
      | [] -> [ [] ]
      | spec :: rest ->
        let takes =
          match spec.Process.card_max with
          | Some m ->
            let sizes =
              List.init (m - spec.Process.card_min + 1) (fun i ->
                  spec.Process.card_min + i)
            in
            List.concat_map (fun k -> subsets_k cap k remaining) sizes
          | None ->
            (* greedy: take everything still available *)
            if List.length remaining >= spec.Process.card_min then
              [ remaining ]
            else []
        in
        List.concat_map
          (fun chosen ->
            let left = List.filter (fun o -> not (List.mem o chosen)) remaining in
            List.map
              (fun tail -> (spec.Process.arg_name, chosen) :: tail)
              (go rest left))
          takes
        |> fun l ->
        if List.length l > cap then List.filteri (fun i _ -> i < cap) l else l
    in
    go specs oids
  in
  let classes_in_order =
    List.sort_uniq compare
      (List.map (fun a -> a.Process.arg_class) p.Process.args)
  in
  let rec product = function
    | [] -> [ [] ]
    | cls :: rest ->
      let specs = Hashtbl.find by_class cls in
      let here = class_assignments cls specs in
      let tails = product rest in
      List.concat_map
        (fun assignment -> List.map (fun tail -> assignment @ tail) tails)
        here
      |> fun l ->
      if List.length l > cap * 4 then List.filteri (fun i _ -> i < cap * 4) l
      else l
  in
  let candidates = product classes_in_order in
  let rec try_all last_err = function
    | [] ->
      Gaea_error.err
        (Printf.sprintf "%s: no valid binding found (%s)" p.Process.proc_name
           last_err)
    | binding :: rest ->
      if List.exists (binding_equal binding) exclude then
        try_all "remaining candidates already used" rest
      else (
        match check_inputs t p binding with
        | Ok () -> Ok binding
        | Error e -> try_all (Gaea_error.to_string e) rest)
  in
  try_all "no candidates" candidates

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let count_pixels v =
  match v with
  | Value.VImage img -> Gaea_raster.Image.size img
  | Value.VComposite c ->
    Gaea_raster.Composite.n_pixels c * Gaea_raster.Composite.n_bands c
  | _ -> 0

let eval_primitive t (p : Process.t) inputs =
  match Process.template p with
  | None ->
    Error (Gaea_error.Invalid (p.Process.proc_name ^ ": not a primitive process"))
  | Some tmpl ->
    let* () = check_cards p inputs in
    let env = make_env t p inputs in
    let* () = Template.check_assertions env tmpl in
    let* pairs = Template.eval_mappings env tmpl in
    (* the output class must be fully mapped *)
    (match Catalog.find t.catalog p.Process.output_class with
     | None ->
       Gaea_error.err
         (Printf.sprintf "%s: unknown output class %s" p.Process.proc_name
            p.Process.output_class)
     | Some def ->
       let missing =
         List.filter
           (fun a -> not (List.mem_assoc a pairs))
           (Schema.attr_names def)
       in
       if missing <> [] then
         Gaea_error.err
           (Printf.sprintf "%s: mappings missing for attribute(s) %s"
              p.Process.proc_name
              (String.concat ", " missing))
       else Ok pairs)

(* Commit half of a primitive execution: insert the evaluated output,
   bump metrics, record provenance.  The evaluation's measured time
   rides along as the fresh result's cache cost.  Split from the
   evaluation half so compound steps can evaluate on the pool and
   commit strictly in step order. *)
let commit_primitive t (p : Process.t) inputs (evaluated, cost) =
  let* pairs = evaluated in
  let* oid = Obj_store.insert t.objects ~cls:p.Process.output_class pairs in
  List.iter
    (fun (_, v) ->
      t.metrics.Metrics.pixels_processed <-
        t.metrics.Metrics.pixels_processed + count_pixels v)
    pairs;
  Ok
    ( Provenance.record_task t.prov ~process:p.Process.proc_name
        ~version:p.Process.version ~inputs ~params:p.Process.params
        ~outputs:[ oid ] ~output_class:p.Process.output_class,
      cost )

(* all recorded outputs must still be stored for a cached task to be
   served (guards callers that bypass delete) *)
let outputs_live t (task : Task.t) =
  task.Task.outputs <> []
  && List.for_all (fun oid -> Obj_store.mem t.objects oid) task.Task.outputs

(* Silent, non-mutating probe: will [with_cache] hit? *)
let cached t (p : Process.t) inputs =
  match Hashtbl.find_opt t.result_cache (cache_key_of p inputs) with
  | Some e -> outputs_live t e.e_task
  | None -> false

(* Authoritative cache probe around a process execution: emits
   Cache_hit / Cache_miss and drops stale entries.  On a miss [run]
   produces the result with its measured evaluation time, which the
   fresh entry is admitted with. *)
let with_cache t (p : Process.t) ~inputs run =
  let key = cache_key_of p inputs in
  match Hashtbl.find_opt t.result_cache key with
  | Some e when outputs_live t e.e_task ->
    (* a hit re-seeds the GDS priority from the aged clock *)
    e.e_priority <-
      t.gds_clock +. (e.e_cost /. float_of_int (max 1 e.e_bytes));
    e.e_tick <- next_tick t;
    Events.emit t.bus
      (Events.Cache_hit
         { process = p.Process.proc_name; version = p.Process.version });
    Ok e.e_task
  | stale ->
    (match stale with
     | Some e -> remove_entry t key e
     | None -> ());
    Events.emit t.bus
      (Events.Cache_miss
         { process = p.Process.proc_name; version = p.Process.version });
    let* task, cost = run () in
    admit t p ~inputs ~cost task;
    Ok task

let rec execute_process t (p : Process.t) ~inputs =
  with_cache t p ~inputs (fun () ->
      match p.Process.kind with
      | Process.Primitive _ ->
        commit_primitive t p inputs
          (Scheduler.timed (fun () -> eval_primitive t p inputs))
      | Process.Compound steps ->
        let result, cost =
          Scheduler.timed (fun () -> execute_compound t p ~inputs steps)
        in
        Result.map (fun task -> (task, cost)) result)

(* Compound expansion as a DAG for {!Scheduler}: one node per step, in
   step order, depending on the steps whose outputs it reads.  A
   primitive step offers its pure evaluation (assertions + mappings,
   which only read the kernel tables) unless a silent cache peek says
   its commit will hit, so cached steps never occupy a pool lane.  The
   commit is the authoritative [with_cache] probe: it emits the events,
   asks for the evaluation only on a miss — a step duplicating an
   earlier step's key registers its hit and discards the extra
   evaluation — then inserts the object and records provenance.  The
   first failing step ends the compound. *)
and execute_compound t (p : Process.t) ~inputs steps =
  let arr = Array.of_list steps in
  (* outputs of committed steps, by step index *)
  let outputs = Array.make (Array.length arr) [] in
  let last = ref None in
  (* resolve step [j]'s sub-inputs from the argument binding and the
     outputs of steps committed before it *)
  let resolve j =
    let* rev =
      List.fold_left
        (fun acc (arg, input) ->
          let* acc = acc in
          match input with
          | Process.From_arg a ->
            (match List.assoc_opt a inputs with
             | Some oids -> Ok ((arg, oids) :: acc)
             | None ->
               Gaea_error.err
                 (Printf.sprintf "%s: argument %s not bound"
                    p.Process.proc_name a))
          | Process.From_step k ->
            if k >= 0 && k < j then Ok ((arg, outputs.(k)) :: acc)
            else
              Gaea_error.err
                (Printf.sprintf "%s: step %d output unavailable"
                   p.Process.proc_name k))
        (Ok []) arr.(j).Process.step_inputs
    in
    Ok (List.rev rev)
  in
  let exception Step_failed of Gaea_error.t in
  let node j (step : Process.step) =
    { Scheduler.deps =
        List.filter_map
          (function
            | _, Process.From_step k when k >= 0 && k < j -> Some k
            | _ -> None)
          step.Process.step_inputs;
      eval =
        (fun () ->
          match
            Proc_registry.find t.procs step.Process.step_process, resolve j
          with
          | ( Some ({ Process.kind = Process.Primitive _; _ } as sub),
              Ok sub_inputs )
            when not (cached t sub sub_inputs) ->
            Some (fun () -> eval_primitive t sub sub_inputs)
          | _ -> None);
      commit =
        (fun evaluated ->
          let result =
            match Proc_registry.find t.procs step.Process.step_process with
            | None ->
              Gaea_error.err
                (Printf.sprintf "%s: unknown sub-process %s"
                   p.Process.proc_name step.Process.step_process)
            | Some sub ->
              let* sub_inputs = resolve j in
              (match sub.Process.kind with
               | Process.Primitive _ ->
                 with_cache t sub ~inputs:sub_inputs (fun () ->
                     commit_primitive t sub sub_inputs (evaluated ()))
               | Process.Compound _ ->
                 execute_process t sub ~inputs:sub_inputs)
          in
          match result with
          | Error e -> raise (Step_failed e)
          | Ok task ->
            outputs.(j) <- task.Task.outputs;
            last := Some task;
            Ok ()) }
  in
  match Scheduler.run (Array.mapi node arr) with
  | exception Step_failed e -> Error e
  | _ ->
    (match !last with
     | Some task -> Ok task
     | None ->
       Error
         (Gaea_error.Invalid
            (p.Process.proc_name ^ ": compound with no steps")))

let recompute_task t (task : Task.t) =
  match
    Proc_registry.find t.procs ~version:task.Task.process_version
      task.Task.process
  with
  | None ->
    Error
      (Gaea_error.Unknown_process
         { name = task.Task.process; version = Some task.Task.process_version })
  | Some p -> eval_primitive t p task.Task.inputs
