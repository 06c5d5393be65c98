module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Oid = Gaea_storage.Oid
module Abstime = Gaea_geo.Abstime
module Image = Gaea_raster.Image
module Interpolate = Gaea_raster.Interpolate

let ( let* ) r f = Result.bind r f

type t = {
  registry : Registry.t;
  catalog : Catalog.t;
  objects : Obj_store.t;
  procs : Proc_registry.t;
  prov : Provenance.t;
  bus : Events.bus;
}

let create ~registry ~catalog ~objects ~procs ~prov ~bus =
  { registry; catalog; objects; procs; prov; bus }

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
        Result.map_error
          (fun e -> Gaea_error.Eval_error e)
          (Registry.apply t.registry op args));
    arity = Registry.arity t.registry }

let check_cards (p : Process.t) inputs =
  let fail fmt =
    Printf.ksprintf
      (fun m -> Error (Gaea_error.Arity_mismatch (p.Process.proc_name ^ ": " ^ m)))
      fmt
  in
  Gaea_error.map_m
    (fun spec ->
      let name = spec.Process.arg_name in
      match List.assoc_opt name inputs, spec.Process.card_max with
      | None, _ -> fail "argument %s not bound" name
      | Some oids, _ when List.length oids < spec.Process.card_min ->
        fail "%s needs at least %d object(s), got %d" name
          spec.Process.card_min (List.length oids)
      | Some oids, Some m when List.length oids > m ->
        fail "%s takes at most %d object(s), got %d" name m (List.length oids)
      | Some _, _ -> Ok ())
    p.Process.args
  |> Result.map ignore

let check_inputs t (p : Process.t) inputs =
  let* () = check_cards p inputs in
  match Process.template p with
  | None | Some { Template.assertions = []; _ } -> Ok ()
  | Some tmpl ->
    let env = make_env t p inputs in
    Template.check_assertions env tmpl

(* ------------------------------------------------------------------ *)
(* Binding search                                                      *)
(* ------------------------------------------------------------------ *)

(* Guard evaluations one binding search may spend before giving up. *)
let guard_budget = 128

(* subsets of size [k], in list order *)
let rec subsets k l () =
  match k, l with
  | 0, _ -> Seq.Cons ([], Seq.empty)
  | _, [] -> Seq.Nil
  | _, x :: rest ->
    Seq.append
      (Seq.map (List.cons x) (subsets (k - 1) rest))
      (subsets k rest) ()

(* [remaining] without [chosen], a subsequence of it, in one walk *)
let rec minus remaining chosen =
  match remaining, chosen with
  | o :: os, c :: cs when o = c -> minus os cs
  | o :: os, _ :: _ -> o :: minus os chosen
  | _ -> remaining

(* Candidate bindings are walked lazily: classes sorted, the first
   varying slowest; within a class the specs in declaration order, each
   taking subsets of ascending size in list order, an unbounded SETOF
   spec swallowing the rest (an argument drawing one object from its
   class takes the objects in order).  With [fresh], a binding already fired
   (its task is in the reuse index) is skipped without evaluating the
   guard. *)
let find_binding t ?(fresh = false) (p : Process.t) ~available =
  let rec assign specs remaining =
    match specs with
    | [] -> Seq.return []
    | spec :: rest ->
      let lo = spec.Process.card_min in
      let takes =
        match spec.Process.card_max with
        | Some m ->
          Seq.concat_map
            (fun k -> subsets k remaining)
            (Seq.init (m - lo + 1) (( + ) lo))
        | None ->
          if List.length remaining >= lo then Seq.return remaining
          else Seq.empty
      in
      (* the class's later specs draw from what this one left; the last
         spec skips computing it, which made a walk past n fired
         bindings quadratic *)
      Seq.concat_map
        (fun chosen ->
          let left = if rest = [] then [] else minus remaining chosen in
          Seq.map
            (List.cons (spec.Process.arg_name, chosen))
            (assign rest left))
        takes
  in
  let rec product = function
    | [] -> Seq.return []
    | cls :: rest ->
      let specs =
        List.filter (fun a -> a.Process.arg_class = cls) p.Process.args
      in
      let oids = Option.value ~default:[] (List.assoc_opt cls available) in
      let tails = product rest in
      Seq.concat_map
        (fun here -> Seq.map (( @ ) here) tails)
        (assign specs oids)
  in
  let rec search budget last_err candidates =
    match candidates () with
    | Seq.Cons (binding, rest)
      when fresh && Provenance.fired t.prov p ~inputs:binding ->
      search budget "remaining candidates already used" rest
    | Seq.Cons (binding, rest) when budget > 0 ->
      (match check_inputs t p binding with
       | Ok () -> Ok binding
       | Error e -> search (budget - 1) (Gaea_error.to_string e) rest)
    | _ ->
      Error
        (Gaea_error.Not_derivable
           (Printf.sprintf "%s: no valid binding found (%s)"
              p.Process.proc_name last_err))
  in
  let candidates =
    match p.Process.args with
    | [ a ] when a.Process.card_min = 1 && a.Process.card_max = Some 1 ->
      (* one argument drawing one object: the class's objects in order *)
      Option.value ~default:[] (List.assoc_opt a.Process.arg_class available)
      |> List.to_seq
      |> Seq.map (fun oid -> [ (a.Process.arg_name, [ oid ]) ])
    | args ->
      product (List.sort_uniq compare (List.map (fun a -> a.Process.arg_class) args))
  in
  search guard_budget "no candidates" candidates

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let count_pixels v =
  match v with
  | Value.VImage img -> Gaea_raster.Image.size img
  | Value.VComposite c ->
    Gaea_raster.Composite.n_pixels c * Gaea_raster.Composite.n_bands c
  | _ -> 0

(* [checked]: the binding search has checked the cardinalities and
   assertions already *)
let eval_primitive ?(checked = false) t (p : Process.t) inputs =
  match Process.template p with
  | None ->
    Error (Gaea_error.Invalid (p.Process.proc_name ^ ": not a primitive process"))
  | Some tmpl ->
    let* () = if checked then Ok () else check_cards p inputs in
    let env = make_env t p inputs in
    let* () = if checked then Ok () else Template.check_assertions env tmpl in
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

(* The one commit of an evaluated process, for DERIVE, interpolation
   and REFRESH alike: [write] stores the values and names the output
   objects, then the pixels are counted and the task recorded, which
   makes it reusable. *)
let commit t ~process ~version ~params ~output_class inputs pairs ~write =
  let* outputs = write pairs in
  let c = Events.counters t.bus in
  List.iter
    (fun (_, v) -> c.pixels_processed <- c.pixels_processed + count_pixels v)
    pairs;
  Ok
    (Provenance.record_task t.prov ~process ~version ~inputs ~params ~outputs
       ~output_class)

let insert t ~cls pairs =
  Obj_store.insert t.objects ~cls pairs
  |> Result.map (fun oid ->
         Provenance.object_inserted t.prov ~cls oid;
         [ oid ])

(* A primitive run that found no reuse: evaluate and commit. *)
let run_primitive ?checked t (p : Process.t) inputs =
  let process = p.Process.proc_name and version = p.Process.version in
  Events.emit t.bus (Events.Cache_miss { process; version });
  let* pairs = eval_primitive ?checked t p inputs in
  commit t ~process ~version ~params:p.Process.params
    ~output_class:p.Process.output_class inputs pairs
    ~write:(insert t ~cls:p.Process.output_class)

(* A DERIVE step: the search proves the binding unfired and checks it,
   once, so it is evaluated and committed with no second reuse probe
   and no second check. *)
let fire t (p : Process.t) ~available ~widened =
  let* inputs =
    match find_binding t ~fresh:true p ~available with
    | Ok _ as found -> found
    | Error _ -> find_binding t ~fresh:true p ~available:(widened ())
  in
  run_primitive ~checked:true t p inputs

(* A primitive is looked up in the reuse index first: a recorded task
   for the same process and binding is served as is; otherwise it is
   evaluated and committed, and recording its task makes it reusable.
   A compound has no reuse entry of its own: its steps run in order on
   the calling domain, each through this same lookup, so a repeated
   compound reuses every step.  A step reads the compound's arguments
   and the outputs of earlier steps; the first failing step ends the
   compound. *)
let rec execute_process t (p : Process.t) ~inputs =
  match p.Process.kind with
  | Process.Primitive _ ->
    (match Provenance.find_reusable t.prov p ~inputs with
     | Some task ->
       Events.emit t.bus
         (Events.Cache_hit
            { process = p.Process.proc_name; version = p.Process.version });
       Ok task
     | None -> run_primitive t p inputs)
  | Process.Compound steps ->
    let outputs = Array.make (List.length steps) [] in
    let resolve j (arg, input) =
      match input with
      | Process.From_arg a ->
        (match List.assoc_opt a inputs with
         | Some oids -> Ok (arg, oids)
         | None ->
           Gaea_error.err
             (Printf.sprintf "%s: argument %s not bound" p.Process.proc_name a))
      | Process.From_step k ->
        if k >= 0 && k < j then Ok (arg, outputs.(k))
        else
          Gaea_error.err
            (Printf.sprintf "%s: step %d output unavailable"
               p.Process.proc_name k)
    in
    let rec run j last = function
      | [] ->
        Option.to_result last
          ~none:
            (Gaea_error.Invalid
               (p.Process.proc_name ^ ": compound with no steps"))
      | (step : Process.step) :: rest ->
        let* sub =
          Option.to_result
            (Proc_registry.find t.procs step.Process.step_process)
            ~none:
              (Gaea_error.Invalid
                 (Printf.sprintf "%s: unknown sub-process %s"
                    p.Process.proc_name step.Process.step_process))
        in
        let* inputs = Gaea_error.map_m (resolve j) step.Process.step_inputs in
        let* task = execute_process t sub ~inputs in
        outputs.(j) <- task.Task.outputs;
        run (j + 1) (Some task) rest
    in
    run 0 None steps

(* ------------------------------------------------------------------ *)
(* Interpolation                                                       *)
(* ------------------------------------------------------------------ *)

let interpolation_process = "interpolate"

let is_interpolation (task : Task.t) =
  task.Task.process = interpolation_process && task.Task.process_version = 0

let interpolate_values t ~cls ~at (o1, o2) =
  match Catalog.find t.catalog cls with
  | None -> Gaea_error.err (Printf.sprintf "unknown class %s" cls)
  | Some def ->
    (match def.Schema.temporal_attr with
     | None -> Gaea_error.err (cls ^ ": class has no temporal extent")
     | Some tattr ->
       let time oid =
         match Obj_store.attr t.objects ~cls oid tattr with
         | Some (Value.VAbstime at) -> Ok at
         | _ -> Gaea_error.err (Printf.sprintf "object %d has no timestamp" oid)
       in
       let* t1 = time o1 in
       let* t2 = time o2 in
       if Abstime.equal t1 t2 then
         Gaea_error.err "interpolation needs two distinct timestamps"
       else begin
         let w =
           float_of_int (Abstime.diff_seconds at t1)
           /. float_of_int (Abstime.diff_seconds t2 t1)
         in
         let nearest = if Float.abs w <= 0.5 then o1 else o2 in
         Gaea_error.map_m
           (fun attr ->
             let name = attr.Schema.a_name in
             if name = tattr then Ok (name, Value.abstime at)
             else begin
               let v1 = Obj_store.attr t.objects ~cls o1 name in
               let v2 = Obj_store.attr t.objects ~cls o2 name in
               match v1, v2 with
               | Some (Value.VImage i1), Some (Value.VImage i2) ->
                 if Image.img_size_eq i1 i2 then
                   Ok
                     ( name,
                       Value.image
                         (Interpolate.temporal_linear ~at (t1, i1) (t2, i2)) )
                 else Gaea_error.err (name ^ ": image sizes differ")
               | Some (Value.VFloat a), Some (Value.VFloat b) ->
                 Ok (name, Value.float (a +. (w *. (b -. a))))
               | Some v, Some v2 ->
                 (* non-interpolable: copy from the nearest snapshot *)
                 Ok (name, if nearest = o1 then v else v2)
               | _ ->
                 Gaea_error.err (Printf.sprintf "object missing attribute %s" name)
             end)
           def.Schema.attributes
       end)

let interpolate t ~cls ~at (o1, o2) =
  let* pairs = interpolate_values t ~cls ~at (o1, o2) in
  commit t ~process:interpolation_process ~version:0
    ~params:[ ("at", Value.abstime at) ] ~output_class:cls
    [ ("a", [ o1 ]); ("b", [ o2 ]) ]
    pairs ~write:(insert t ~cls)

let recompute_task t (task : Task.t) =
  if is_interpolation task then begin
    let* at =
      match List.assoc_opt "at" task.Task.params with
      | Some (Value.VAbstime t) -> Ok t
      | _ -> Gaea_error.err "interpolation task without 'at' parameter"
    in
    let input arg =
      match List.assoc_opt arg task.Task.inputs with
      | Some [ o ] -> Ok o
      | _ -> Gaea_error.err ("interpolation task without input " ^ arg)
    in
    let* o1 = input "a" in
    let* o2 = input "b" in
    interpolate_values t ~cls:task.Task.output_class ~at (o1, o2)
  end
  else
    match
      Proc_registry.find t.procs ~version:task.Task.process_version
        task.Task.process
    with
    | None ->
      Error
        (Gaea_error.Unknown_process
           { name = task.Task.process; version = Some task.Task.process_version })
    | Some p -> eval_primitive t p task.Task.inputs

(* ------------------------------------------------------------------ *)
(* Incremental refresh                                                 *)
(* ------------------------------------------------------------------ *)

type refresh_report = {
  refreshed : int;
  skipped : int;
  remaining : int;
  tasks : Task.t list;
  skip_reasons : (Oid.t * string) list;
}

(* Refresh commits one producing task of a stale object at a time, on
   the calling domain, by wave depth (one more than its deepest stale
   producer's), then by producing task id: the order a full
   re-derivation records them in, whatever ids earlier refreshes
   handed out.  A commit updates the outputs in place (running the
   update trigger), records provenance, which makes the new task
   reusable, and emits [Object_refreshed].  A failure becomes the skip
   reason of the task's stale outputs and fails the tasks reading them
   (refreshing from a stale input would diverge from a full
   re-derivation). *)
let refresh ?only t =
  (* -- the work set: stale oids, optionally a target slice plus its
     stale upstream closure (refreshing a target under stale ancestors
     would bake stale values into a "fresh" result) -- *)
  let work = Hashtbl.create 32 in
  (match only with
   | None ->
     List.iter
       (fun oid -> Hashtbl.replace work oid ())
       (Provenance.stale t.prov)
   | Some targets ->
     let rec add oid =
       if Provenance.is_stale t.prov oid && not (Hashtbl.mem work oid)
       then begin
         Hashtbl.replace work oid ();
         match Provenance.task_producing t.prov oid with
         | None -> ()
         | Some task -> List.iter add (Task.input_oids task)
       end
     in
     List.iter add targets);
  (* -- the producing task of each stale object -- *)
  let producers : (int, Task.t) Hashtbl.t = Hashtbl.create 32 in
  let owner : (Oid.t, int) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun oid () ->
      match Provenance.task_producing t.prov oid with
      | None -> ()
      | Some task ->
        Hashtbl.replace owner oid task.Task.task_id;
        Hashtbl.replace producers task.Task.task_id task)
    work;
  let deps_of (task : Task.t) =
    List.sort_uniq Int.compare
      (List.filter_map (Hashtbl.find_opt owner) (Task.input_oids task))
  in
  (* wave depth; a task on a provenance cycle gets none and stays stale *)
  let depths : (int, int option) Hashtbl.t = Hashtbl.create 32 in
  let rec depth id =
    match Hashtbl.find_opt depths id with
    | Some d -> d
    | None ->
      Hashtbl.replace depths id None;
      let d =
        List.fold_left
          (fun acc dep ->
            match acc, depth dep with
            | Some a, Some b -> Some (max a (b + 1))
            | _ -> None)
          (Some 0)
          (deps_of (Hashtbl.find producers id))
      in
      Hashtbl.replace depths id d;
      d
  in
  let order =
    Hashtbl.fold
      (fun id task acc ->
        match depth id with Some d -> (d, id, task) :: acc | None -> acc)
      producers []
    |> List.sort (fun (d1, id1, _) (d2, id2, _) ->
           compare (d1, id1) (d2, id2))
  in
  let refreshed = ref 0 in
  let new_tasks = ref [] in
  (* write refreshed values over the old outputs, in place *)
  let overwrite cls outputs pairs =
    Gaea_error.map_m
      (fun oid ->
        Obj_store.update t.objects ~cls oid pairs
        |> Result.map (fun () ->
               Provenance.object_changed t.prov oid;
               oid))
      outputs
  in
  let failed : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let skip_reasons = ref [] in
  (* an interpolation is recomputed as it was recorded, a primitive
     by the latest version of its process *)
  let refresh_task (task : Task.t) =
    let committed =
      if is_interpolation task then
        let* pairs = recompute_task t task in
        commit t ~process:task.Task.process ~version:task.Task.process_version
          ~params:task.Task.params ~output_class:task.Task.output_class
          task.Task.inputs pairs
          ~write:(overwrite task.Task.output_class task.Task.outputs)
      else
        match Proc_registry.find t.procs task.Task.process with
        | None ->
          Gaea_error.err
            (Printf.sprintf "process %s not in registry" task.Task.process)
        | Some p ->
          let* pairs = eval_primitive t p task.Task.inputs in
          commit t ~process:p.Process.proc_name ~version:p.Process.version
            ~params:p.Process.params ~output_class:p.Process.output_class
            task.Task.inputs pairs
            ~write:(overwrite p.Process.output_class task.Task.outputs)
    in
    match committed with
    | Error e -> Error (Gaea_error.to_string e)
    | Ok new_task ->
      List.iter
        (fun oid ->
          Provenance.mark_fresh t.prov oid;
          Events.emit t.bus
            (Events.Object_refreshed
               { cls = new_task.Task.output_class; oid;
                 task_id = new_task.Task.task_id }))
        task.Task.outputs;
      refreshed := !refreshed + List.length task.Task.outputs;
      new_tasks := new_task :: !new_tasks;
      Ok ()
  in
  List.iter
    (fun (_, id, (task : Task.t)) ->
      let result =
        if List.exists (Hashtbl.mem failed) (deps_of task) then
          Error "stale input not refreshable"
        else refresh_task task
      in
      match result with
      | Ok () -> ()
      | Error reason ->
        Hashtbl.replace failed id ();
        List.iter
          (fun oid ->
            if Hashtbl.mem work oid then
              skip_reasons := (oid, reason) :: !skip_reasons)
          task.Task.outputs)
    order;
  let skip_reasons = List.rev !skip_reasons in
  { refreshed = !refreshed;
    skipped = List.length skip_reasons;
    remaining = List.length (Provenance.stale t.prov);
    tasks = List.rev !new_tasks;
    skip_reasons }
