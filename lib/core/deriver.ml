module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Oid = Gaea_storage.Oid
module Abstime = Gaea_geo.Abstime
module Image = Gaea_raster.Image
module Interpolate = Gaea_raster.Interpolate

let ( let* ) r f = Result.bind r f

(* A primitive process version compiled for firing: its template
   against its arguments' classes and its parameters, and the layout of
   its output class.  [output] is the mapping behind each output
   attribute, or the error a firing returns once its mappings are
   evaluated; [extra] names the targets the output class lacks, which
   the write refuses. *)
type firing = {
  proc : Process.t;  (* the version compiled, by identity *)
  program : Template.program;
  output : (int array, Gaea_error.t) result;
  extra : string list;
}

type t = {
  registry : Registry.t;
  catalog : Catalog.t;
  objects : Obj_store.t;
  procs : Proc_registry.t;
  prov : Provenance.t;
  bus : Events.bus;
  compiled : (string, firing list) Hashtbl.t;  (* by process name *)
}

let create ~registry ~catalog ~objects ~procs ~prov ~bus =
  { registry; catalog; objects; procs; prov; bus; compiled = Hashtbl.create 16 }

let forget_compiled t = Hashtbl.reset t.compiled

(* ------------------------------------------------------------------ *)
(* Compiled firings                                                    *)
(* ------------------------------------------------------------------ *)

let compile t (p : Process.t) tmpl =
  let extent (a : Process.arg_spec) =
    let entry = Catalog.entry t.catalog a.Process.arg_class in
    { Template.arg = a.Process.arg_name;
      cls = Some a.Process.arg_class;
      table = Option.map snd entry;
      spatial = Option.bind entry (fun (def, _) -> def.Schema.spatial_attr);
      temporal = Option.bind entry (fun (def, _) -> def.Schema.temporal_attr) }
  in
  (* a name the template reads that the process does not declare *)
  let undeclared arg =
    { Template.arg; cls = None; table = None; spatial = None; temporal = None }
  in
  let scope =
    List.map extent p.Process.args
    @ List.filter_map
        (fun a -> if Process.arg p a = None then Some (undeclared a) else None)
        (Template.referenced_args tmpl)
  in
  let program =
    Template.compile t.registry ~scope ~params:p.Process.params tmpl
  in
  let name = p.Process.proc_name and cls = p.Process.output_class in
  match Catalog.table t.catalog cls with
  | None ->
    ( { proc = p; program; extra = [];
        output =
          Gaea_error.err
            (Printf.sprintf "%s: unknown output class %s" name cls) },
      false )
  | Some tab ->
    let positions, missing, extra =
      Template.layout program (Gaea_storage.Table.descriptor tab)
    in
    ( { proc = p; program; extra;
        output =
          (if missing = [] then Ok positions
           else
             Gaea_error.err
               (Printf.sprintf "%s: mappings missing for attribute(s) %s" name
                  (String.concat ", " missing))) },
      Template.complete program )

(* The firing of [p], compiled at its first firing and kept once every
   name in it resolved, one per version.  A class is never redefined,
   so a resolved position never goes stale. *)
let rec firing_in t (p : Process.t) tmpl known = function
  | f :: rest -> if f.proc == p then f else firing_in t p tmpl known rest
  | [] ->
    let f, complete = compile t p tmpl in
    if complete then
      Hashtbl.replace t.compiled p.Process.proc_name
        (f
         :: List.filter
              (fun g -> g.proc.Process.version <> p.Process.version)
              known);
    f

let firing t (p : Process.t) tmpl =
  match Hashtbl.find t.compiled p.Process.proc_name with
  | known -> firing_in t p tmpl known known
  | exception Not_found -> firing_in t p tmpl [] []

let cards_error (p : Process.t) fmt =
  Printf.ksprintf
    (fun m -> Error (Gaea_error.Arity_mismatch (p.Process.proc_name ^ ": " ^ m)))
    fmt

(* each argument bound, to as many objects as it takes, in order *)
let check_cards (p : Process.t) inputs =
  let rec check = function
    | [] -> Ok ()
    | (spec : Process.arg_spec) :: rest ->
      let name = spec.Process.arg_name in
      (match List.assoc name inputs with
       | exception Not_found -> cards_error p "argument %s not bound" name
       | oids ->
         let n = List.length oids in
         if n < spec.Process.card_min then
           cards_error p "%s needs at least %d object(s), got %d" name
             spec.Process.card_min n
         else
           match spec.Process.card_max with
           | Some m when n > m ->
             cards_error p "%s takes at most %d object(s), got %d" name m n
           | _ -> check rest)
  in
  check p.Process.args

let check_inputs t (p : Process.t) inputs =
  let* () = check_cards p inputs in
  match p.Process.kind with
  | Process.Compound _ | Process.Primitive { Template.assertions = []; _ } ->
    Ok ()
  | Process.Primitive tmpl ->
    let f = firing t p tmpl in
    Template.check f.program (Template.bind f.program inputs)

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

let not_found (p : Process.t) last_err =
  Error
    (Gaea_error.Not_derivable
       (Printf.sprintf "%s: no valid binding found (%s)" p.Process.proc_name
          last_err))

(* One argument drawing one object: the class's objects in order, with
   a binding built only for a candidate checked. *)
let rec search_one t ~fresh (p : Process.t) arg budget last_err = function
  | oid :: rest when fresh && Provenance.fired_one t.prov p ~arg oid ->
    search_one t ~fresh p arg budget "remaining candidates already used" rest
  | oid :: rest when budget > 0 ->
    let binding = [ (arg, [ oid ]) ] in
    (match check_inputs t p binding with
     | Ok () -> Ok binding
     | Error e -> search_one t ~fresh p arg (budget - 1) (Gaea_error.to_string e) rest)
  | _ -> not_found p last_err

(* Candidate bindings are walked lazily: classes sorted, the first
   varying slowest; within a class the specs in declaration order, each
   taking subsets of ascending size in list order, an unbounded SETOF
   spec swallowing the rest (an argument drawing one object from its
   class takes the objects in order).  With [fresh], a binding already fired
   (its task is in the reuse index) is skipped without evaluating the
   guard. *)
let search_all t ~fresh (p : Process.t) ~available =
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
    | _ -> not_found p last_err
  in
  search guard_budget "no candidates"
    (product
       (List.sort_uniq compare (List.map (fun a -> a.Process.arg_class) p.Process.args)))

let find_binding t ?(fresh = false) (p : Process.t) ~available =
  match p.Process.args with
  | [ { Process.card_min = 1; card_max = Some 1; arg_name; arg_class; _ } ] ->
    search_one t ~fresh p arg_name guard_budget "no candidates"
      (match List.assoc arg_class available with
       | oids -> oids
       | exception Not_found -> [])
  | _ -> search_all t ~fresh p ~available

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let count_pixels v =
  match v with
  | Value.VImage img -> Gaea_raster.Image.size img
  | Value.VComposite c ->
    Gaea_raster.Composite.n_pixels c * Gaea_raster.Composite.n_bands c
  | _ -> 0

let pixels values =
  Array.fold_left (fun n v -> n + count_pixels v) 0 values

(* A primitive evaluated, nothing written yet: the mappings' values in
   mapping order, and the firing that places them. *)
type evaluated = {
  firing : firing;
  values : Value.t array;
  positions : int array;
}

(* [checked]: the binding search has checked the cardinalities and
   assertions already *)
let eval_primitive ?(checked = false) t (p : Process.t) inputs =
  match p.Process.kind with
  | Process.Compound _ ->
    Error (Gaea_error.Invalid (p.Process.proc_name ^ ": not a primitive process"))
  | Process.Primitive tmpl ->
    let* () = if checked then Ok () else check_cards p inputs in
    let f = firing t p tmpl in
    let bound = Template.bind f.program inputs in
    let* () = if checked then Ok () else Template.check f.program bound in
    let* values = Template.run f.program bound in
    (* the output class must be fully mapped *)
    let* positions = f.output in
    Ok { firing = f; values; positions }

(* the values in the output class's attribute order, or the refusal of
   a target the class lacks, which each write returns where the by-name
   store refused it: before an insert spends an OID, after an overwrite
   checked the object's class *)
let ordered e =
  if e.firing.extra <> [] then
    Obj_store.unknown_attrs e.firing.proc.Process.output_class e.firing.extra
  else Ok (Array.map (fun j -> e.values.(j)) e.positions)

(* The one commit of an evaluated process, for DERIVE, interpolation
   and REFRESH alike: once the values are [written], naming the output
   objects, the pixels are counted and the task recorded, which makes
   it reusable. *)
let commit t ~process ~version ~params ~output_class inputs ~pixels written =
  let* outputs = written in
  let c = Events.counters t.bus in
  c.pixels_processed <- c.pixels_processed + pixels;
  Ok
    (Provenance.record_task t.prov ~process ~version ~inputs ~params ~outputs
       ~output_class)

let commit_primitive t (p : Process.t) inputs e ~write =
  commit t ~process:p.Process.proc_name ~version:p.Process.version
    ~params:p.Process.params ~output_class:p.Process.output_class inputs
    ~pixels:(pixels e.values) (write (ordered e))

let insert t ~cls = function
  | Error _ as refused -> refused
  | Ok values ->
    let* oid = Obj_store.insert t.objects ~cls values in
    Provenance.object_inserted t.prov ~cls oid;
    Ok [ oid ]

(* A primitive run that found no reuse: evaluate and commit. *)
let run_primitive ?checked t (p : Process.t) inputs =
  Events.emit t.bus
    (Events.Cache_miss
       { process = p.Process.proc_name; version = p.Process.version });
  let* e = eval_primitive ?checked t p inputs in
  commit_primitive t p inputs e ~write:(insert t ~cls:p.Process.output_class)

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

let values_of pairs = Array.of_list (List.map snd pairs)

let interpolate t ~cls ~at (o1, o2) =
  let* pairs = interpolate_values t ~cls ~at (o1, o2) in
  let values = values_of pairs in
  commit t ~process:interpolation_process ~version:0
    ~params:[ ("at", Value.abstime at) ] ~output_class:cls
    [ ("a", [ o1 ]); ("b", [ o2 ]) ]
    ~pixels:(pixels values) (insert t ~cls (Ok values))

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
    | Some p ->
      let* e = eval_primitive t p task.Task.inputs in
      Ok
        (Array.to_list
           (Array.map2
              (fun target v -> (target, v))
              (Template.targets e.firing.program)
              e.values))

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

(* A producing task of a stale object awaiting its refresh: the tasks
   producing its stale inputs, its wave depth ([unvisited], or [none]
   while visited and on a provenance cycle), and whether it failed. *)
type pending = {
  task : Task.t;
  mutable deps : int list;
  mutable depth : int;
  mutable failed : bool;
}

let unvisited = -2
let none = -1

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
  (* -- the work set: the producing task of each stale oid, optionally
     of a target slice plus its stale upstream closure (refreshing a
     target under stale ancestors would bake stale values into a
     "fresh" result) -- *)
  let from =
    match only with None -> Provenance.stale t.prov | Some targets -> targets
  in
  let owner : int Oid.Tbl.t = Oid.Tbl.create (List.length from) in
  let pending : pending Oid.Tbl.t = Oid.Tbl.create (List.length from) in
  let own oid =
    match Provenance.task_producing t.prov oid with
    | None -> None
    | Some task ->
      let id = task.Task.task_id in
      Oid.Tbl.replace owner oid id;
      if not (Oid.Tbl.mem pending id) then
        Oid.Tbl.replace pending id
          { task; deps = []; depth = unvisited; failed = false };
      Some task
  in
  (match only with
   | None -> List.iter (fun oid -> ignore (own oid)) from
   | Some _ ->
     let rec add oid =
       if Provenance.is_stale t.prov oid && not (Oid.Tbl.mem owner oid) then
         Option.iter
           (fun task -> List.iter add (Task.input_oids task))
           (own oid)
     in
     List.iter add from);
  (* each task's stale producers, once *)
  Oid.Tbl.iter
    (fun _ p ->
      p.deps <-
        List.sort_uniq Int.compare
          (List.filter_map (Oid.Tbl.find_opt owner) (Task.input_oids p.task)))
    pending;
  (* wave depth; a task on a provenance cycle gets none and stays stale *)
  let rec depth p =
    if p.depth = unvisited then begin
      p.depth <- none;
      p.depth <-
        List.fold_left
          (fun acc dep ->
            let d = depth (Oid.Tbl.find pending dep) in
            if acc = none || d = none then none else max acc (d + 1))
          0 p.deps
    end;
    p.depth
  in
  let order =
    Oid.Tbl.fold
      (fun _ p acc -> if depth p = none then acc else p :: acc)
      pending []
    |> List.sort (fun a b ->
           match Int.compare a.depth b.depth with
           | 0 -> Int.compare a.task.Task.task_id b.task.Task.task_id
           | c -> c)
  in
  let refreshed = ref 0 in
  let new_tasks = ref [] in
  (* write refreshed values over the old outputs, in place *)
  let overwrite cls outputs values =
    Gaea_error.map_m
      (fun oid ->
        let* () = Obj_store.replace t.objects ~cls oid values in
        Provenance.object_changed t.prov oid;
        Ok oid)
      outputs
  in
  let skip_reasons = ref [] in
  (* an interpolation is recomputed as it was recorded, a primitive
     by the latest version of its process *)
  let refresh_task (task : Task.t) =
    let committed =
      if is_interpolation task then
        let* pairs = recompute_task t task in
        let values = values_of pairs in
        commit t ~process:task.Task.process ~version:task.Task.process_version
          ~params:task.Task.params ~output_class:task.Task.output_class
          task.Task.inputs ~pixels:(pixels values)
          (overwrite task.Task.output_class task.Task.outputs (Ok values))
      else
        match Proc_registry.find t.procs task.Task.process with
        | None ->
          Gaea_error.err
            (Printf.sprintf "process %s not in registry" task.Task.process)
        | Some p ->
          let* e = eval_primitive t p task.Task.inputs in
          commit_primitive t p task.Task.inputs e
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
    (fun p ->
      let result =
        if List.exists (fun dep -> (Oid.Tbl.find pending dep).failed) p.deps
        then Error "stale input not refreshable"
        else refresh_task p.task
      in
      match result with
      | Ok () -> ()
      | Error reason ->
        p.failed <- true;
        List.iter
          (fun oid ->
            if Oid.Tbl.mem owner oid then
              skip_reasons := (oid, reason) :: !skip_reasons)
          p.task.Task.outputs)
    order;
  let skip_reasons = List.rev !skip_reasons in
  { refreshed = !refreshed;
    skipped = List.length skip_reasons;
    remaining = Provenance.stale_count t.prov;
    tasks = List.rev !new_tasks;
    skip_reasons }
