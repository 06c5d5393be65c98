module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Oid = Gaea_storage.Oid
module Abstime = Gaea_geo.Abstime
module Net = Gaea_petri.Net
module Backchain = Gaea_petri.Backchain
module Image = Gaea_raster.Image
module Interpolate = Gaea_raster.Interpolate

type trace_step =
  | Retrieved_direct of string * Oid.t list
  | Interpolated of string * Oid.t
  | Fired of string * int * int

type outcome = {
  objects : Oid.t list;
  new_tasks : Task.t list;
  trace : trace_step list;
}

let ( let* ) r f = Result.bind r f

let interpolation_process_name = "interpolate"

(* ------------------------------------------------------------------ *)
(* Step 1 + 3: retrieval and derivation                                *)
(* ------------------------------------------------------------------ *)

let derivation_plan k ?(need = 1) cls =
  let view = Kernel.derivation_net k in
  match view.Kernel.place_of_class cls with
  | None -> None
  | Some place ->
    Backchain.search ~need view.Kernel.net (Kernel.tokens k) place

(* Execute a backchain plan against the kernel: every Derived step fires
   the corresponding process via Kernel.execute_process on a binding it
   has not fired yet, so each step records a new task and a new object.
   This stays sequential: each step is a binding search against live
   store state on the calling domain, followed by an execution whose
   raster operators use the domain pool themselves. *)
let execute_plan k (view : Kernel.net_view) plan =
  let tasks = ref [] in
  (* shared sub-derivation nodes (plans share them physically) realize
     once; distinct nodes for the same transition get distinct bindings,
     since the first one's task is in the reuse index *)
  let realized : (Backchain.source * Oid.t) list ref = ref [] in
  let rec realize_source source =
    match source with
    | Backchain.Existing oid -> Ok oid
    | Backchain.Derived step ->
      (match List.assq_opt source !realized with
       | Some oid -> Ok oid
       | None -> realize_step source step)
  and realize_step source step =
    (* realize all inputs, grouped per place *)
    let* per_place =
      List.fold_left
        (fun acc (p, sources) ->
          let* acc = acc in
          let* oids =
            List.fold_left
              (fun acc src ->
                let* acc = acc in
                let* oid = realize_source src in
                Ok (oid :: acc))
              (Ok []) sources
          in
          Ok ((p, List.rev oids) :: acc))
        (Ok []) step.Backchain.step_inputs
    in
    let per_place = List.rev per_place in
    (match view.Kernel.process_of_transition step.Backchain.transition with
     | None ->
       Gaea_error.err
         (Printf.sprintf "no process behind transition %d"
            step.Backchain.transition)
     | Some (pname, version) ->
       (match Kernel.find_process k ~version pname with
        | None -> Gaea_error.err (Printf.sprintf "process %s v%d vanished" pname version)
        | Some proc ->
          let to_classes pairs =
            List.filter_map
              (fun (p, oids) ->
                Option.map
                  (fun cls -> (cls, oids))
                  (view.Kernel.class_of_place p))
              pairs
          in
          let planned = to_classes per_place in
          (* the planned tokens may fail the guard with this exact
             assignment, or have fired already; retry with everything
             the classes hold *)
          let* binding =
            match
              Kernel.find_binding k ~fresh:true proc ~available:planned
            with
            | Ok b -> Ok b
            | Error _ ->
              let widened =
                List.map
                  (fun (cls, _) -> (cls, Kernel.objects_of_class k cls))
                  planned
              in
              Kernel.find_binding k ~fresh:true proc ~available:widened
          in
          let* task = Kernel.execute_process k proc ~inputs:binding in
          tasks := task :: !tasks;
          (match task.Task.outputs with
           | oid :: _ ->
             realized := (source, oid) :: !realized;
             Ok oid
           | [] -> Gaea_error.err (pname ^ ": task produced no object"))))
  in
  let* objects =
    List.fold_left
      (fun acc src ->
        let* acc = acc in
        let* oid = realize_source src in
        Ok (oid :: acc))
      (Ok []) plan.Backchain.sources
  in
  let new_tasks = List.rev !tasks in
  Ok
    { objects = List.rev objects;
      new_tasks;
      trace =
        List.map
          (fun (t : Task.t) ->
            Fired (t.Task.process, t.Task.process_version, t.Task.task_id))
          new_tasks }

let request k ?(need = 1) cls =
  match Kernel.find_class k cls with
  | None -> Gaea_error.err (Printf.sprintf "unknown class %s" cls)
  | Some _ ->
    let view = Kernel.derivation_net k in
    (match view.Kernel.place_of_class cls with
     | None ->
       Gaea_error.err (Printf.sprintf "class %s missing from the net" cls)
     | Some place ->
       let tokens = Kernel.tokens k in
       let stored = tokens.Net.first place need in
       let have = List.length stored in
       if have >= need then begin
         (Kernel.counters k).Kernel.retrievals <-
           (Kernel.counters k).Kernel.retrievals + 1;
         Ok
           { objects = stored;
             new_tasks = [];
             trace = [ Retrieved_direct (cls, stored) ] }
       end
       else
         (* plan and fire only the deficit; the stored objects come
            first, as a full plan would list them *)
         match Backchain.search ~need ~have view.Kernel.net tokens place with
         | None ->
           Error
             (Gaea_error.Not_derivable
                (Printf.sprintf
                   "%s: not derivable from current data (no plan found)" cls))
         | Some plan ->
           let* derived = execute_plan k view plan in
           Ok { derived with objects = stored @ derived.objects })

(* ------------------------------------------------------------------ *)
(* Step 2: interpolation                                               *)
(* ------------------------------------------------------------------ *)

let object_time k ~cls ~tattr oid =
  match Kernel.object_attr k ~cls oid tattr with
  | Some (Value.VAbstime t) -> Some t
  | _ -> None

let interpolate_values k ~cls ~at (o1, o2) =
  match Kernel.find_class k cls with
  | None -> Gaea_error.err (Printf.sprintf "unknown class %s" cls)
  | Some def ->
    (match def.Schema.temporal_attr with
     | None -> Gaea_error.err (cls ^ ": class has no temporal extent")
     | Some tattr ->
       let* t1 =
         match object_time k ~cls ~tattr o1 with
         | Some t -> Ok t
         | None -> Gaea_error.err (Printf.sprintf "object %d has no timestamp" o1)
       in
       let* t2 =
         match object_time k ~cls ~tattr o2 with
         | Some t -> Ok t
         | None -> Gaea_error.err (Printf.sprintf "object %d has no timestamp" o2)
       in
       if Abstime.equal t1 t2 then
         Gaea_error.err "interpolation needs two distinct timestamps"
       else begin
         let w =
           float_of_int (Abstime.diff_seconds at t1)
           /. float_of_int (Abstime.diff_seconds t2 t1)
         in
         let nearest = if Float.abs w <= 0.5 then o1 else o2 in
         List.fold_left
           (fun acc attr ->
             let* acc = acc in
             let name = attr.Schema.a_name in
             if name = tattr then Ok ((name, Value.abstime at) :: acc)
             else begin
               let v1 = Kernel.object_attr k ~cls o1 name in
               let v2 = Kernel.object_attr k ~cls o2 name in
               match v1, v2 with
               | Some (Value.VImage i1), Some (Value.VImage i2) ->
                 if Image.img_size_eq i1 i2 then
                   Ok
                     (( name,
                        Value.image
                          (Interpolate.temporal_linear ~at (t1, i1) (t2, i2)) )
                      :: acc)
                 else Gaea_error.err (name ^ ": image sizes differ")
               | Some (Value.VFloat a), Some (Value.VFloat b) ->
                 Ok ((name, Value.float (a +. (w *. (b -. a)))) :: acc)
               | Some v, Some _ ->
                 (* non-interpolable: copy from the nearest snapshot *)
                 let v =
                   if nearest = o1 then v
                   else Option.value ~default:v (Kernel.object_attr k ~cls o2 name)
                 in
                 Ok ((name, v) :: acc)
               | _ ->
                 Gaea_error.err (Printf.sprintf "object missing attribute %s" name)
             end)
           (Ok []) def.Schema.attributes
         |> Result.map List.rev
       end)

let find_bracket snapshots at =
  (* snapshots sorted by time; pick neighbours around [at], or the two
     nearest for extrapolation *)
  match snapshots with
  | [] | [ _ ] -> None
  | _ ->
    let before =
      List.filter (fun (_, t) -> Abstime.compare t at <= 0) snapshots
    and after =
      List.filter (fun (_, t) -> Abstime.compare t at >= 0) snapshots
    in
    (match List.rev before, after with
     | (o1, t1) :: _, (o2, t2) :: _ when not (Abstime.equal t1 t2) ->
       Some ((o1, t1), (o2, t2))
     | _ ->
       (* one-sided: two nearest distinct-time snapshots *)
       let sorted =
         List.sort
           (fun (_, ta) (_, tb) ->
             Float.compare
               (Float.abs (Abstime.diff_days ta at))
               (Float.abs (Abstime.diff_days tb at)))
           snapshots
       in
       (match sorted with
        | (o1, t1) :: rest ->
          (match List.find_opt (fun (_, t) -> not (Abstime.equal t t1)) rest with
           | Some (o2, t2) -> Some ((o1, t1), (o2, t2))
           | None -> None)
        | [] -> None))

let try_interpolate k ~cls ~tattr ~at =
  let snapshots =
    List.filter_map
      (fun oid ->
        Option.map (fun t -> (oid, t)) (object_time k ~cls ~tattr oid))
      (Kernel.objects_of_class k cls)
    |> List.sort (fun (_, a) (_, b) -> Abstime.compare a b)
  in
  match find_bracket snapshots at with
  | None -> Gaea_error.err (cls ^ ": not enough snapshots to interpolate");
  | Some ((o1, _), (o2, _)) ->
    let* pairs = interpolate_values k ~cls ~at (o1, o2) in
    let* oid = Kernel.insert_object k ~cls pairs in
    let task =
      Kernel.record_task_raw k ~process:interpolation_process_name ~version:0
        ~inputs:[ ("a", [ o1 ]); ("b", [ o2 ]) ]
        ~params:[ ("at", Value.abstime at) ]
        ~outputs:[ oid ] ~output_class:cls
    in
    (Kernel.counters k).Kernel.interpolations <-
      (Kernel.counters k).Kernel.interpolations + 1;
    Ok
      { objects = [ oid ];
        new_tasks = [ task ];
        trace = [ Interpolated (cls, oid) ] }

let request_at k ~cls ~at () =
  match Kernel.find_class k cls with
  | None -> Gaea_error.err (Printf.sprintf "unknown class %s" cls)
  | Some def ->
    (match def.Schema.temporal_attr with
     | None -> Gaea_error.err (cls ^ ": class has no temporal extent")
     | Some tattr ->
       (* step 1: direct retrieval of the stored object nearest the
          requested time, among those in AT's window; ties go to the
          lowest OID *)
       let lo, hi = Abstime.day_window at in
       let in_window =
         match Kernel.class_table k cls with
         | None -> []
         | Some tab ->
           Gaea_storage.Table.lookup_range tab tattr
             ~lo:(Value.abstime lo) ~hi:(Value.abstime hi) ()
       in
       let nearest =
         List.filter_map
           (fun (oid, _) ->
             Option.map
               (fun t -> (abs (Abstime.diff_seconds t at), oid))
               (object_time k ~cls ~tattr oid))
           in_window
         |> List.sort compare
       in
       (match nearest with
        | (_, oid) :: _ ->
          (Kernel.counters k).Kernel.retrievals <-
            (Kernel.counters k).Kernel.retrievals + 1;
          Ok
            { objects = [ oid ];
              new_tasks = [];
              trace = [ Retrieved_direct (cls, [ oid ]) ] }
        | [] ->
          (* the paper's order: interpolate, then derive; when both
             fail, the derive step's error *)
          (match try_interpolate k ~cls ~tattr ~at with
           | Ok _ as ok -> ok
           | Error _ ->
             let* r = request k cls in
             let produced_at =
               List.filter
                 (fun oid ->
                   match object_time k ~cls ~tattr oid with
                   | Some t -> Abstime.in_day_window ~at t
                   | None -> false)
                 r.objects
             in
             if produced_at <> [] then Ok { r with objects = produced_at }
             else
               (* new snapshots may enable interpolation *)
               let* r2 = try_interpolate k ~cls ~tattr ~at in
               Ok
                 { objects = r2.objects;
                   new_tasks = r.new_tasks @ r2.new_tasks;
                   trace = r.trace @ r2.trace })))

let recompute k (task : Task.t) =
  if
    task.Task.process = interpolation_process_name
    && task.Task.process_version = 0
  then begin
    let* at =
      match List.assoc_opt "at" task.Task.params with
      | Some (Value.VAbstime t) -> Ok t
      | _ -> Gaea_error.err "interpolation task without 'at' parameter"
    in
    let* o1 =
      match List.assoc_opt "a" task.Task.inputs with
      | Some [ o ] -> Ok o
      | _ -> Gaea_error.err "interpolation task without input a"
    in
    let* o2 =
      match List.assoc_opt "b" task.Task.inputs with
      | Some [ o ] -> Ok o
      | _ -> Gaea_error.err "interpolation task without input b"
    in
    interpolate_values k ~cls:task.Task.output_class ~at (o1, o2)
  end
  else Kernel.recompute_task k task
