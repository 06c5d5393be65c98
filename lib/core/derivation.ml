module Value = Gaea_adt.Value
module Oid = Gaea_storage.Oid
module Abstime = Gaea_geo.Abstime
module Net = Gaea_petri.Net
module Backchain = Gaea_petri.Backchain

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

(* ------------------------------------------------------------------ *)
(* Step 1 + 3: retrieval and derivation                                *)
(* ------------------------------------------------------------------ *)

(* Plan from the unfired frontiers.  When they cannot meet the demand,
   plan from the stored tokens instead: firing that plan stops, as it
   always did, at the first step left with no binding to fire. *)
let plan k ?have ~need net place =
  match
    Backchain.search ?have ~need net (Kernel.tokens ~frontiers:true k) place
  with
  | Some _ as plan -> plan
  | None -> Backchain.search ?have ~need net (Kernel.tokens k) place

let derivation_plan k ?(need = 1) cls =
  let net = Kernel.derivation_net k in
  Option.bind (Net.find_place net cls) (plan k ~need net)

(* Execute a backchain plan against the kernel: every Derived step fires
   the corresponding process (Kernel.fire) on a binding of its planned
   tokens it has not fired yet, so each step records a new task and a
   new object.
   This stays sequential: each step is a binding search against live
   store state on the calling domain, followed by an execution whose
   raster operators use the domain pool themselves. *)
let execute_plan k net plan =
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
      Gaea_error.map_m
        (fun (p, sources) ->
          Result.map (fun oids -> (p, oids))
            (Gaea_error.map_m realize_source sources))
        step.Backchain.step_inputs
    in
    let pname = Net.transition_name net step.Backchain.transition in
    (match Kernel.find_process k pname with
     | None -> Gaea_error.err (Printf.sprintf "no process behind transition %s" pname)
     | Some proc ->
       let planned =
         List.map (fun (p, oids) -> (Net.place_name net p, oids)) per_place
       in
       (* the planned tokens may fail the guard with this exact
          assignment, or have fired already; then everything the
          classes hold is tried *)
       let widened () =
         List.map
           (fun (cls, _) -> (cls, Kernel.objects_of_class k cls))
           planned
       in
       let* task = Kernel.fire k proc ~available:planned ~widened in
       tasks := task :: !tasks;
       (match task.Task.outputs with
        | oid :: _ ->
          realized := (source, oid) :: !realized;
          Ok oid
        | [] -> Gaea_error.err (pname ^ ": task produced no object")))
  in
  let* objects = Gaea_error.map_m realize_source plan.Backchain.sources in
  let new_tasks = List.rev !tasks in
  Ok
    { objects;
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
    let net = Kernel.derivation_net k in
    (match Net.find_place net cls with
     | None ->
       Gaea_error.err (Printf.sprintf "class %s missing from the net" cls)
     | Some place ->
       let tokens = Kernel.tokens k in
       let have = tokens.Net.count place in
       if have >= need then begin
         (Kernel.counters k).Kernel.retrievals <-
           (Kernel.counters k).Kernel.retrievals + 1;
         let stored = tokens.Net.first place need in
         Ok
           { objects = stored;
             new_tasks = [];
             trace = [ Retrieved_direct (cls, stored) ] }
       end
       else
         (* plan and fire only the deficit; the stored objects come
            first, as a full plan would list them *)
         match plan k ~need ~have net place with
         | None ->
           Error
             (Gaea_error.Not_derivable
                (Printf.sprintf
                   "%s: not derivable from current data (no plan found)" cls))
         | Some plan ->
           let* derived = execute_plan k net plan in
           (* firing only appends rows, so the class's first [have]
              rows are still the stored objects: list them onto the
              derived ones instead of copying a list *)
           let objects =
             match Kernel.class_table k cls with
             | Some tab ->
               Gaea_storage.Table.oids_onto tab have derived.objects
             | None -> derived.objects
           in
           Ok { derived with objects })

(* ------------------------------------------------------------------ *)
(* Step 2: interpolation                                               *)
(* ------------------------------------------------------------------ *)

let object_time k ~cls ~tattr oid =
  match Kernel.object_attr k ~cls oid tattr with
  | Some (Value.VAbstime t) -> Some t
  | _ -> None

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
    let* task = Kernel.interpolate k ~cls ~at (o1, o2) in
    (Kernel.counters k).Kernel.interpolations <-
      (Kernel.counters k).Kernel.interpolations + 1;
    Ok
      { objects = task.Task.outputs;
        new_tasks = [ task ];
        trace = List.map (fun oid -> Interpolated (cls, oid)) task.Task.outputs }

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

let recompute = Kernel.recompute_task
