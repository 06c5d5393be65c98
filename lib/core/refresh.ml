(* The refresh scheduler: incremental recomputation of stale derived
   objects.

   Staleness is one walk, owned by {!Provenance}.  [refresh] recomputes
   only the dirty subgraph as a DAG run by {!Scheduler}: evaluation
   runs on the domain pool, while commits — in-place object updates,
   provenance, events — run in dependency order on the calling domain,
   so values, task ids and the event log are identical to a full
   re-derivation at any pool size. *)

module Oid = Gaea_storage.Oid

let ( let* ) r f = Result.bind r f

type t = {
  objects : Obj_store.t;
  procs : Proc_registry.t;
  prov : Provenance.t;
  deriver : Deriver.t;
  metrics : Metrics.t;
  bus : Events.bus;
}

let create ~objects ~procs ~prov ~deriver ~bus =
  { objects; procs; prov; deriver; metrics = Events.metrics bus; bus }

type report = {
  refreshed : int;  (** objects recomputed in place *)
  skipped : int;  (** stale objects left stale (see [skip_reasons]) *)
  remaining : int;  (** dirty-set size after the run *)
  tasks : Task.t list;  (** new provenance tasks, in commit order *)
  skip_reasons : (Oid.t * string) list;
}

(* Refresh as a DAG for {!Scheduler}: one node per producing task of a
   stale object, depending on the producers of its stale inputs.  Nodes
   commit by wave depth (one more than their deepest dependency's),
   then by producing task id — the order a full re-derivation records them
   in, whatever ids earlier refreshes handed out.  A commit updates the
   outputs in place (running the update trigger), records provenance,
   which makes the new task reusable, and emits [Object_refreshed]; a
   failure becomes the skip reason of the node's stale outputs and
   poisons the nodes reading them (refreshing from a stale input would
   diverge from a full re-derivation). *)
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
  (* -- one node per producing task -- *)
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
    |> Array.of_list
  in
  let index : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri (fun i (_, id, _) -> Hashtbl.replace index id i) order;
  let refreshed = ref 0 in
  let new_tasks = ref [] in
  let node (_, _, (task : Task.t)) =
    let proc = Proc_registry.find t.procs task.Task.process in
    { Scheduler.deps = List.map (Hashtbl.find index) (deps_of task);
      eval =
        (fun () ->
          Option.map
            (fun p () -> Deriver.eval_primitive t.deriver p task.Task.inputs)
            proc);
      commit =
        (fun evaluated ->
          match proc with
          | None ->
            Error
              (Printf.sprintf "process %s not in registry" task.Task.process)
          | Some p ->
            let applied =
              let* pairs = evaluated () in
              let* () =
                List.fold_left
                  (fun acc oid ->
                    let* () = acc in
                    let cls = p.Process.output_class in
                    Obj_store.update t.objects ~cls oid pairs
                    |> Result.map (fun () ->
                           Provenance.object_changed t.prov oid))
                  (Ok ()) task.Task.outputs
              in
              Ok pairs
            in
            (match applied with
             | Error e -> Error (Gaea_error.to_string e)
             | Ok pairs ->
               List.iter
                 (fun (_, v) ->
                   t.metrics.Metrics.pixels_processed <-
                     t.metrics.Metrics.pixels_processed
                     + Deriver.count_pixels v)
                 pairs;
               let new_task =
                 Provenance.record_task t.prov ~process:p.Process.proc_name
                   ~version:p.Process.version ~inputs:task.Task.inputs
                   ~params:p.Process.params ~outputs:task.Task.outputs
                   ~output_class:p.Process.output_class
               in
               List.iter
                 (fun oid ->
                   Provenance.mark_fresh t.prov oid;
                   Events.emit t.bus
                     (Events.Object_refreshed
                        { cls = p.Process.output_class; oid;
                          task_id = new_task.Task.task_id }))
                 task.Task.outputs;
               refreshed := !refreshed + List.length task.Task.outputs;
               new_tasks := new_task :: !new_tasks;
               Ok ())) }
  in
  let status = Scheduler.run (Array.map node order) in
  let skip_reasons =
    List.concat
      (List.mapi
         (fun i (_, _, (task : Task.t)) ->
           let skip reason =
             List.filter_map
               (fun oid ->
                 if Hashtbl.mem work oid then Some (oid, reason) else None)
               task.Task.outputs
           in
           match status.(i) with
           | Scheduler.Committed -> []
           | Scheduler.Failed reason -> skip reason
           | Scheduler.Poisoned -> skip "stale input not refreshable")
         (Array.to_list order))
  in
  { refreshed = !refreshed;
    skipped = List.length skip_reasons;
    remaining = List.length (Provenance.stale t.prov);
    tasks = List.rev !new_tasks;
    skip_reasons }
