module Oid = Gaea_storage.Oid
module Net = Gaea_petri.Net
module Value = Gaea_adt.Value

(* What makes two runs the same derivation: the process identity, the
   input binding sorted by argument name, and the parameters by
   content hash. *)
type reuse_key =
  string * int * (string * Oid.t list) list * (string * int) list

type t = {
  mutable task_log : Task.t list; (* reverse chronological *)
  task_by_id : Task.t Oid.Tbl.t;  (* keyed by task id, an int too *)
  producer : Task.t Oid.Tbl.t;
  users : Task.t list Oid.Tbl.t;
  dirty : unit Oid.Tbl.t;
  reusable : (reuse_key, Task.t) Hashtbl.t;  (* newest task per key *)
  mutable retired : int;  (* reuse entries the staleness walks ended *)
  mutable next_task : int;
  mutable clock : int;
  mutable net_cache : Net.t option;
  objects : Obj_store.t;
  bus : Events.bus;
}

let create ~objects ~bus =
  { task_log = [];
    task_by_id = Oid.Tbl.create 64;
    producer = Oid.Tbl.create 64;
    users = Oid.Tbl.create 64;
    dirty = Oid.Tbl.create 64;
    reusable = Hashtbl.create 64;
    retired = 0;
    next_task = 1;
    clock = 0;
    net_cache = None;
    objects;
    bus }

let index t (task : Task.t) =
  t.task_log <- task :: t.task_log;
  Oid.Tbl.replace t.task_by_id task.Task.task_id task;
  List.iter (fun oid -> Oid.Tbl.replace t.producer oid task) task.Task.outputs;
  List.iter
    (fun oid ->
      let cur = Option.value ~default:[] (Oid.Tbl.find_opt t.users oid) in
      Oid.Tbl.replace t.users oid (task :: cur))
    (Task.input_oids task)

let tasks t = List.rev t.task_log
let find_task t id = Oid.Tbl.find_opt t.task_by_id id
let task_producing t oid = Oid.Tbl.find_opt t.producer oid

let tasks_using t oid =
  Option.value ~default:[] (Oid.Tbl.find_opt t.users oid) |> List.rev

let clock t = t.clock

(* ------------------------------------------------------------------ *)
(* Reuse                                                               *)
(* ------------------------------------------------------------------ *)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let reuse_key ~process ~version ~inputs ~params : reuse_key =
  ( process,
    version,
    by_name inputs,
    by_name (List.map (fun (n, v) -> (n, Value.content_hash v)) params) )

let key_of_task (task : Task.t) =
  reuse_key ~process:task.Task.process ~version:task.Task.process_version
    ~inputs:task.Task.inputs ~params:task.Task.params

(* a task is reusable only while every object it produced is stored *)
let outputs_live t (task : Task.t) =
  task.Task.outputs <> []
  && List.for_all (Obj_store.mem t.objects) task.Task.outputs

let find_reusable t (p : Process.t) ~inputs =
  match
    Hashtbl.find_opt t.reusable
      (reuse_key ~process:p.Process.proc_name ~version:p.Process.version
         ~inputs ~params:p.Process.params)
  with
  | Some task when outputs_live t task -> Some task
  | _ -> None

(* End the reuse of the task that produced [oid], if its entry is still
   that task's. *)
let retire t oid =
  match Oid.Tbl.find_opt t.producer oid with
  | None -> ()
  | Some task ->
    let key = key_of_task task in
    (match Hashtbl.find_opt t.reusable key with
     | Some e when e.Task.task_id = task.Task.task_id ->
       Hashtbl.remove t.reusable key;
       t.retired <- t.retired + 1
     | _ -> ())

let reusable_count t = Hashtbl.length t.reusable
let retired t = t.retired
let restore_retired t n = t.retired <- n

let reusable_tasks t =
  Hashtbl.fold
    (fun _ task acc -> if outputs_live t task then task :: acc else acc)
    t.reusable []
  |> List.sort (fun (a : Task.t) b -> Int.compare a.Task.task_id b.Task.task_id)

let restore_reusable t ids =
  List.fold_left
    (fun acc id ->
      Result.bind acc (fun () ->
          match Oid.Tbl.find_opt t.task_by_id id with
          | Some task ->
            Hashtbl.replace t.reusable (key_of_task task) task;
            Ok ()
          | None -> Gaea_error.err (Printf.sprintf "reusable: no task #%d" id)))
    (Ok ()) ids

(* ------------------------------------------------------------------ *)
(* Staleness (the single definition GA033 shares)                      *)
(* ------------------------------------------------------------------ *)

(* Mark the outputs of [tasks] and everything downstream stale, calling
   [visit] on every object the walk reaches, stale already or not.
   Only live, task-produced objects are marked. *)
let walk t ~visit tasks =
  let rec mark oid =
    visit oid;
    if
      Obj_store.mem t.objects oid
      && (not (Oid.Tbl.mem t.dirty oid))
      && Oid.Tbl.mem t.producer oid
    then begin
      Oid.Tbl.replace t.dirty oid ();
      mark_outputs (tasks_using t oid)
    end
  and mark_outputs tasks =
    List.iter (fun (task : Task.t) -> List.iter mark task.Task.outputs) tasks
  in
  mark_outputs tasks

(* A staleness trigger: walk from [tasks] and end the reuse of the
   producer of every object reached, [changed] included. *)
let trigger t ~reason ?changed tasks =
  let before = t.retired in
  Option.iter (retire t) changed;
  walk t ~visit:(retire t) tasks;
  let entries = t.retired - before in
  if entries > 0 then
    Events.emit t.bus (Events.Cache_invalidated { entries; reason })

let object_changed t oid =
  trigger t ~reason:(Printf.sprintf "object #%d" oid) ~changed:oid
    (tasks_using t oid)

let object_deleted t oid =
  Oid.Tbl.remove t.dirty oid;
  object_changed t oid

let process_defined t ~name ~version =
  trigger t ~reason:("process " ^ name)
    (List.filter
       (fun (task : Task.t) ->
         task.Task.process = name && task.Task.process_version < version)
       t.task_log)

let is_stale t oid = Oid.Tbl.mem t.dirty oid && Obj_store.mem t.objects oid

let stale t =
  List.of_seq (Oid.Tbl.to_seq_keys t.dirty)
  |> List.filter (Obj_store.mem t.objects)
  |> List.sort Int.compare

let mark_fresh t oid = Oid.Tbl.remove t.dirty oid

let restore_stale t oids =
  List.iter (fun oid -> Oid.Tbl.replace t.dirty oid ()) oids

let record_task t ~process ~version ~inputs ~params ~outputs ~output_class =
  t.clock <- t.clock + 1;
  let task =
    { Task.task_id = t.next_task;
      process;
      process_version = version;
      inputs;
      params;
      outputs;
      output_class;
      clock = t.clock }
  in
  t.next_task <- t.next_task + 1;
  index t task;
  Hashtbl.replace t.reusable (key_of_task task) task;
  Events.emit t.bus
    (Events.Task_recorded
       { task_id = task.Task.task_id; process; version });
  (* derived from a stale input: stale too, and still reusable *)
  if List.exists (Oid.Tbl.mem t.dirty) (Task.input_oids task) then
    walk t ~visit:ignore [ task ];
  task

let restore_task t (task : Task.t) =
  if Oid.Tbl.mem t.task_by_id task.Task.task_id then
    Error
      (Gaea_error.Duplicate
         { kind = "task"; name = Printf.sprintf "#%d" task.Task.task_id })
  else begin
    index t task;
    if task.Task.task_id >= t.next_task then t.next_task <- task.Task.task_id + 1;
    if task.Task.clock > t.clock then t.clock <- task.Task.clock;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Derivation net                                                      *)
(* ------------------------------------------------------------------ *)

let build_net ~classes ~processes =
  let net = Net.create () in
  List.iter (fun cls -> ignore (Net.add_place net ~name:cls.Schema.c_name)) classes;
  (* Transitions get ids in insertion order and Backchain breaks cost
     ties by the lowest id, so install the processes that classes
     declare as their DERIVED BY before the rest. *)
  let declared = List.filter_map Schema.derived_by classes in
  let preferred, others =
    List.partition (fun p -> List.mem p.Process.proc_name declared) processes
  in
  List.iter
    (fun proc ->
      if Process.is_primitive proc then begin
        (* group args by class: threshold = sum of card_min *)
        let thresholds = Hashtbl.create 4 in
        List.iter
          (fun a ->
            let cur =
              Option.value ~default:0
                (Hashtbl.find_opt thresholds a.Process.arg_class)
            in
            Hashtbl.replace thresholds a.Process.arg_class
              (cur + a.Process.card_min))
          proc.Process.args;
        let inputs =
          Hashtbl.fold
            (fun cls k acc ->
              match Net.find_place net cls with
              | Some p -> (p, k) :: acc
              | None -> acc)
            thresholds []
          |> List.sort compare
        in
        match Net.find_place net proc.Process.output_class with
        | None -> ()
        | Some out_place ->
          ignore
            (Net.add_transition net ~name:proc.Process.proc_name ~inputs
               ~outputs:[ out_place ] ())
      end)
    (preferred @ others);
  net

let invalidate_net t = t.net_cache <- None

let derivation_net t ~classes ~processes =
  match t.net_cache with
  | Some v -> v
  | None ->
    let v = build_net ~classes:(classes ()) ~processes:(processes ()) in
    t.net_cache <- Some v;
    v
