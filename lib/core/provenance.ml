module Oid = Gaea_storage.Oid
module Net = Gaea_petri.Net
module Value = Gaea_adt.Value

(* What makes two runs the same derivation: the process identity, the
   input binding sorted by argument name, and the parameters by
   content hash. *)
type reuse_key =
  string * int * (string * Oid.t list) list * (string * int) list

module IntSet = Set.Make (Int)

(* a process version's unfired frontier (see the interface) *)
type frontier = {
  f_version : int;
  f_class : string;
  mutable unfired : IntSet.t;
  mutable size : int;
}

type t = {
  mutable task_log : Task.t list; (* reverse chronological *)
  task_by_id : Task.t Oid.Tbl.t;  (* keyed by task id, an int too *)
  producer : Task.t Oid.Tbl.t;
  users : Task.t list Oid.Tbl.t;  (* readers still producing, newest first *)
  superseded : Task.t list Oid.Tbl.t;  (* readers a refresh replaced *)
  dirty : unit Oid.Tbl.t;
  reusable : (reuse_key, Task.t) Hashtbl.t;  (* newest task per key *)
  entry_of : reuse_key Oid.Tbl.t;  (* task id -> the key it holds *)
  hashed : (string, int * (string * Value.t) list * (string * int) list) Hashtbl.t;
      (* per process name, the last version's parameters, hashed *)
  frontiers : (string, frontier) Hashtbl.t;  (* by process name *)
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
    superseded = Oid.Tbl.create 64;
    dirty = Oid.Tbl.create 64;
    reusable = Hashtbl.create 64;
    entry_of = Oid.Tbl.create 64;
    hashed = Hashtbl.create 16;
    frontiers = Hashtbl.create 16;
    retired = 0;
    next_task = 1;
    clock = 0;
    net_cache = None;
    objects;
    bus }

let users_at tbl oid = Option.value ~default:[] (Oid.Tbl.find_opt tbl oid)

let index t (task : Task.t) =
  t.task_log <- task :: t.task_log;
  Oid.Tbl.replace t.task_by_id task.Task.task_id task;
  List.iter
    (fun oid ->
      let old = Oid.Tbl.find_opt t.producer oid in
      Oid.Tbl.replace t.producer oid task;
      (* a task producing none of its outputs any more is no consumer *)
      match old with
      | None -> ()
      | Some (old : Task.t) ->
        let produces o =
          Option.fold ~none:false ~some:(( == ) old) (Oid.Tbl.find_opt t.producer o)
        in
        if not (List.exists produces old.Task.outputs) then begin
          Oid.Tbl.remove t.entry_of old.Task.task_id;
          List.iter
            (fun i ->
              Oid.Tbl.replace t.users i
                (List.filter (( != ) old) (users_at t.users i));
              Oid.Tbl.replace t.superseded i (old :: users_at t.superseded i))
            (Task.input_oids old)
        end)
    task.Task.outputs;
  List.iter
    (fun oid ->
      Oid.Tbl.replace t.users oid (task :: users_at t.users oid))
    (Task.input_oids task)

let tasks t = List.rev t.task_log
let find_task t id = Oid.Tbl.find_opt t.task_by_id id
let task_producing t oid = Oid.Tbl.find_opt t.producer oid

let tasks_using t oid =
  List.rev_append (users_at t.users oid) (users_at t.superseded oid)
  |> List.sort (fun (a : Task.t) b -> Int.compare a.Task.task_id b.Task.task_id)

let clock t = t.clock

(* ------------------------------------------------------------------ *)
(* Reuse                                                               *)
(* ------------------------------------------------------------------ *)

(* a one-argument binding is its own sorted form *)
let by_name = function
  | ([] | [ _ ]) as l -> l
  | l -> List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* a version's parameters are fixed, so they are hashed once; an
   interpolation's change per task and miss the physical check *)
let hashed_params t ~process ~version params =
  match params, Hashtbl.find_opt t.hashed process with
  | [], _ -> []
  | _, Some (v, ps, h) when v = version && ps == params -> h
  | _ ->
    let h = by_name (List.map (fun (n, v) -> (n, Value.content_hash v)) params) in
    Hashtbl.replace t.hashed process (version, params, h);
    h

let reuse_key t ~process ~version ~inputs ~params : reuse_key =
  (process, version, by_name inputs, hashed_params t ~process ~version params)

let key_of_task t (task : Task.t) =
  reuse_key t ~process:task.Task.process ~version:task.Task.process_version
    ~inputs:task.Task.inputs ~params:task.Task.params

(* a task is reusable only while every object it produced is stored *)
let outputs_live t (task : Task.t) =
  task.Task.outputs <> []
  && List.for_all (Obj_store.mem t.objects) task.Task.outputs

let find_reusable t (p : Process.t) ~inputs =
  match
    Hashtbl.find_opt t.reusable
      (reuse_key t ~process:p.Process.proc_name ~version:p.Process.version
         ~inputs ~params:p.Process.params)
  with
  | Some task when outputs_live t task -> Some task
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Unfired frontiers                                                   *)
(* ------------------------------------------------------------------ *)

(* [oid] joins [f] or leaves it *)
let toggle f oid unfired =
  if IntSet.mem oid f.unfired <> unfired then begin
    f.unfired <- (if unfired then IntSet.add else IntSet.remove) oid f.unfired;
    f.size <- (f.size + if unfired then 1 else -1)
  end

(* the one input of [task]'s binding joins (while it lives) or leaves
   the frontier of its process version, if that has one *)
let set_unfired t (task : Task.t) unfired =
  if Hashtbl.length t.frontiers > 0 then
    match Hashtbl.find_opt t.frontiers task.Task.process, task.Task.inputs with
    | Some f, [ (_, [ oid ]) ]
      when f.f_version = task.Task.process_version
           && ((not unfired) || Obj_store.mem t.objects oid) ->
      toggle f oid unfired
    | _ -> ()

(* [task] now holds the reuse entry of its key *)
let hold_entry t key (task : Task.t) =
  Hashtbl.replace t.reusable key task;
  Oid.Tbl.replace t.entry_of task.Task.task_id key;
  set_unfired t task false

let frontier t (p : Process.t) =
  match p.Process.kind, p.Process.args with
  | Process.Primitive _, [ a ]
    when a.Process.card_min = 1 && a.Process.card_max = Some 1 ->
    let f =
      match Hashtbl.find_opt t.frontiers p.Process.proc_name with
      | Some f when f.f_version = p.Process.version -> f
      | _ ->
        let f =
          { f_version = p.Process.version; f_class = a.Process.arg_class;
            unfired = IntSet.empty; size = 0 }
        in
        List.iter
          (fun o ->
            if find_reusable t p ~inputs:[ (a.Process.arg_name, [ o ]) ] = None then
              toggle f o true)
          (Obj_store.oids_of_class t.objects f.f_class);
        Hashtbl.replace t.frontiers p.Process.proc_name f;
        f
    in
    Some
      { Net.size = f.size;
        lowest = (fun n -> List.of_seq (Seq.take n (IntSet.to_seq f.unfired))) }
  | _ -> None

let fired_one t (p : Process.t) ~arg oid =
  match Hashtbl.find t.frontiers p.Process.proc_name with
  | f when f.f_version = p.Process.version -> not (IntSet.mem oid f.unfired)
  | _ | (exception Not_found) ->
    Option.is_some (find_reusable t p ~inputs:[ (arg, [ oid ]) ])

let fired t p ~inputs =
  match inputs with
  | [ (arg, [ oid ]) ] -> fired_one t p ~arg oid
  | _ -> Option.is_some (find_reusable t p ~inputs)

let object_inserted t ~cls oid =
  Hashtbl.iter (fun _ f -> if f.f_class = cls then toggle f oid true) t.frontiers

(* End the reuse of the task that produced [oid], if it still holds its
   key's entry; its binding is unfired again while its input lives. *)
let retire t oid =
  match Oid.Tbl.find_opt t.producer oid with
  | None -> ()
  | Some task ->
    (match Oid.Tbl.find_opt t.entry_of task.Task.task_id with
     | Some key
       when Option.fold ~none:false ~some:(( == ) task)
              (Hashtbl.find_opt t.reusable key) ->
       Hashtbl.remove t.reusable key;
       Oid.Tbl.remove t.entry_of task.Task.task_id;
       t.retired <- t.retired + 1;
       set_unfired t task true
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
            hold_entry t (key_of_task t task) task;
            Ok ()
          | None -> Error (Gaea_error.Context ("reusable", Unknown_task id))))
    (Ok ()) ids

(* ------------------------------------------------------------------ *)
(* Staleness (the single definition GA033 shares)                      *)
(* ------------------------------------------------------------------ *)

(* Mark the outputs of [tasks] and everything downstream stale, calling
   [visit] once on every object the walk reaches, stale already or not.
   Only live, task-produced objects are marked; past a marked object the
   walk follows the tasks still producing, not the ones refreshes
   superseded. *)
let walk t ~visit = function
  | [] -> ()
  | tasks ->
    let seen = Oid.Tbl.create 8 in
    let rec mark oid =
      if not (Oid.Tbl.mem seen oid) then begin
        Oid.Tbl.replace seen oid ();
        visit oid;
        if
          Obj_store.mem t.objects oid
          && (not (Oid.Tbl.mem t.dirty oid))
          && Oid.Tbl.mem t.producer oid
        then begin
          Oid.Tbl.replace t.dirty oid ();
          mark_outputs (users_at t.users oid)
        end
      end
    and mark_outputs tasks =
      List.iter (fun (task : Task.t) -> List.iter mark task.Task.outputs) tasks
    in
    mark_outputs tasks

(* A staleness trigger: walk from [tasks] and end the reuse of the
   producer of every object reached, [changed] included; the event's
   reason is built only when an entry ended. *)
let trigger t ~reason ?changed tasks =
  let before = t.retired in
  Option.iter (retire t) changed;
  walk t ~visit:(retire t) tasks;
  let entries = t.retired - before in
  if entries > 0 then
    Events.emit t.bus (Events.Cache_invalidated { entries; reason = reason () })

let object_changed t oid =
  trigger t
    ~reason:(fun () -> Printf.sprintf "object #%d" oid)
    ~changed:oid (users_at t.users oid)

let object_deleted t oid =
  Oid.Tbl.remove t.dirty oid;
  Hashtbl.iter (fun _ f -> toggle f oid false) t.frontiers;
  object_changed t oid

let process_defined t ~name ~version =
  Hashtbl.remove t.frontiers name;
  trigger t ~reason:(fun () -> "process " ^ name)
    (List.filter
       (fun (task : Task.t) ->
         task.Task.process = name && task.Task.process_version < version)
       t.task_log)

let is_stale t oid = Oid.Tbl.mem t.dirty oid && Obj_store.mem t.objects oid

let stale t =
  List.of_seq (Oid.Tbl.to_seq_keys t.dirty)
  |> List.filter (Obj_store.mem t.objects)
  |> List.sort Int.compare

let stale_count t =
  Oid.Tbl.fold
    (fun oid () n -> if Obj_store.mem t.objects oid then n + 1 else n)
    t.dirty 0

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
  hold_entry t (key_of_task t task) task;
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
