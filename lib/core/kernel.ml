(* The kernel facade: composes the subsystem modules over one shared
   event bus, preserving the historical flat API.  Each mutation calls
   what reacts to it (staleness, the net cache) after its store changed. *)

module Registry = Gaea_adt.Registry
module Marking = Gaea_petri.Marking
module Events = Events

let ( let* ) r f = Result.bind r f

type counters = Events.counters = {
  mutable executions : int;
  mutable retrievals : int;
  mutable interpolations : int;
  mutable pixels_processed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable refreshes : int;
}

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  invalidations : int;
  evictions : int;
  resident_bytes : int;
}

type refresh_report = Deriver.refresh_report = {
  refreshed : int;
  skipped : int;
  remaining : int;
  tasks : Task.t list;
  skip_reasons : (Gaea_storage.Oid.t * string) list;
}

type t = {
  registry : Registry.t;
  bus : Events.bus;
  catalog : Catalog.t;
  objects : Obj_store.t;
  procs : Proc_registry.t;
  concepts : Concept.t;
  prov : Provenance.t;
  deriver : Deriver.t;
}

let create () =
  let registry = Registry.with_builtins () in
  let bus = Events.create () in
  let catalog = Catalog.create ~bus in
  let objects = Obj_store.create ~catalog ~bus in
  let procs = Proc_registry.create ~catalog ~bus in
  let prov = Provenance.create ~objects ~bus in
  let deriver = Deriver.create ~registry ~catalog ~objects ~procs ~prov ~bus in
  { registry; bus; catalog; objects; procs;
    concepts = Concept.create (); prov; deriver }

(* system level *)
let registry t = t.registry
let concepts t = t.concepts

(* events *)
let bus t = t.bus
let event_log t = Events.log t.bus

(* bookkeeping *)
let counters t = Events.counters t.bus
let clock t = Provenance.clock t.prov

(* classes *)
(* a definition changes the derivation net and what a process version
   compiles against *)
let definitions_changed t =
  Provenance.invalidate_net t.prov;
  Deriver.forget_compiled t.deriver

let define_class t cls =
  Catalog.define t.catalog cls |> Result.map (fun () -> definitions_changed t)

let find_class t name = Catalog.find t.catalog name
let classes t = Catalog.classes t.catalog
let class_table t name = Catalog.table t.catalog name

(* objects *)
let insert_object t ~cls pairs =
  let* values = Obj_store.resolve t.objects ~cls pairs in
  let* oid = Obj_store.insert t.objects ~cls values in
  Provenance.object_inserted t.prov ~cls oid;
  Ok oid

let insert_object_with_oid t ~cls oid pairs =
  let* values = Obj_store.resolve t.objects ~cls pairs in
  let* () = Obj_store.insert_with_oid t.objects ~cls oid values in
  Ok (Provenance.object_inserted t.prov ~cls oid)

let object_attr t ~cls oid attr = Obj_store.attr t.objects ~cls oid attr
let objects_of_class t cls = Obj_store.oids_of_class t.objects cls
let class_of_object t oid = Obj_store.class_of t.objects oid
let count_objects t cls = Obj_store.count t.objects cls
let last_oid t = Obj_store.last_oid t.objects
let advance_oids t oid = Obj_store.advance_oids t.objects oid

let delete_object t ~cls oid =
  Obj_store.delete t.objects ~cls oid
  |> Result.map (fun () -> Provenance.object_deleted t.prov oid)

let update_object t ~cls oid pairs =
  Obj_store.update t.objects ~cls oid pairs
  |> Result.map (fun () -> Provenance.object_changed t.prov oid)

(* processes *)
let define_process t p =
  let name = p.Process.proc_name in
  Proc_registry.define t.procs p
  |> Result.map (fun () ->
         definitions_changed t;
         (* a first version supersedes nothing *)
         if List.length (Proc_registry.versions t.procs name) > 1 then
           Provenance.process_defined t.prov ~name ~version:p.Process.version)

let find_process t ?version name = Proc_registry.find t.procs ?version name
let process_versions t name = Proc_registry.versions t.procs name
let latest_process_version t name = Proc_registry.latest_version t.procs name
let processes t = Proc_registry.latest t.procs
let all_process_versions t = Proc_registry.all_versions t.procs

(* execution *)
let execute_process t p ~inputs = Deriver.execute_process t.deriver p ~inputs
let recompute_task t task = Deriver.recompute_task t.deriver task

let fire t p ~available ~widened = Deriver.fire t.deriver p ~available ~widened

let find_binding t ?fresh p ~available =
  Deriver.find_binding t.deriver ?fresh p ~available

let interpolate t ~cls ~at pair = Deriver.interpolate t.deriver ~cls ~at pair

let restore_task t task = Provenance.restore_task t.prov task

(* task log *)
let tasks t = Provenance.tasks t.prov
let find_task t id = Provenance.find_task t.prov id
let task_producing t oid = Provenance.task_producing t.prov oid
let tasks_using t oid = Provenance.tasks_using t.prov oid

(* reuse *)
let cache_stats t =
  let m = counters t in
  { hits = m.cache_hits;
    misses = m.cache_misses;
    entries = Provenance.reusable_count t.prov;
    invalidations = Provenance.retired t.prov;
    evictions = 0;
    resident_bytes = 0 }

let set_cache_budget _ _ = ()
let reusable_tasks t = Provenance.reusable_tasks t.prov
let restore_reusable t ids = Provenance.restore_reusable t.prov ids

let restore_cache_stats t ~hits ~misses ~invalidations =
  let m = counters t in
  m.cache_hits <- hits;
  m.cache_misses <- misses;
  Provenance.restore_retired t.prov invalidations

(* staleness / refresh *)
let stale_objects t = Provenance.stale t.prov
let object_stale t oid = Provenance.is_stale t.prov oid
let restore_stale t oids = Provenance.restore_stale t.prov oids
let refresh_stale ?only t = Deriver.refresh ?only t.deriver

(* derivation net *)
let derivation_net t =
  Provenance.derivation_net t.prov
    ~classes:(fun () -> classes t)
    ~processes:(fun () -> processes t)

(* Tokens are the stored objects: a place reads its class's table.
   Heap order is ascending OID (OIDs are allocated increasing, inserts
   append, compaction and Persist keep the order), so the first rows
   are the lowest OIDs.  With [frontiers], a transition's unfired
   tokens are its process's frontier. *)
let tokens ?(frontiers = false) t =
  let module Net = Gaea_petri.Net in
  let net = derivation_net t in
  let table p = class_table t (Net.place_name net p) in
  let module Table = Gaea_storage.Table in
  { Net.count =
      (fun p -> Option.fold ~none:0 ~some:Table.row_count (table p));
    first =
      (fun p n ->
        Option.fold ~none:[] ~some:(fun tab -> Table.oids tab n) (table p));
    unfired =
      (if frontiers then fun tid ->
         Option.bind
           (find_process t (Net.transition_name net tid))
           (Provenance.frontier t.prov)
       else fun _ -> None) }

let current_marking t =
  let net = derivation_net t in
  List.fold_left
    (fun m cls ->
      match Gaea_petri.Net.find_place net cls.Schema.c_name with
      | None -> m
      | Some place ->
        Marking.add_all m place (objects_of_class t cls.Schema.c_name))
    Marking.empty (classes t)
