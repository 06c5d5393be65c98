type event =
  | Class_defined of string
  | Object_inserted of { cls : string; oid : int }
  | Object_deleted of { cls : string; oid : int }
  | Object_updated of { cls : string; oid : int }
  | Object_refreshed of { cls : string; oid : int; task_id : int }
  | Process_defined of { name : string; version : int }
  | Process_versioned of { name : string; version : int }
  | Task_recorded of { task_id : int; process : string; version : int }
  | Cache_hit of { process : string; version : int }
  | Cache_miss of { process : string; version : int }
  | Cache_invalidated of { entries : int; reason : string }

let event_to_string = function
  | Class_defined c -> Printf.sprintf "class_defined %s" c
  | Object_inserted { cls; oid } ->
    Printf.sprintf "object_inserted %s #%d" cls oid
  | Object_deleted { cls; oid } -> Printf.sprintf "object_deleted %s #%d" cls oid
  | Object_updated { cls; oid } -> Printf.sprintf "object_updated %s #%d" cls oid
  | Object_refreshed { cls; oid; task_id } ->
    Printf.sprintf "object_refreshed %s #%d task #%d" cls oid task_id
  | Process_defined { name; version } ->
    Printf.sprintf "process_defined %s v%d" name version
  | Process_versioned { name; version } ->
    Printf.sprintf "process_versioned %s v%d" name version
  | Task_recorded { task_id; process; version } ->
    Printf.sprintf "task_recorded #%d %s v%d" task_id process version
  | Cache_hit { process; version } ->
    Printf.sprintf "cache_hit %s v%d" process version
  | Cache_miss { process; version } ->
    Printf.sprintf "cache_miss %s v%d" process version
  | Cache_invalidated { entries; reason } ->
    Printf.sprintf "cache_invalidated %d entries (%s)" entries reason

type counters = {
  mutable executions : int;
  mutable retrievals : int;
  mutable interpolations : int;
  mutable pixels_processed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable refreshes : int;
}

type bus = {
  ring : (int * event) option array;
  mutable next_seq : int;
  counters : counters;
}

let create ?(log_capacity = 256) () =
  { ring = Array.make (max 1 log_capacity) None; next_seq = 0;
    counters =
      { executions = 0; retrievals = 0; interpolations = 0;
        pixels_processed = 0; cache_hits = 0; cache_misses = 0;
        refreshes = 0 } }

let counters bus = bus.counters

(* the counter each event feeds; the rest feed none *)
let count m = function
  | Task_recorded _ -> m.executions <- m.executions + 1
  | Cache_hit _ -> m.cache_hits <- m.cache_hits + 1
  | Cache_miss _ -> m.cache_misses <- m.cache_misses + 1
  | Object_refreshed _ -> m.refreshes <- m.refreshes + 1
  | _ -> ()

let emit bus ev =
  let seq = bus.next_seq in
  bus.next_seq <- seq + 1;
  bus.ring.(seq mod Array.length bus.ring) <- Some (seq, ev);
  count bus.counters ev

let log bus =
  Array.to_list bus.ring
  |> List.filter_map Fun.id
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let seen bus = bus.next_seq
