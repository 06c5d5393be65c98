module Store = Gaea_storage.Store

type t = {
  store : Store.t;
  defs : (string, Schema.t) Hashtbl.t;
  bus : Events.bus;
}

let create ~store ~bus = { store; defs = Hashtbl.create 32; bus }

let define t (cls : Schema.t) =
  let name = cls.Schema.c_name in
  if Hashtbl.mem t.defs name then
    Error (Gaea_error.Duplicate { kind = "class"; name })
  else
    match Store.create_table t.store ~name (Schema.storage_attrs cls) with
    | Error e -> Error (Gaea_error.Storage_error e)
    | Ok table ->
      (* index the temporal extent so AT queries use a range probe, and
         the spatial extent so OVERLAPS queries use a window probe; a
         reloaded kernel replays this definition and gets both back *)
      Option.iter
        (fun attr -> ignore (Gaea_storage.Table.create_btree_index table attr))
        cls.Schema.temporal_attr;
      Option.iter
        (fun attr -> ignore (Gaea_storage.Table.create_box_index table attr))
        cls.Schema.spatial_attr;
      Hashtbl.add t.defs name cls;
      Events.emit t.bus (Events.Class_defined name);
      Ok ()

let mem t name = Hashtbl.mem t.defs name
let find t name = Hashtbl.find_opt t.defs name

let classes t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.defs []
  |> List.sort (fun a b -> compare a.Schema.c_name b.Schema.c_name)

let table t name =
  if Hashtbl.mem t.defs name then Store.table t.store name else None
