module Table = Gaea_storage.Table

type t = {
  defs : (string, Schema.t * Table.t) Hashtbl.t;
  bus : Events.bus;
}

let create ~bus = { defs = Hashtbl.create 32; bus }

let define t (cls : Schema.t) =
  let name = cls.Schema.c_name in
  if Hashtbl.mem t.defs name then
    Error (Gaea_error.Duplicate { kind = "class"; name })
  else
    match Gaea_storage.Tuple.descriptor (Schema.storage_attrs cls) with
    | Error e -> Error (Gaea_error.Storage_error (name ^ ": " ^ e))
    | Ok desc ->
      let table = Table.create ~name desc in
      (* index the temporal extent so AT queries use a range probe, and
         the spatial extent so OVERLAPS queries use a window probe; a
         reloaded kernel replays this definition and gets both back *)
      Option.iter
        (fun attr -> ignore (Table.create_btree_index table attr))
        cls.Schema.temporal_attr;
      Option.iter
        (fun attr -> ignore (Table.create_box_index table attr))
        cls.Schema.spatial_attr;
      Hashtbl.add t.defs name (cls, table);
      Events.emit t.bus (Events.Class_defined name);
      Ok ()

let entry t name = Hashtbl.find_opt t.defs name
let mem t name = Hashtbl.mem t.defs name
let find t name = Option.map fst (entry t name)
let table t name = Option.map snd (entry t name)

let classes t =
  Hashtbl.fold (fun _ (c, _) acc -> c :: acc) t.defs []
  |> List.sort (fun a b -> compare a.Schema.c_name b.Schema.c_name)
