module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple
module Oid = Gaea_storage.Oid

let ( let* ) r f = Result.bind r f

type t = {
  catalog : Catalog.t;
  alloc : Oid.allocator;
  oid_class : string Oid.Tbl.t;
  bus : Events.bus;
}

let create ~catalog ~bus =
  { catalog; alloc = Oid.allocator (); oid_class = Oid.Tbl.create 256; bus }

let last_oid t = Oid.current t.alloc
let advance_oids t oid = Oid.advance_to t.alloc oid

let unknown_attrs cls extra =
  Gaea_error.err
    (Printf.sprintf "%s: unknown attribute(s) %s" cls
       (String.concat ", " (List.map fst extra)))

(* The one insert validation: the class exists and the pairs name
   every one of its attributes and no other.  Returns the table and the
   values in attribute order. *)
let validate t ~cls pairs =
  match Catalog.entry t.catalog cls with
  | None -> Error (Gaea_error.Unknown_class cls)
  | Some (def, tab) ->
    let attrs = Schema.attr_names def in
    let missing = List.filter (fun a -> not (List.mem_assoc a pairs)) attrs in
    let extra = List.filter (fun (a, _) -> not (List.mem a attrs)) pairs in
    if missing <> [] then
      Gaea_error.err
        (Printf.sprintf "%s: missing attribute(s) %s" cls
           (String.concat ", " missing))
    else if extra <> [] then unknown_attrs cls extra
    else Ok (tab, List.map (fun a -> List.assoc a pairs) attrs)

let add_row t ~cls tab oid values =
  match Table.insert tab oid values with
  | Error e -> Error (Gaea_error.Storage_error e)
  | Ok () ->
    Oid.Tbl.replace t.oid_class oid cls;
    Ok ()

let insert t ~cls pairs =
  let* tab, values = validate t ~cls pairs in
  let oid = Oid.fresh t.alloc in
  let* () = add_row t ~cls tab oid values in
  Events.emit t.bus (Events.Object_inserted { cls; oid });
  Ok oid

let insert_with_oid t ~cls oid pairs =
  let* tab, values = validate t ~cls pairs in
  let* () = add_row t ~cls tab oid values in
  Oid.advance_to t.alloc oid;
  Ok ()

(* the live object's class and table, checked against the class named *)
let owned t ~cls oid =
  match Oid.Tbl.find_opt t.oid_class oid with
  | None -> Error (Gaea_error.Unknown_object oid)
  | Some actual when actual <> cls -> Error (Gaea_error.Wrong_class { oid; cls })
  | Some _ ->
    (match Catalog.entry t.catalog cls with
     | Some entry -> Ok entry
     | None -> Error (Gaea_error.Unknown_class cls))

let update t ~cls oid pairs =
  let* def, tab = owned t ~cls oid in
  let attrs = Schema.attr_names def in
  let extra = List.filter (fun (a, _) -> not (List.mem a attrs)) pairs in
  if extra <> [] then unknown_attrs cls extra
  else
    match Table.get tab oid with
    | None ->
      Error
        (Gaea_error.Storage_error
           (Printf.sprintf "update of %s #%d: tuple missing" cls oid))
    | Some old ->
      let current = List.combine attrs (Tuple.values old) in
      let values =
        List.map
          (fun a ->
            match List.assoc_opt a pairs with
            | Some v -> v
            | None -> List.assoc a current)
          attrs
      in
      (match Table.replace tab oid values with
       | Error e -> Error (Gaea_error.Storage_error e)
       | Ok () ->
         Events.emit t.bus (Events.Object_updated { cls; oid });
         Ok ())

let delete t ~cls oid =
  let* _, tab = owned t ~cls oid in
  if Table.delete tab oid then begin
    Oid.Tbl.remove t.oid_class oid;
    Events.emit t.bus (Events.Object_deleted { cls; oid });
    Ok ()
  end
  else
    (* oid_class said it was there: the table disagrees *)
    Error
      (Gaea_error.Storage_error
         (Printf.sprintf "delete of %s #%d failed" cls oid))

let attr t ~cls oid attr =
  match Catalog.table t.catalog cls with
  | None -> None
  | Some tab -> Table.get_attr tab oid attr

let oids_of_class t cls =
  match Catalog.table t.catalog cls with
  | None -> []
  | Some tab -> Table.oids tab (Table.row_count tab)

let class_of t oid = Oid.Tbl.find_opt t.oid_class oid

let count t cls =
  match Catalog.table t.catalog cls with
  | None -> 0
  | Some tab -> Table.row_count tab

let mem t oid = Oid.Tbl.mem t.oid_class oid
