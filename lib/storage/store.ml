type t = {
  tables : (string, Table.t) Hashtbl.t;
  alloc : Oid.allocator;
}

let create () = { tables = Hashtbl.create 16; alloc = Oid.allocator () }

let fresh_oid t = Oid.fresh t.alloc
let last_oid t = Oid.current t.alloc
let advance_oids t oid = Oid.advance_to t.alloc oid

let create_table t ~name attrs =
  if Hashtbl.mem t.tables name then
    Error (Printf.sprintf "table %s already exists" name)
  else
    match Tuple.descriptor attrs with
    | Error e -> Error (name ^ ": " ^ e)
    | Ok desc ->
      let table = Table.create ~name desc in
      Hashtbl.add t.tables name table;
      Ok table

let drop_table t name =
  if Hashtbl.mem t.tables name then begin
    Hashtbl.remove t.tables name;
    true
  end
  else false

let table t name = Hashtbl.find_opt t.tables name

let insert_values t ~table:tname values =
  match table t tname with
  | None -> Error (Printf.sprintf "no table %s" tname)
  | Some tab ->
    let oid = fresh_oid t in
    (match Table.insert tab oid values with
     | Ok () -> Ok oid
     | Error _ as e ->
       (match e with Error m -> Error m | Ok _ -> assert false))

let insert_with_oid t ~table:tname oid values =
  match table t tname with
  | None -> Error (Printf.sprintf "no table %s" tname)
  | Some tab ->
    (match Table.insert tab oid values with
     | Ok () ->
       Oid.advance_to t.alloc oid;
       Ok ()
     | Error _ as e -> e)

let get t ~table:tname oid =
  match table t tname with
  | None -> None
  | Some tab -> Table.get tab oid

let delete t ~table:tname oid =
  match table t tname with
  | None -> false
  | Some tab -> Table.delete tab oid

let total_rows t =
  Hashtbl.fold (fun _ tab acc -> acc + Table.row_count tab) t.tables 0
