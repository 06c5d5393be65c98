module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple
module Oid = Gaea_storage.Oid
module Value = Gaea_adt.Value

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

let table t cls =
  match Catalog.table t.catalog cls with
  | Some tab -> Ok tab
  | None -> Error (Gaea_error.Unknown_class cls)

let unknown_attrs cls extra =
  Gaea_error.err
    (Printf.sprintf "%s: unknown attribute(s) %s" cls
       (String.concat ", " extra))

(* an attribute no pair has named yet, told apart by identity *)
let unset = Value.string "\000unset"

(* [pairs] by position in one walk over them, each name looked up in
   the descriptor: the first pair naming an attribute wins, as
   [List.assoc] would; the names of no attribute come back in order *)
let place desc pairs =
  let values = Array.make (Tuple.arity desc) unset in
  let rec go extra = function
    | [] -> (values, List.rev extra)
    | (a, v) :: rest ->
      (match Tuple.attr_index desc a with
       | None -> go (a :: extra) rest
       | Some i ->
         if values.(i) == unset then values.(i) <- v;
         go extra rest)
  in
  go [] pairs

(* The one by-name validation: the class exists and the pairs name
   every one of its attributes and no other. *)
let resolve t ~cls pairs =
  let* tab = table t cls in
  let desc = Table.descriptor tab in
  let values, extra = place desc pairs in
  if Array.exists (( == ) unset) values then
    Gaea_error.err
      (Printf.sprintf "%s: missing attribute(s) %s" cls
         (String.concat ", "
            (List.filteri
               (fun i _ -> values.(i) == unset)
               (List.init (Array.length values) (Tuple.attr_name desc)))))
  else if extra <> [] then unknown_attrs cls extra
  else Ok values

let add_row t ~cls tab oid values =
  match Table.insert tab oid values with
  | Error e -> Error (Gaea_error.Storage_error e)
  | Ok () ->
    Oid.Tbl.replace t.oid_class oid cls;
    Ok ()

(* the OID is spent before the row is stored, so a tuple the table
   rejects still spends one *)
let insert t ~cls values =
  match Catalog.table t.catalog cls with
  | None -> Error (Gaea_error.Unknown_class cls)
  | Some tab ->
    let oid = Oid.fresh t.alloc in
    let* () = add_row t ~cls tab oid values in
    Events.emit t.bus (Events.Object_inserted { cls; oid });
    Ok oid

let insert_with_oid t ~cls oid values =
  let* tab = table t cls in
  let* () = add_row t ~cls tab oid values in
  Oid.advance_to t.alloc oid;
  Ok ()

(* the live object's table, checked against the class named *)
let owned t ~cls oid =
  match Oid.Tbl.find_opt t.oid_class oid with
  | None -> Error (Gaea_error.Unknown_object oid)
  | Some actual when actual <> cls -> Error (Gaea_error.Wrong_class { oid; cls })
  | Some _ -> table t cls

let rewrite t ~cls tab oid values =
  match Table.replace tab oid values with
  | Error e -> Error (Gaea_error.Storage_error e)
  | Ok () ->
    Events.emit t.bus (Events.Object_updated { cls; oid });
    Ok ()

let replace t ~cls oid values =
  let* tab = owned t ~cls oid in
  match values with
  | Error _ as refused -> refused
  | Ok values -> rewrite t ~cls tab oid values

let update t ~cls oid pairs =
  let* tab = owned t ~cls oid in
  let values, extra = place (Table.descriptor tab) pairs in
  if extra <> [] then unknown_attrs cls extra
  else
    match Table.get tab oid with
    | None ->
      Error
        (Gaea_error.Storage_error
           (Printf.sprintf "update of %s #%d: tuple missing" cls oid))
    | Some old ->
      Array.iteri
        (fun i v -> if v == unset then values.(i) <- Tuple.get old i)
        values;
      rewrite t ~cls tab oid values

let delete t ~cls oid =
  let* tab = owned t ~cls oid in
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
