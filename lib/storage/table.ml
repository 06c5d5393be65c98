module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box

(* The window index on a box attribute: declared up front, built from
   the heap by the first probe, maintained after that. *)
type box_index = {
  b_attr : string;
  b_pos : int;
  mutable grid : Index_box.t option;
}

type t = {
  name : string;
  desc : Tuple.descriptor;
  heap : Heap.t;
  btree_indexes : (string, Index_btree.t) Hashtbl.t;
  mutable box_index : box_index option;
  mutable used_index : bool;
}

let create ~name desc =
  { name;
    desc;
    heap = Heap.create ();
    btree_indexes = Hashtbl.create 4;
    box_index = None;
    used_index = false }

let name t = t.name
let descriptor t = t.desc
let row_count t = Heap.length t.heap

let attr_values t tuple attr =
  match Tuple.attr_index t.desc attr with
  | None -> None
  | Some i -> Some (Tuple.get tuple i)

let create_btree_index t attr =
  match Tuple.attr_index t.desc attr, Tuple.attr_type t.desc attr with
  | None, _ | _, None -> Error (Printf.sprintf "%s: no attribute %s" t.name attr)
  | Some i, Some ty ->
    if Hashtbl.mem t.btree_indexes attr then
      Error (Printf.sprintf "%s: btree index on %s exists" t.name attr)
    else begin
      match Index_btree.create ty with
      | Error _ as e -> e
      | Ok idx ->
        let err = ref None in
        Heap.scan t.heap (fun oid tuple ->
            if !err = None then
              match Index_btree.add idx (Tuple.get tuple i) oid with
              | Ok () -> ()
              | Error e -> err := Some e);
        (match !err with
         | Some e -> Error e
         | None ->
           Hashtbl.add t.btree_indexes attr idx;
           Ok ())
    end

let has_btree_index t attr = Hashtbl.mem t.btree_indexes attr

let btree_cardinality t attr =
  Option.map Index_btree.cardinality (Hashtbl.find_opt t.btree_indexes attr)

let create_box_index t attr =
  match Tuple.attr_index t.desc attr, Tuple.attr_type t.desc attr with
  | Some b_pos, Some Vtype.Box ->
    if t.box_index <> None then
      Error (Printf.sprintf "%s: box index exists" t.name)
    else begin
      t.box_index <- Some { b_attr = attr; b_pos; grid = None };
      Ok ()
    end
  | Some _, Some ty ->
    Error
      (Printf.sprintf "%s: box index on %s of type %s" t.name attr
         (Vtype.to_string ty))
  | _ -> Error (Printf.sprintf "%s: no attribute %s" t.name attr)

let has_box_index t attr =
  match t.box_index with Some bi -> bi.b_attr = attr | None -> false

let box_at tuple pos =
  match Tuple.get tuple pos with Value.VBox b -> Some b | _ -> None

(* the built grid of the box index, if the table has one *)
let with_grid t f =
  match t.box_index with
  | Some { grid = Some grid; b_pos; _ } -> f grid b_pos
  | _ -> ()

let index_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> ignore (Index_btree.add idx v oid)
      | None -> ())
    t.btree_indexes;
  with_grid t (fun grid pos ->
      Option.iter (Index_box.add grid oid) (box_at tuple pos))

let unindex_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> Index_btree.remove idx v oid
      | None -> ())
    t.btree_indexes;
  with_grid t (fun grid pos ->
      Option.iter (Index_box.remove grid oid) (box_at tuple pos))

let insert_tuple t oid tuple =
  match Heap.insert t.heap oid tuple with
  | Error _ as e -> e
  | Ok () ->
    index_tuple t oid tuple;
    Ok ()

let insert t oid values =
  match Tuple.make t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple -> insert_tuple t oid tuple

let replace t oid values =
  match Tuple.make t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple ->
    (match Heap.get t.heap oid with
     | None -> Error (Printf.sprintf "%s: replace of unknown oid %d" t.name oid)
     | Some old ->
       (match Heap.replace t.heap oid tuple with
        | Error e -> Error (t.name ^ ": " ^ e)
        | Ok () ->
          unindex_tuple t oid old;
          index_tuple t oid tuple;
          Ok ()))

let delete t oid =
  match Heap.get t.heap oid with
  | None -> false
  | Some tuple ->
    let removed = Heap.delete t.heap oid in
    if removed then unindex_tuple t oid tuple;
    removed

let get t oid = Heap.get t.heap oid

let get_attr t oid attr =
  match get t oid with
  | None -> None
  | Some tuple -> attr_values t tuple attr

let scan t f = Heap.scan t.heap f
let fold t ~init ~f = Heap.fold t.heap ~init ~f
let to_seq t = Heap.to_seq t.heap
let oids t n = Heap.oids t.heap n
let to_list t = Heap.to_list t.heap

let select t pred =
  List.rev
    (fold t ~init:[] ~f:(fun acc oid tuple ->
         if pred oid tuple then (oid, tuple) :: acc else acc))

let materialize t oids =
  List.filter_map
    (fun oid -> Option.map (fun tu -> (oid, tu)) (get t oid))
    oids

let lookup_eq t attr value =
  match Hashtbl.find_opt t.btree_indexes attr with
  | Some idx ->
    t.used_index <- true;
    materialize t (Index_btree.find idx value)
  | None ->
    t.used_index <- false;
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       select t (fun _ tuple -> Value.equal (Tuple.get tuple i) value))

let lookup_ordered t attr ?lo ?hi () =
  match Hashtbl.find_opt t.btree_indexes attr with
  | Some idx ->
    t.used_index <- true;
    materialize t (Index_btree.range idx ?lo ?hi ())
  | None ->
    t.used_index <- false;
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       let ge v bound =
         match bound with
         | None -> true
         | Some b ->
           (match Vorder.compare v b with Ok c -> c >= 0 | Error _ -> false)
       in
       let le v bound =
         match bound with
         | None -> true
         | Some b ->
           (match Vorder.compare v b with Ok c -> c <= 0 | Error _ -> false)
       in
       let rows =
         select t (fun _ tuple ->
             let v = Tuple.get tuple i in
             ge v lo && le v hi)
       in
       (* deliver in key order like the index would *)
       List.sort
         (fun (_, t1) (_, t2) ->
           match Vorder.compare (Tuple.get t1 i) (Tuple.get t2 i) with
           | Ok c -> c
           | Error _ -> 0)
         rows)

let grid_of t bi =
  match bi.grid with
  | Some grid -> grid
  | None ->
    let grid = Index_box.create () in
    Heap.scan t.heap (fun oid tuple ->
        Option.iter (Index_box.add grid oid) (box_at tuple bi.b_pos));
    bi.grid <- Some grid;
    grid

(* Rows, in heap order, whose box overlaps every window: from the
   window index when the attribute has one, else from a scan. *)
let lookup_windows t attr pos windows =
  let qualifies tuple =
    match box_at tuple pos with
    | Some b -> List.for_all (Box.overlaps b) windows
    | None -> false
  in
  match t.box_index, windows with
  | Some bi, probe :: _ when bi.b_attr = attr ->
    t.used_index <- true;
    Index_box.overlapping (grid_of t bi) probe
    |> List.filter_map (fun oid ->
           match Heap.locate t.heap oid with
           | Some (at, tuple) when qualifies tuple -> Some (at, (oid, tuple))
           | _ -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  | _ ->
    t.used_index <- false;
    select t (fun _ tuple -> qualifies tuple)

let lookup_range t attr ?lo ?hi () =
  match Tuple.attr_index t.desc attr, Tuple.attr_type t.desc attr with
  | Some pos, Some Vtype.Box ->
    let bounds = List.filter_map Fun.id [ lo; hi ] in
    let windows =
      List.filter_map (function Value.VBox b -> Some b | _ -> None) bounds
    in
    (* a bound that is not a box matches nothing, as in a B-tree *)
    if List.length windows < List.length bounds then []
    else lookup_windows t attr pos windows
  | _ -> lookup_ordered t attr ?lo ?hi ()

let last_access_used_index t = t.used_index
