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

(* A B-tree index beside the column position of its key *)
type btree_index = {
  bt_attr : string;
  bt_pos : int;
  bt : Index_btree.t;
}

type t = {
  name : string;
  desc : Tuple.descriptor;
  heap : Heap.t;
  mutable btree_indexes : btree_index list;
  mutable box_index : box_index option;
}

let create ~name desc =
  { name; desc; heap = Heap.create (); btree_indexes = []; box_index = None }

let name t = t.name
let descriptor t = t.desc
let row_count t = Heap.length t.heap

let attr_values t tuple attr =
  match Tuple.attr_index t.desc attr with
  | None -> None
  | Some i -> Some (Tuple.get tuple i)

let btree t attr =
  List.find_map
    (fun bi -> if bi.bt_attr = attr then Some bi.bt else None)
    t.btree_indexes

let create_btree_index t attr =
  match Tuple.attr_index t.desc attr, Tuple.attr_type t.desc attr with
  | None, _ | _, None -> Error (Printf.sprintf "%s: no attribute %s" t.name attr)
  | Some i, Some ty ->
    if btree t attr <> None then
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
           t.btree_indexes <-
             t.btree_indexes @ [ { bt_attr = attr; bt_pos = i; bt = idx } ];
           Ok ())
    end

let has_btree_index t attr = btree t attr <> None

let btree_cardinality t attr = Option.map Index_btree.cardinality (btree t attr)

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

(* move [oid] from the keys of [before] to those of [after] (either may
   be absent), touching only the indexes whose key changed: an update of
   the pixels alone leaves the B-trees and the grid as they are *)
let rec reindex_btrees oid ~before ~after = function
  | [] -> ()
  | { bt_pos; bt; _ } :: rest ->
    (match before, after with
     | Some a, Some b
       when Vorder.compare (Tuple.get a bt_pos) (Tuple.get b bt_pos) = Ok 0 ->
       ()
     | _ ->
       (match before with
        | Some a -> Index_btree.remove bt (Tuple.get a bt_pos) oid
        | None -> ());
       (match after with
        | Some b -> ignore (Index_btree.add bt (Tuple.get b bt_pos) oid)
        | None -> ()));
    reindex_btrees oid ~before ~after rest

let reindex t oid ~before ~after =
  reindex_btrees oid ~before ~after t.btree_indexes;
  match t.box_index with
  | Some { grid = Some grid; b_pos; _ } ->
    let box tuple = Option.bind tuple (fun tu -> box_at tu b_pos) in
    (match box before, box after with
     | Some a, Some b when Box.equal a b -> ()
     | a, b ->
       Option.iter (Index_box.remove grid oid) a;
       Option.iter (Index_box.add grid oid) b)
  | _ -> ()

let insert_tuple t oid tuple =
  match Heap.insert t.heap oid tuple with
  | Error _ as e -> e
  | Ok () ->
    reindex t oid ~before:None ~after:(Some tuple);
    Ok ()

let insert t oid values =
  match Tuple.of_array t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple -> insert_tuple t oid tuple

let replace t oid values =
  match Tuple.of_array t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple ->
    (match Heap.get t.heap oid with
     | None -> Error (Printf.sprintf "%s: replace of unknown oid %d" t.name oid)
     | Some old ->
       (match Heap.replace t.heap oid tuple with
        | Error e -> Error (t.name ^ ": " ^ e)
        | Ok () ->
          reindex t oid ~before:(Some old) ~after:(Some tuple);
          Ok ()))

let delete t oid =
  match Heap.get t.heap oid with
  | None -> false
  | Some tuple ->
    let removed = Heap.delete t.heap oid in
    if removed then reindex t oid ~before:(Some tuple) ~after:None;
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
let oids_onto t n tail = Heap.oids_onto t.heap n tail

let select t pred =
  List.rev
    (fold t ~init:[] ~f:(fun acc oid tuple ->
         if pred oid tuple then (oid, tuple) :: acc else acc))

let materialize t oids =
  List.filter_map
    (fun oid -> Option.map (fun tu -> (oid, tu)) (get t oid))
    oids

let lookup_eq t attr value =
  match btree t attr with
  | Some idx -> materialize t (Index_btree.find idx value)
  | None ->
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       select t (fun _ tuple -> Value.equal (Tuple.get tuple i) value))

let lookup_ordered t attr ?lo ?hi () =
  match btree t attr with
  | Some idx -> materialize t (Index_btree.range idx ?lo ?hi ())
  | None ->
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
    Index_box.overlapping (grid_of t bi) probe
    |> List.filter_map (fun oid ->
           match Heap.locate t.heap oid with
           | Some (at, tuple) when qualifies tuple -> Some (at, (oid, tuple))
           | _ -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  | _ -> select t (fun _ tuple -> qualifies tuple)

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
