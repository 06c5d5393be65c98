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
       when Vorder.order (Tuple.get a bt_pos) (Tuple.get b bt_pos) = 0 ->
       ()
     | _ ->
       (match before with
        | Some a -> Index_btree.remove bt (Tuple.get a bt_pos) oid
        | None -> ());
       (match after with
        | Some b -> ignore (Index_btree.add bt (Tuple.get b bt_pos) oid)
        | None -> ()));
    reindex_btrees oid ~before ~after rest

(* ... and the grid, which holds [oid]'s heap slot [at] *)
let reindex t oid at ~before ~after =
  reindex_btrees oid ~before ~after t.btree_indexes;
  match t.box_index with
  | Some { grid = Some grid; b_pos; _ } ->
    let box tuple = Option.bind tuple (fun tu -> box_at tu b_pos) in
    (match box before, box after with
     | Some a, Some b when Box.equal a b -> ()
     | a, b ->
       Option.iter (Index_box.remove grid at) a;
       Option.iter (Index_box.add grid at) b)
  | _ -> ()

let insert_tuple t oid tuple =
  match Heap.insert t.heap oid tuple with
  | Error _ as e -> e
  | Ok () ->
    (* an insert takes the heap's last slot *)
    reindex t oid (Heap.allocated t.heap - 1) ~before:None ~after:(Some tuple);
    Ok ()

let insert t oid values =
  match Tuple.of_array t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple -> insert_tuple t oid tuple

let replace t oid values =
  match Tuple.of_array t.desc values with
  | Error e -> Error (t.name ^ ": " ^ e)
  | Ok tuple ->
    let at = Heap.slot t.heap oid in
    if at < 0 then
      Error (Printf.sprintf "%s: replace of unknown oid %d" t.name oid)
    else begin
      let _, old = Heap.row t.heap at in
      match Heap.replace t.heap oid tuple with
      | Error e -> Error (t.name ^ ": " ^ e)
      | Ok () ->
        reindex t oid at ~before:(Some old) ~after:(Some tuple);
        Ok ()
    end

let delete t oid =
  let at = Heap.slot t.heap oid in
  if at < 0 then false
  else begin
    let _, tuple = Heap.row t.heap at and used = Heap.allocated t.heap in
    ignore (Heap.delete t.heap oid);
    reindex t oid at ~before:(Some tuple) ~after:None;
    (* a delete that compacts the heap renumbers its slots: the next
       probe rebuilds the grid, O(1) amortized over the deletes *)
    if Heap.allocated t.heap < used then
      Option.iter (fun bi -> bi.grid <- None) t.box_index;
    true
  end

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

(* the live rows of [oids], in their order *)
let[@tail_mod_cons] rec materialize heap = function
  | [] -> []
  | oid :: rest ->
    let at = Heap.slot heap oid in
    if at < 0 then materialize heap rest
    else Heap.row heap at :: materialize heap rest

let lookup_eq t attr value =
  match btree t attr with
  | Some idx -> materialize t.heap (Index_btree.find idx value)
  | None ->
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       select t (fun _ tuple -> Value.equal (Tuple.get tuple i) value))

let lookup_ordered t attr ?lo ?hi () =
  match btree t attr with
  | Some idx ->
    List.rev
      (Index_btree.fold_range idx ?lo ?hi ~init:[] (fun rows oid ->
           let at = Heap.slot t.heap oid in
           if at < 0 then rows else Heap.row t.heap at :: rows))
  | None ->
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       let ge v bound =
         match bound with
         | None -> true
         | Some b ->
           let c = Vorder.order v b in
           c <> Vorder.unordered && c >= 0
       in
       let le v bound =
         match bound with
         | None -> true
         | Some b ->
           let c = Vorder.order v b in
           c <> Vorder.unordered && c <= 0
       in
       let rows =
         select t (fun _ tuple ->
             let v = Tuple.get tuple i in
             ge v lo && le v hi)
       in
       (* deliver in key order like the index would *)
       List.sort
         (fun (_, t1) (_, t2) ->
           let c = Vorder.order (Tuple.get t1 i) (Tuple.get t2 i) in
           if c = Vorder.unordered then 0 else c)
         rows)

let grid_of t bi =
  match bi.grid with
  | Some grid -> grid
  | None ->
    let grid = Index_box.create () in
    Heap.iter_slots t.heap (fun at tuple ->
        Option.iter (Index_box.add grid at) (box_at tuple bi.b_pos));
    bi.grid <- Some grid;
    grid

(* ascending in place: an insertion sort for the few slots a window
   usually finds, where [Array.sort]'s compare calls cost more than the
   probe; [Array.sort] past them *)
let sort_slots a =
  if Array.length a > 32 then Array.sort Int.compare a
  else
    for i = 1 to Array.length a - 1 do
      let v = a.(i) and j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done

(* Rows, in heap order, whose box overlaps every window: from the
   window index when the attribute has one, else from a scan.  The
   index yields the heap slots whose box overlaps the first window;
   only a window that differs from it is tested again on the tuple. *)
let lookup_windows t attr pos windows =
  let qualifies windows tuple =
    match box_at tuple pos with
    | Some b -> List.for_all (Box.overlaps b) windows
    | None -> false
  in
  match t.box_index, windows with
  | Some bi, probe :: others when bi.b_attr = attr ->
    let others = List.filter (fun w -> not (Box.equal w probe)) others in
    let found = ref [] in
    Index_box.iter_overlapping (grid_of t bi) probe (fun at ->
        if others = [] || qualifies others (snd (Heap.row t.heap at)) then
          found := at :: !found);
    let slots = Array.of_list !found in
    sort_slots slots;
    Array.fold_right (fun at rows -> Heap.row t.heap at :: rows) slots []
  | _ -> select t (fun _ tuple -> qualifies windows tuple)

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
