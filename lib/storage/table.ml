module Value = Gaea_adt.Value

type t = {
  name : string;
  desc : Tuple.descriptor;
  heap : Heap.t;
  btree_indexes : (string, Index_btree.t) Hashtbl.t;
  mutable used_index : bool;
}

let create ~name desc =
  { name;
    desc;
    heap = Heap.create ();
    btree_indexes = Hashtbl.create 4;
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

let index_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> ignore (Index_btree.add idx v oid)
      | None -> ())
    t.btree_indexes

let unindex_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> Index_btree.remove idx v oid
      | None -> ())
    t.btree_indexes

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

let lookup_range t attr ?lo ?hi () =
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

let last_access_used_index t = t.used_index
