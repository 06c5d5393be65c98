module Gaea_error = Gaea_core.Gaea_error
module Value = Gaea_adt.Value
module Kernel = Gaea_core.Kernel
module Concept = Gaea_core.Concept
module Derivation = Gaea_core.Derivation
module Schema = Gaea_core.Schema
module Table = Gaea_storage.Table
module Backchain = Gaea_petri.Backchain
module Abstime = Gaea_geo.Abstime

let resolve_source k source =
  match Kernel.find_class k source with
  | Some _ -> Ok [ source ]
  | None ->
    let concepts = Kernel.concepts k in
    if Concept.mem concepts source then begin
      match Concept.classes_of concepts source with
      | [] -> Gaea_error.err (Printf.sprintf "concept %s has no member classes" source)
      | classes -> Ok classes
    end
    else Gaea_error.err (Printf.sprintf "unknown class or concept %s" source)

(* Selectivity of an equality probe: one over the distinct keys of the
   B-tree it would probe, 0.1 while the index is empty.  The B-tree
   counts keys under Vorder, so 0.0 and -0.0 (and an int key beside an
   equal float in a float index, which only a raw [Table.insert_tuple]
   can store) are one key, where a count of distinct [Value.equal]
   values would see two. *)
let eq_selectivity tab attr =
  Option.map
    (fun n -> if n = 0 then 0.1 else 1. /. float_of_int n)
    (Table.btree_cardinality tab attr)

(* pick the best indexable predicate on the (first) class; reads only
   index sizes, never the rows.  Equal selectivities keep predicate
   order, so the earlier of AT and OVERLAPS wins. *)
let choose_path k cls preds =
  match Kernel.class_table k cls with
  | None -> (Plan.Full_scan, preds, 1.0)
  | Some tab ->
    let candidates =
      List.filter_map
        (fun pred ->
          match pred with
          | Ast.P_compare (attr, Ast.C_eq, v) ->
            Option.map
              (fun sel -> (pred, Plan.Index_eq (attr, v), sel))
              (eq_selectivity tab attr)
          | Ast.P_compare (attr, (Ast.C_lt | Ast.C_le), v)
            when Table.has_btree_index tab attr ->
            Some (pred, Plan.Index_range (attr, None, Some v), 0.3)
          | Ast.P_compare (attr, (Ast.C_gt | Ast.C_ge), v)
            when Table.has_btree_index tab attr ->
            Some (pred, Plan.Index_range (attr, Some v, None), 0.3)
          | Ast.P_at (attr, t) when Table.has_btree_index tab attr ->
            let lo, hi = Abstime.day_window t in
            Some
              ( pred,
                Plan.Index_range
                  (attr, Some (Value.abstime lo), Some (Value.abstime hi)),
                0.1 )
          | Ast.P_overlaps (attr, b) when Table.has_box_index tab attr ->
            (* the window probe; a lower and upper bound that are the
               same box *)
            let w = Some (Value.box b) in
            Some (pred, Plan.Index_range (attr, w, w), 0.1)
          | _ -> None)
        preds
    in
    (match
       List.sort (fun (_, _, s1) (_, _, s2) -> Float.compare s1 s2) candidates
     with
     | (chosen, path, sel) :: _ ->
       (* B-tree ranges are closed, so a strict bound stays residual to
          drop the rows equal to it *)
       let strict =
         match chosen with
         | Ast.P_compare (_, (Ast.C_lt | Ast.C_gt), _) -> true
         | _ -> false
       in
       let residual = List.filter (fun p -> strict || p != chosen) preds in
       (path, residual, sel)
     | [] -> (Plan.Full_scan, preds, 1.0))

let plan_select k (s : Ast.select) =
  match resolve_source k s.Ast.source with
  | Error _ as e -> e
  | Ok classes ->
    let first = List.hd classes in
    let path, residual, sel = choose_path k first s.Ast.where_ in
    let total_rows =
      List.fold_left
        (fun acc cls -> acc + Kernel.count_objects k cls)
        0 classes
    in
    let est_rows = float_of_int total_rows *. sel in
    let est_cost =
      match path with
      | Plan.Full_scan -> float_of_int total_rows
      | Plan.Index_eq _ | Plan.Index_range _ ->
        (* index probe + qualifying rows; other classes still scan *)
        est_rows +. 1.
        +. float_of_int (total_rows - Kernel.count_objects k first)
    in
    Ok { Plan.classes; path; residual; est_rows; est_cost }

(* distinct timestamps, read off the B-tree every class keeps on its
   temporal attribute *)
let count_snapshots k cls =
  match Kernel.find_class k cls, Kernel.class_table k cls with
  | Some { Schema.temporal_attr = Some tattr; _ }, Some tab ->
    Option.value ~default:0 (Table.btree_cardinality tab tattr)
  | _ -> 0

let plan_materialize k ?(need = 1) ?at cls =
  match Kernel.find_class k cls with
  | None -> Plan.Impossible (Printf.sprintf "unknown class %s" cls)
  | Some _ ->
    let stored = Kernel.count_objects k cls in
    if stored >= need && at = None then Plan.Stored stored
    else begin
      let interpolation =
        match at with
        | Some _ ->
          let snaps = count_snapshots k cls in
          if snaps >= 2 then Some (Plan.Interpolate { snapshots = snaps })
          else None
        | None -> None
      in
      match interpolation with
      | Some p -> p
      | None ->
        (match Derivation.derivation_plan k ~need cls with
         | Some plan ->
           Plan.Derive
             { firings = Backchain.cost plan; depth = Backchain.depth plan }
         | None ->
           if stored >= need then Plan.Stored stored
           else
             Plan.Impossible
               (Printf.sprintf "%s not derivable from current data" cls))
    end
