module Value = Gaea_adt.Value

type column_stats = {
  attr : string;
  n_distinct : int;
  n_null : int;
  min_value : Value.t option;
  max_value : Value.t option;
}

type table_stats = {
  table : string;
  n_rows : int;
  columns : column_stats list;
}

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.content_hash
end)

let analyze_table tab =
  let desc = Table.descriptor tab in
  let attrs = Tuple.attrs desc in
  let per_col =
    List.mapi
      (fun i (name, ty) -> (i, name, ty, VTbl.create 64, ref None, ref None))
      attrs
  in
  Table.scan tab (fun _ tuple ->
      List.iter
        (fun (i, _, _, distinct, vmin, vmax) ->
          let v = Tuple.get tuple i in
          if not (VTbl.mem distinct v) then VTbl.add distinct v ();
          if Vorder.orderable (Value.type_of v) then begin
            (match !vmin with
             | None -> vmin := Some v
             | Some m ->
               let c = Vorder.order v m in
               if c <> Vorder.unordered && c < 0 then vmin := Some v);
            match !vmax with
            | None -> vmax := Some v
            | Some m -> if Vorder.order v m > 0 then vmax := Some v
          end)
        per_col);
  { table = Table.name tab;
    n_rows = Table.row_count tab;
    columns =
      List.map
        (fun (_, name, _, distinct, vmin, vmax) ->
          { attr = name;
            n_distinct = VTbl.length distinct;
            n_null = 0;
            min_value = !vmin;
            max_value = !vmax })
        per_col }

let selectivity_eq stats attr =
  match List.find_opt (fun c -> c.attr = attr) stats.columns with
  | Some c when c.n_distinct > 0 -> 1. /. float_of_int c.n_distinct
  | _ -> 0.1

let pp fmt s =
  Format.fprintf fmt "@[<v>table %s: %d rows" s.table s.n_rows;
  List.iter
    (fun c ->
      Format.fprintf fmt "@   %s: %d distinct%s" c.attr c.n_distinct
        (match c.min_value, c.max_value with
         | Some lo, Some hi ->
           Printf.sprintf " [%s .. %s]" (Value.to_display lo)
             (Value.to_display hi)
         | _ -> ""))
    s.columns;
  Format.fprintf fmt "@]"
