module Value = Gaea_adt.Value

type access_path =
  | Index_eq of string * Value.t
  | Index_range of string * Value.t option * Value.t option
  | Full_scan

type select_plan = {
  classes : string list;
  path : access_path;
  residual : Ast.predicate list;
  est_rows : float;
  est_cost : float;
}

type materialize_plan =
  | Stored of int
  | Interpolate of { snapshots : int }
  | Derive of { firings : int; depth : int }
  | Impossible of string

let pp_access_path fmt = function
  | Index_eq (attr, v) ->
    Format.fprintf fmt "index-eq(%s = %s)" attr (Value.to_display v)
  | Index_range (attr, Some (Value.VBox w), Some (Value.VBox w'))
    when Gaea_geo.Box.equal w w' ->
    Format.fprintf fmt "index-window(%s overlaps %s)" attr
      (Gaea_geo.Box.to_string w)
  | Index_range (attr, lo, hi) ->
    Format.fprintf fmt "index-range(%s in [%s, %s])" attr
      (match lo with Some v -> Value.to_display v | None -> "-inf")
      (match hi with Some v -> Value.to_display v | None -> "+inf")
  | Full_scan -> Format.fprintf fmt "full-scan"

let pp_select_plan fmt p =
  Format.fprintf fmt "scan %s via %a (%d residual predicate(s), est %.1f rows, cost %.1f)"
    (String.concat "+" p.classes)
    pp_access_path p.path
    (List.length p.residual)
    p.est_rows p.est_cost

let pp_materialize_plan fmt = function
  | Stored n -> Format.fprintf fmt "retrieve (%d stored)" n
  | Interpolate { snapshots } ->
    Format.fprintf fmt "interpolate (from %d snapshots)" snapshots
  | Derive { firings; depth } ->
    Format.fprintf fmt "derive (%d firing(s), depth %d)" firings depth
  | Impossible why -> Format.fprintf fmt "impossible: %s" why

let materialize_cost ~pixels_per_object = function
  | Stored _ -> 1.
  | Interpolate _ -> pixels_per_object
  | Derive { firings; _ } -> float_of_int firings *. pixels_per_object
  | Impossible _ -> infinity
