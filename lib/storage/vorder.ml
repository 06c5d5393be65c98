module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

let orderable = function
  | Vtype.Int | Vtype.Float | Vtype.String | Vtype.Bool | Vtype.Abstime ->
    true
  | Vtype.Composite | Vtype.Image | Vtype.Matrix | Vtype.Vector | Vtype.Box
  | Vtype.Interval | Vtype.Setof _ | Vtype.Any -> false

(* no comparison below returns it: they all give -1, 0 or 1 *)
let unordered = min_int

let order a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Int.compare x y
  | Value.VFloat x, Value.VFloat y -> Float.compare x y
  | Value.VInt x, Value.VFloat y -> Float.compare (float_of_int x) y
  | Value.VFloat x, Value.VInt y -> Float.compare x (float_of_int y)
  | Value.VString x, Value.VString y -> String.compare x y
  | Value.VBool x, Value.VBool y -> Bool.compare x y
  | Value.VAbstime x, Value.VAbstime y -> Gaea_geo.Abstime.compare x y
  | _ -> unordered

let not_ordered a b =
  Printf.sprintf "values of types %s and %s are not ordered"
    (Vtype.to_string (Value.type_of a))
    (Vtype.to_string (Value.type_of b))

let compare a b =
  let c = order a b in
  if c = unordered then Error (not_ordered a b) else Ok c

let compare_exn a b =
  let c = order a b in
  if c = unordered then invalid_arg ("Vorder.compare: " ^ not_ordered a b)
  else c
