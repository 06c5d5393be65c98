type t = { xmin : float; ymin : float; xmax : float; ymax : float }

let make_checked ~xmin ~ymin ~xmax ~ymax =
  let nonfinite =
    if not (Float.is_finite xmin) then "xmin"
    else if not (Float.is_finite ymin) then "ymin"
    else if not (Float.is_finite xmax) then "xmax"
    else if not (Float.is_finite ymax) then "ymax"
    else ""
  in
  match nonfinite with
  | "" ->
    if xmax < xmin || ymax < ymin then
      Error
        (Printf.sprintf "Box.make: inverted box (%g,%g,%g,%g)" xmin ymin xmax
           ymax)
    else Ok { xmin; ymin; xmax; ymax }
  | name -> Error (Printf.sprintf "Box.make: %s is not finite" name)

let make ~xmin ~ymin ~xmax ~ymax =
  match make_checked ~xmin ~ymin ~xmax ~ymax with
  | Ok t -> t
  | Error m -> invalid_arg m

let xmin t = t.xmin
let ymin t = t.ymin
let xmax t = t.xmax
let ymax t = t.ymax
let width t = t.xmax -. t.xmin
let height t = t.ymax -. t.ymin
let area t = width t *. height t

let contains ~outer ~inner =
  outer.xmin <= inner.xmin && inner.xmax <= outer.xmax
  && outer.ymin <= inner.ymin && inner.ymax <= outer.ymax

let overlaps a b =
  a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax && b.ymin <= a.ymax

let intersection a b =
  if overlaps a b then
    Some
      { xmin = Float.max a.xmin b.xmin;
        ymin = Float.max a.ymin b.ymin;
        xmax = Float.min a.xmax b.xmax;
        ymax = Float.min a.ymax b.ymax }
  else None

let hull a b =
  { xmin = Float.min a.xmin b.xmin;
    ymin = Float.min a.ymin b.ymin;
    xmax = Float.max a.xmax b.xmax;
    ymax = Float.max a.ymax b.ymax }

let equal a b =
  a.xmin = b.xmin && a.ymin = b.ymin && a.xmax = b.xmax && a.ymax = b.ymax

let to_string t =
  Printf.sprintf "(%g,%g,%g,%g)" t.xmin t.ymin t.xmax t.ymax
