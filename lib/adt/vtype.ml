type t =
  | Int
  | Float
  | String
  | Bool
  | Image
  | Composite
  | Matrix
  | Vector
  | Box
  | Abstime
  | Interval
  | Setof of t
  | Any

let rec equal a b =
  match a, b with
  | Int, Int | Float, Float | String, String | Bool, Bool | Image, Image
  | Composite, Composite | Matrix, Matrix | Vector, Vector | Box, Box
  | Abstime, Abstime | Interval, Interval | Any, Any -> true
  | Setof x, Setof y -> equal x y
  | ( ( Int | Float | String | Bool | Image | Composite | Matrix | Vector
      | Box | Abstime | Interval | Setof _ | Any ), _ ) -> false

let rec matches ~expected ~actual =
  match expected, actual with
  | Any, _ -> true
  | Setof a, Setof b -> matches ~expected:a ~actual:b
  | _ -> equal expected actual

let rec base = function
  | Setof t -> base t
  | t -> t

let rec to_string = function
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Bool -> "bool"
  | Image -> "image"
  | Composite -> "composite"
  | Matrix -> "matrix"
  | Vector -> "vector"
  | Box -> "box"
  | Abstime -> "abstime"
  | Interval -> "interval"
  | Setof t -> "setof " ^ to_string t
  | Any -> "any"

let rec of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  if String.length s > 6 && String.sub s 0 6 = "setof " then
    Option.map (fun t -> Setof t)
      (of_string (String.sub s 6 (String.length s - 6)))
  else
    match s with
    | "int" | "int4" | "int2" -> Some Int
    | "float" | "float4" | "float8" -> Some Float
    | "string" | "char16" | "text" -> Some String
    | "bool" | "boolean" -> Some Bool
    | "image" -> Some Image
    | "composite" -> Some Composite
    | "matrix" -> Some Matrix
    | "vector" -> Some Vector
    | "box" -> Some Box
    | "abstime" -> Some Abstime
    | "interval" -> Some Interval
    | "any" -> Some Any
    | _ -> None
