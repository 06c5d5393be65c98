type t =
  | Char
  | Int2
  | Int4
  | Float4
  | Float8

let size_bytes = function
  | Char -> 1
  | Int2 -> 2
  | Int4 | Float4 -> 4
  | Float8 -> 8

let min_value = function
  | Char -> 0.
  | Int2 -> -32768.
  | Int4 -> -2147483648.
  | Float4 | Float8 -> neg_infinity

let max_value = function
  | Char -> 255.
  | Int2 -> 32767.
  | Int4 -> 2147483647.
  | Float4 | Float8 -> infinity

let quantize t v =
  match t with
  | Float8 -> v
  | Float4 -> Int32.float_of_bits (Int32.bits_of_float v)
  | Char | Int2 | Int4 ->
    if Float.is_nan v then 0.
    else
      let lo = min_value t and hi = max_value t in
      let r = Float.round v in
      if r < lo then lo else if r > hi then hi else r

let to_string = function
  | Char -> "char"
  | Int2 -> "int2"
  | Int4 -> "int4"
  | Float4 -> "float4"
  | Float8 -> "float8"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "char" -> Some Char
  | "int2" -> Some Int2
  | "int4" -> Some Int4
  | "float4" -> Some Float4
  | "float8" -> Some Float8
  | _ -> None

let equal a b =
  match a, b with
  | Char, Char | Int2, Int2 | Int4, Int4 | Float4, Float4 | Float8, Float8 ->
    true
  | (Char | Int2 | Int4 | Float4 | Float8), _ -> false
