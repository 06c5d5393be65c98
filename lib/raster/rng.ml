type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0
  else
    (* rejection sampling over 62 uniform bits to avoid modulo bias *)
    let mask = 0x3FFFFFFFFFFFFFFFL in
    let rec draw () =
      let v = Int64.to_int (Int64.logand (int64 t) mask) in
      let limit = (max_int / n) * n in
      if v < limit then v mod n else draw ()
    in
    draw ()

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let gaussian t =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  draw ()
