module Pool = Gaea_par.Pool

(* Flat chunked loops: a partial per chunk (an image has at least one),
   combined in ascending chunk order from the first partial, not from a
   fresh 0., so a single-chunk image reproduces Image.fold's association
   exactly and a larger one gives the same bits at any pool size. *)
let combine partials =
  let acc = ref partials.(0) in
  for k = 1 to Array.length partials - 1 do
    acc := !acc +. partials.(k)
  done;
  !acc

let sum img =
  let data = Image.unsafe_data img in
  combine
    (Pool.map_chunks ~lo:0 ~hi:(Array.length data) (fun lo hi ->
         let acc = ref 0. in
         for i = lo to hi - 1 do
           acc := !acc +. Array.unsafe_get data i
         done;
         !acc))

let mean img = sum img /. float_of_int (Image.size img)

(* sample variance (n-1 denominator), 0 below 2 pixels *)
let variance img =
  let n = Image.size img in
  if n < 2 then 0.
  else begin
    let m = mean img in
    let data = Image.unsafe_data img in
    combine
      (Pool.map_chunks ~lo:0 ~hi:n (fun lo hi ->
           let acc = ref 0. in
           for i = lo to hi - 1 do
             let d = Array.unsafe_get data i -. m in
             acc := !acc +. (d *. d)
           done;
           !acc))
    /. float_of_int (n - 1)
  end

let stddev img = sqrt (variance img)

(* sequential flat loops, summing in pixel order *)
let rmse a b =
  if not (Image.img_size_eq a b) then
    invalid_arg "Imgstats.rmse: size mismatch";
  let xs = Image.unsafe_data a and ys = Image.unsafe_data b in
  let n = Array.length xs in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get xs i -. Array.unsafe_get ys i in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let agreement a b =
  if not (Image.img_size_eq a b) then
    invalid_arg "Imgstats.agreement: size mismatch";
  let xs = Image.unsafe_data a and ys = Image.unsafe_data b in
  let n = Array.length xs in
  let same = ref 0 in
  for i = 0 to n - 1 do
    (* IEEE equality: a NaN pixel agrees with nothing *)
    if (Array.unsafe_get xs i : float) = Array.unsafe_get ys i then incr same
  done;
  float_of_int !same /. float_of_int n
