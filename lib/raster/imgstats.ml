(* Fused closure-free loops; same accumulation association as the
   Image.fold versions for single-chunk images, chunk-deterministic
   (identical at any pool size) beyond that. *)
let sum = Kernelized.sum
let mean = Kernelized.mean
let variance img = snd (Kernelized.mean_var img)
let stddev img = sqrt (variance img)

let rmse a b =
  if not (Image.img_size_eq a b) then
    invalid_arg "Imgstats.rmse: size mismatch";
  let n = Image.size a in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = Image.get_linear a i -. Image.get_linear b i in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let agreement a b =
  if not (Image.img_size_eq a b) then
    invalid_arg "Imgstats.agreement: size mismatch";
  let n = Image.size a in
  let same = ref 0 in
  for i = 0 to n - 1 do
    if Image.get_linear a i = Image.get_linear b i then incr same
  done;
  float_of_int !same /. float_of_int n
