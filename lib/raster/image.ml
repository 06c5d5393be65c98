type t = {
  nrow : int;
  ncol : int;
  ptype : Pixel.t;
  label : string;
  data : float array;
}

let check_dims nrow ncol =
  if nrow <= 0 || ncol <= 0 then
    invalid_arg (Printf.sprintf "Image: non-positive dims %dx%d" nrow ncol);
  (* the product must neither wrap around nor exceed an array's length *)
  if nrow > Sys.max_array_length / ncol then
    invalid_arg
      (Printf.sprintf "Image: dims %dx%d exceed the largest image" nrow ncol)

let init ?(label = "") ~nrow ~ncol ptype f =
  check_dims nrow ncol;
  let data =
    Array.init (nrow * ncol) (fun i ->
        Pixel.quantize ptype (f (i / ncol) (i mod ncol)))
  in
  { nrow; ncol; ptype; label; data }

let img_nrow t = t.nrow
let img_ncol t = t.ncol
let img_type t = t.ptype
let img_label t = t.label
let img_size_eq a b = a.nrow = b.nrow && a.ncol = b.ncol
let size t = t.nrow * t.ncol

let check_bounds t r c =
  if r < 0 || r >= t.nrow || c < 0 || c >= t.ncol then
    invalid_arg
      (Printf.sprintf "Image: pixel (%d,%d) outside %dx%d" r c t.nrow t.ncol)

let get t r c =
  check_bounds t r c;
  t.data.((r * t.ncol) + c)

let set t r c v =
  check_bounds t r c;
  t.data.((r * t.ncol) + c) <- Pixel.quantize t.ptype v

let get_linear t i =
  if i < 0 || i >= Array.length t.data then
    invalid_arg (Printf.sprintf "Image.get_linear: index %d" i);
  t.data.(i)

let map ?(label = "") ?ptype f t =
  let ptype = Option.value ptype ~default:t.ptype in
  { nrow = t.nrow; ncol = t.ncol; ptype; label;
    data = Array.map (fun v -> Pixel.quantize ptype (f v)) t.data }

let map2 ?(label = "") ?ptype f a b =
  if not (img_size_eq a b) then
    invalid_arg
      (Printf.sprintf "Image.map2: size mismatch %dx%d vs %dx%d" a.nrow
         a.ncol b.nrow b.ncol);
  let ptype = Option.value ptype ~default:a.ptype in
  { nrow = a.nrow; ncol = a.ncol; ptype; label;
    data =
      Array.init (Array.length a.data) (fun i ->
          Pixel.quantize ptype (f a.data.(i) b.data.(i))) }

(* chunks are disjoint and laid out independently of the pool size *)
let init_chunks ?(label = "") ~nrow ~ncol ptype body =
  check_dims nrow ncol;
  let n = nrow * ncol in
  let data = Array.make n 0. in
  Gaea_par.Pool.parallel_for_ranges ~lo:0 ~hi:n (fun lo hi ->
      body data lo hi);
  { nrow; ncol; ptype; label; data }

let fold f acc t = Array.fold_left f acc t.data
let iter f t = Array.iter f t.data

(* NaN pixels (cloud holes) compare equal regardless of payload bits *)
let float_bits v =
  if Float.is_nan v then 0x7ff8000000000000L else Int64.bits_of_float v

let equal a b =
  a.nrow = b.nrow && a.ncol = b.ncol
  && Pixel.equal a.ptype b.ptype
  && Array.for_all2 (fun x y -> float_bits x = float_bits y) a.data b.data

(* FNV-1a over dims, pixel type and the raw float bits.  The 64-bit
   state lives in two untagged 32-bit int limbs (hi, lo) so the loop
   allocates no boxed Int64 per pixel; the limb arithmetic reproduces
   64-bit [state <- (state lxor v) * 0x100000001b3] exactly (the prime
   is 2^40 + 0x1b3, so the hi limb gets [xhi*0x1b3 + carry + xlo<<8]).
   Values are unchanged from the boxed-Int64 implementation — a parity
   test in test_raster.ml checks against it. *)
let content_hash t =
  let hi = ref 0xcbf29ce4 and lo = ref 0x84222325 in
  let feed vhi vlo =
    let xhi = !hi lxor vhi and xlo = !lo lxor vlo in
    let m = xlo * 0x1b3 in
    lo := m land 0xFFFFFFFF;
    hi :=
      ((xhi * 0x1b3) + (m lsr 32) + ((xlo land 0xFFFFFF) lsl 8))
      land 0xFFFFFFFF
  in
  let feed_int v = feed ((v asr 32) land 0xFFFFFFFF) (v land 0xFFFFFFFF) in
  feed_int t.nrow;
  feed_int t.ncol;
  feed_int (Pixel.size_bytes t.ptype);
  Array.iter
    (fun v ->
      if Float.is_nan v then feed 0x7ff80000 0
      else begin
        (* low 63 bits via to_int; the sign bit read off the float *)
        let lo63 = Int64.to_int (Int64.bits_of_float v) in
        let vhi =
          ((lo63 lsr 32) land 0x7FFFFFFF)
          lor (if v < 0. || (v = 0. && 1. /. v < 0.) then 0x80000000 else 0)
        in
        feed vhi (lo63 land 0xFFFFFFFF)
      end)
    t.data;
  (!hi lsl 30) lor (!lo lsr 2)

(* NaN pixels (cloud holes) are skipped; an all-NaN image yields
   (infinity, neg_infinity) *)
let min_max t =
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to Array.length t.data - 1 do
    let v = Array.unsafe_get t.data i in
    if not (Float.is_nan v) then begin
      if v < !lo then lo := v;
      if v > !hi then hi := v
    end
  done;
  (!lo, !hi)

let to_list t = Array.to_list t.data

let of_array ?(label = "") ~nrow ~ncol ptype data =
  check_dims nrow ncol;
  if Array.length data <> nrow * ncol then
    invalid_arg
      (Printf.sprintf "Image.of_array: %d values for %dx%d image"
         (Array.length data) nrow ncol);
  { nrow; ncol; ptype; label;
    data = Array.map (Pixel.quantize ptype) data }

let unsafe_data t = t.data

let unsafe_of_array ?(label = "") ~nrow ~ncol ptype data =
  check_dims nrow ncol;
  if Array.length data <> nrow * ncol then
    invalid_arg
      (Printf.sprintf "Image.unsafe_of_array: %d values for %dx%d image"
         (Array.length data) nrow ncol);
  { nrow; ncol; ptype; label; data }
