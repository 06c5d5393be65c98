let temporal_linear ~at (t1, img1) (t2, img2) =
  if not (Image.img_size_eq img1 img2) then
    invalid_arg "Interpolate.temporal_linear: size mismatch";
  let s1 = Gaea_geo.Abstime.to_seconds t1
  and s2 = Gaea_geo.Abstime.to_seconds t2 in
  if s1 = s2 then
    invalid_arg "Interpolate.temporal_linear: identical timestamps";
  let w =
    float_of_int (Gaea_geo.Abstime.to_seconds at - s1) /. float_of_int (s2 - s1)
  in
  let xs = Image.unsafe_data img1 and ys = Image.unsafe_data img2 in
  Image.init_chunks ~label:"temporal-interp" ~nrow:(Image.img_nrow img1)
    ~ncol:(Image.img_ncol img1) Pixel.Float8 (fun out lo hi ->
      for i = lo to hi - 1 do
        let a = Array.unsafe_get xs i in
        Array.unsafe_set out i (a +. (w *. (Array.unsafe_get ys i -. a)))
      done)

(* Both resizes work out each output row's and each output column's
   source indexes (and weights) once; a chunk then walks its pixels row
   by row, with no division per pixel. *)

(* [f r c i j] for each output row [r] that [lo, hi) meets: its pixels
   [i, j), the first at column [c] of an image [ncol] wide *)
let each_row ~ncol lo hi f =
  let i = ref lo in
  while !i < hi do
    let r = !i / ncol in
    let stop = Int.min hi ((r + 1) * ncol) in
    f r (!i - (r * ncol)) !i stop;
    i := stop
  done

(* copies pixels of an image of the same type, which already fit it *)
let resize_nearest img ~nrow ~ncol =
  let src_r = Image.img_nrow img and src_c = Image.img_ncol img in
  let src = Image.unsafe_data img in
  (* the source row's offset per output row, the source column per
     output column *)
  let rows =
    Array.init nrow (fun r -> Int.min (r * src_r / nrow) (src_r - 1) * src_c)
  and cols =
    Array.init ncol (fun c -> Int.min (c * src_c / ncol) (src_c - 1))
  in
  Image.init_chunks ~label:"resize-nearest" ~nrow ~ncol (Image.img_type img)
    (fun out lo hi ->
      each_row ~ncol lo hi (fun r c first stop ->
          let row = Array.unsafe_get rows r in
          for i = first to stop - 1 do
            Array.unsafe_set out i
              (Array.unsafe_get src
                 (row + Array.unsafe_get cols (c + i - first)))
          done))

(* Per output row (or column) of [n] over [src_n] source ones, scaled by
   [stride]: the offsets of the two source rows it reads and the weight
   of the second.  The output pixel's center maps into source
   coordinates, clamped onto [0, src_n - 1] as
   Float.max 0. (Float.min v max) does for the finite values here,
   without a call that boxes. *)
let bilinear_axis ~n ~src_n ~stride =
  let first = Array.make n 0 and second = Array.make n 0 in
  let weight = Array.make n 0. in
  let vmax = float_of_int (src_n - 1) in
  for i = 0 to n - 1 do
    let f =
      (float_of_int i +. 0.5) /. float_of_int n *. float_of_int src_n -. 0.5
    in
    let f = if f > vmax then vmax else if f > 0. then f else 0. in
    let i0 = int_of_float (Float.floor f) in
    first.(i) <- i0 * stride;
    second.(i) <- Int.min (i0 + 1) (src_n - 1) * stride;
    weight.(i) <- f -. float_of_int i0
  done;
  (first, second, weight)

let resize_bilinear img ~nrow ~ncol =
  let src_r = Image.img_nrow img and src_c = Image.img_ncol img in
  let src = Image.unsafe_data img in
  let y0, y1, dys = bilinear_axis ~n:nrow ~src_n:src_r ~stride:src_c
  and x0, x1, dxs = bilinear_axis ~n:ncol ~src_n:src_c ~stride:1 in
  Image.init_chunks ~label:"resize-bilinear" ~nrow ~ncol Pixel.Float8
    (fun out lo hi ->
      each_row ~ncol lo hi (fun r c first stop ->
          let dy = Array.unsafe_get dys r in
          let r0 = Array.unsafe_get y0 r and r1 = Array.unsafe_get y1 r in
          for i = first to stop - 1 do
            let col = c + i - first in
            let dx = Array.unsafe_get dxs col in
            let c0 = Array.unsafe_get x0 col and c1 = Array.unsafe_get x1 col in
            let v00 = Array.unsafe_get src (r0 + c0)
            and v01 = Array.unsafe_get src (r0 + c1) in
            let v10 = Array.unsafe_get src (r1 + c0)
            and v11 = Array.unsafe_get src (r1 + c1) in
            Array.unsafe_set out i
              ((((v00 *. (1. -. dx)) +. (v01 *. dx)) *. (1. -. dy))
              +. (((v10 *. (1. -. dx)) +. (v11 *. dx)) *. dy))
          done))

(* Rounds of 8-neighbour means on a copy of the pixels: a round
   computes every hole's fill from the pixels as the round began, then
   writes the fills (an unfilled hole keeps its pixel).  Nothing is
   allocated per pixel but the copy. *)
let is_hole data missing i =
  let v = Array.unsafe_get data i in
  if Float.is_nan missing then Float.is_nan v else v = missing

let fill_missing ?(missing = Float.nan) img =
  let nrow = Image.img_nrow img and ncol = Image.img_ncol img in
  let ptype = Image.img_type img in
  let data = Array.copy (Image.unsafe_data img) in
  let n = Array.length data in
  (* image mean over valid pixels, fallback for isolated holes *)
  let valid_sum = ref 0. and valid_n = ref 0 in
  for i = 0 to n - 1 do
    if not (is_hole data missing i) then begin
      valid_sum := !valid_sum +. data.(i);
      incr valid_n
    end
  done;
  let global_mean =
    if !valid_n = 0 then 0. else !valid_sum /. float_of_int !valid_n
  in
  let fills = Array.make (n - !valid_n) 0. in
  let remaining = ref true and rounds = ref 0 in
  while !remaining && !rounds <= nrow + ncol do
    incr rounds;
    remaining := false;
    let any_filled = ref false and k = ref 0 in
    for i = 0 to n - 1 do
      if is_hole data missing i then begin
        let r = i / ncol and c = i mod ncol in
        let sum = ref 0. and m = ref 0 in
        for rr = Int.max 0 (r - 1) to Int.min (nrow - 1) (r + 1) do
          for cc = Int.max 0 (c - 1) to Int.min (ncol - 1) (c + 1) do
            let j = (rr * ncol) + cc in
            if j <> i && not (is_hole data missing j) then begin
              sum := !sum +. data.(j);
              incr m
            end
          done
        done;
        if !m > 0 then begin
          fills.(!k) <- Pixel.quantize ptype (!sum /. float_of_int !m);
          any_filled := true
        end
        else begin
          fills.(!k) <- data.(i);
          remaining := true
        end;
        incr k
      end
    done;
    k := 0;
    for i = 0 to n - 1 do
      if is_hole data missing i then begin
        data.(i) <- fills.(!k);
        incr k
      end
    done;
    (* a fully missing image (or isolated region) falls back to the mean *)
    if !remaining && not !any_filled then begin
      let mean = Pixel.quantize ptype global_mean in
      for i = 0 to n - 1 do
        if is_hole data missing i then data.(i) <- mean
      done;
      remaining := false
    end
  done;
  Image.unsafe_of_array ~label:(Image.img_label img) ~nrow ~ncol ptype data
