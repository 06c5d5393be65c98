module Pool = Gaea_par.Pool

type result = {
  labels : Image.t;
  centroids : float array array;
  iterations : int;
  inertia : float;
  distances : int;
  incremental : bool;
}

(* Every vector lives in a flat point-interleaved float array: point [i]
   is [pts.(i*dims) .. pts.(i*dims + dims - 1)], centroid [j] likewise in
   a k*dims array.  Each squared distance is the sum, in band order from
   0., of the squared band differences, written inline with a local
   float ref so no float is boxed per pixel.  (a-b)^2 and (b-a)^2 are
   the same float, so the operand order never matters. *)

(* k-means++ seeding with the module's deterministic RNG; returns the k
   seeds as a flat k*dims array *)
let seed_centroids rng pts n dims k =
  let cs = Array.make (k * dims) 0. in
  let set_from j p = Array.blit pts (p * dims) cs (j * dims) dims in
  let dists = Array.make n 0. in
  (* dists.(i) <- min dists.(i) (distance to centroid j), or the plain
     distance for j = 0 *)
  let fold_in j =
    let cj = j * dims in
    for i = 0 to n - 1 do
      let pi = i * dims in
      let acc = ref 0. in
      for d = 0 to dims - 1 do
        let x = pts.(pi + d) -. cs.(cj + d) in
        acc := !acc +. (x *. x)
      done;
      (* Float.min, written out so no float is boxed: NaN wins *)
      let m = dists.(i) in
      dists.(i) <- (if j = 0 || !acc < m || !acc <> !acc then !acc else m)
    done
  in
  set_from 0 (Rng.int rng n);
  fold_in 0;
  for j = 1 to k - 1 do
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. dists.(i)
    done;
    let chosen =
      if !total <= 0. then Rng.int rng n
      else begin
        let target = Rng.float rng !total in
        let acc = ref 0. and i = ref 0 in
        while !i < n - 1 && (acc := !acc +. dists.(!i); not (!acc >= target)) do
          incr i
        done;
        !i
      end
    in
    set_from j chosen;
    fold_in j
  done;
  cs

(* Exactness of the bounds (Hamerly, "Making k-means even faster", SDM
   2010, with rounding margins).  Lloyd's assignment step computes D_j,
   the float squared distance from a point to centroid j, and keeps the
   first j of least D_j.  The bounded step skips a point only when it
   has proved D_a < D_j for its own centroid a and every j <> a, so
   Lloyd would keep label a too, ties and underflow included.

   Let t_j be the exact distance to the stored centroid c_j, u = 2^-53
   and n = dims.  A computed D (n rounded squares of rounded
   differences, summed) satisfies
     (1 - g) t^2 - e  <=  D  <=  (1 + g) t^2 + e
   with g = (n+2)u / (1 - (n+2)u) and e = n 2^-1074 (the underflow of
   the squares); the right side needs D finite.  Take rel = (n+3) 2^-50
   >= g and abs = [abs_margin] = 1e-150: 4 abs^2 >= 2e, because abs^2
   is normal where (1e-300)^2 would be 0.  Write
     grow D = sqrt D * (1 + 4 rel) + 3 abs,
     shrink D = sqrt D * (1 - 4 rel) - 3 abs;
   their extra rel and abs absorb sqrt's rounding and their own, so
   grow D >= (1 + rel) t + abs and shrink D <= (1 - rel) t - abs for
   finite D.  The bounds keep
     up.(i) >= (1 + rel) t_a + abs                       (grow D_a)
     lo.(i) <= (1 - rel) t_j - abs for all j <> a        (shrink)
     half.(a) <= ((1 - rel) |c_a - c_j| - abs) / 2 for all j <> a
   or lo, half <= 0 < up (no skip).  If up < lo, (1 - rel) t_j - (1 +
   rel) t_a > 2 abs; if up < half.(a), so it is by t_j >= |c_a - c_j|
   - t_a.  Squaring, (1 - g) t_j^2 - (1 + g) t_a^2 > 4 abs^2 >= 2e, so
   D_j > D_a.  An infinite D may hide a finite distance, so it gives
   no lower bound (0).  After an update step, up grows by its
   centroid's drift and lo shrinks by the largest other drift (each a
   grow bound), and the result is widened by 2^-50, more than the
   rounding of that addition.  A NaN or infinite up fails every [<],
   and bounds are used only while the current and previous centroids
   are finite. *)
let abs_margin = 1e-150
let widen_up = 1. +. 0x1p-50
let widen_down = 1. -. 0x1p-50

(* Lloyd iterations, parallel over pixels.  The assignment step writes
   disjoint label and bound cells; the update step accumulates per-chunk
   partial (sum, count) pairs combined in chunk order, so the result is
   bit-identical at any pool size. *)
let run ~seed ~max_iter composite k =
  let n = Composite.n_pixels composite in
  let dims = Composite.n_bands composite in
  let pts = Array.make (n * dims) 0. in
  (* cost hints below: per-pixel work relative to one float add, so the
     pool's adaptive cutoff still engages for these expensive kernels
     at sizes where a plain subtraction would stay sequential *)
  let fdims = float_of_int dims in
  for b = 0 to dims - 1 do
    let data = Image.unsafe_data (Composite.band composite b) in
    for i = 0 to n - 1 do
      pts.((i * dims) + b) <- data.(i)
    done
  done;
  let rng = Rng.create seed in
  let cs = seed_centroids rng pts n dims k in
  let prev = Array.make (k * dims) 0. in
  let rel = float_of_int (dims + 3) *. 0x1p-50 in
  let grow_f = 1. +. (4. *. rel) and shrink_f = 1. -. (4. *. rel) in
  let three_abs = 3. *. abs_margin in
  (* Exactness of the incremental update.  When every coordinate is an
     integer (Float.is_integer, false for NaN and infinities) and
     M * n < 2^53 with M = max |v|, any signed sum of any subset of
     coordinates is an integer of magnitude at most M * n, so each float
     addition of such sums is exact and the result does not depend on
     the order of the additions.  Every accumulator starts at +0. and a
     sum of two floats that is exactly zero is +0. unless both are -0.,
     so no accumulator ever holds -0. (pixels of -0. add as +0.).  Sums
     kept across iterations and updated by the moved pixels' deltas are
     therefore bit for bit the sums the chunked pass recomputes from
     scratch, and so are the centroids divided from them.  M * n is
     rounded up or exact, so the float test never admits a product at or
     above 2^53. *)
  let incremental =
    let ok = ref true and m = ref 0. and i = ref 0 in
    while !ok && !i < n * dims do
      let v = pts.(!i) in
      (* Float.is_integer v but for infinities, which fail the bound;
         the call would box v *)
      if Float.trunc v = v then begin
        if Float.abs v > !m then m := Float.abs v
      end
      else ok := false;
      incr i
    done;
    !ok && !m *. float_of_int n < 0x1p53
  in
  let sums = Array.make (k * dims) 0. and counts = Array.make k 0 in
  let labels = Array.make n 0 in
  let up = Array.make n infinity and lo = Array.make n 0. in
  let half = Array.make k 0. and drift = Array.make k 0. in
  let all_finite a = Array.for_all Float.is_finite a in
  let sq_dist_cc a c b e =
    let acc = ref 0. in
    for d = 0 to dims - 1 do
      let x = a.(c + d) -. b.(e + d) in
      acc := !acc +. (x *. x)
    done;
    !acc
  in
  let iterations = ref 0 in
  let changed = ref true in
  let distances = ref 0 in
  while !changed && !iterations < max_iter do
    incr iterations;
    let bounded = !iterations > 1 && all_finite cs && all_finite prev in
    (* the two largest drifts, for the lower bounds *)
    let max1 = ref 0. and arg1 = ref (-1) and max2 = ref 0. in
    if bounded then
      for a = 0 to k - 1 do
        let dmin = ref infinity in
        for j = 0 to k - 1 do
          if j <> a then begin
            let d = sq_dist_cc cs (a * dims) cs (j * dims) in
            if d < !dmin then dmin := d
          end
        done;
        half.(a) <-
          (if !dmin < infinity then
             0.5 *. ((Float.sqrt !dmin *. shrink_f) -. three_abs)
           else 0.);
        let p =
          (Float.sqrt (sq_dist_cc prev (a * dims) cs (a * dims)) *. grow_f)
          +. three_abs
        in
        drift.(a) <- p;
        if p > !max1 then begin
          max2 := !max1;
          max1 := p;
          arg1 := a
        end
        else if p > !max2 then max2 := p
      done;
    let max1 = !max1 and arg1 = !arg1 and max2 = !max2 in
    (* sums carried over from the previous update, so this step's moves
       are recorded as deltas *)
    let deltas = incremental && !iterations > 1 in
    (* assignment step: per chunk, (labels changed, distances computed,
       sum and count deltas of the moved pixels when [deltas]) *)
    let chunks =
      Pool.map_chunks
        ~cost:(3. *. float_of_int k *. fdims)
        ~lo:0 ~hi:n
        (fun clo chi ->
          let moved = ref 0 and evals = ref 0 in
          let dsums = Array.make (k * dims) 0. and dcounts = Array.make k 0 in
          for i = clo to chi - 1 do
            let pi = i * dims in
            let a = labels.(i) in
            let skip =
              bounded
              && begin
                   let u = (up.(i) +. drift.(a)) *. widen_up in
                   let l =
                     (lo.(i) -. (if a = arg1 then max2 else max1))
                     *. widen_down
                   in
                   up.(i) <- u;
                   lo.(i) <- l;
                   u < half.(a) || u < l
                   || begin
                        incr evals;
                        let acc = ref 0. in
                        for d = 0 to dims - 1 do
                          let x = pts.(pi + d) -. cs.((a * dims) + d) in
                          acc := !acc +. (x *. x)
                        done;
                        let u = (Float.sqrt !acc *. grow_f) +. three_abs in
                        up.(i) <- u;
                        u < half.(a) || u < l
                      end
                 end
            in
            if not skip then begin
              (* Lloyd's scan: ties go to the lowest index *)
              evals := !evals + k;
              let best = ref 0 and best_d = ref 0. and second = ref infinity in
              for j = 0 to k - 1 do
                let cj = j * dims in
                let acc = ref 0. in
                for d = 0 to dims - 1 do
                  let x = pts.(pi + d) -. cs.(cj + d) in
                  acc := !acc +. (x *. x)
                done;
                let dj = !acc in
                if j = 0 || dj < !best_d then begin
                  if j > 0 then second := !best_d;
                  best := j;
                  best_d := dj
                end
                else if dj < !second then second := dj
              done;
              up.(i) <- (Float.sqrt !best_d *. grow_f) +. three_abs;
              lo.(i) <-
                (if !second < infinity then
                   (Float.sqrt !second *. shrink_f) -. three_abs
                 else 0.);
              let b = !best in
              if b <> a then begin
                labels.(i) <- b;
                incr moved;
                if deltas then begin
                  dcounts.(a) <- dcounts.(a) - 1;
                  dcounts.(b) <- dcounts.(b) + 1;
                  let sa = a * dims and sb = b * dims in
                  for d = 0 to dims - 1 do
                    dsums.(sa + d) <- dsums.(sa + d) -. pts.(pi + d);
                    dsums.(sb + d) <- dsums.(sb + d) +. pts.(pi + d)
                  done
                end
              end
            end
          done;
          (!moved, !evals, dsums, dcounts))
    in
    let moved = ref 0 in
    Array.iter
      (fun (m, e, _, _) ->
        moved := !moved + m;
        distances := !distances + e)
      chunks;
    changed := !moved > 0;
    (* update step; empty clusters keep their previous centroid *)
    if !changed then begin
      Array.blit cs 0 prev 0 (k * dims);
      let add ps pc =
        for j = 0 to k - 1 do
          counts.(j) <- counts.(j) + pc.(j)
        done;
        for x = 0 to (k * dims) - 1 do
          sums.(x) <- sums.(x) +. ps.(x)
        done
      in
      if deltas then Array.iter (fun (_, _, ds, dc) -> add ds dc) chunks
      else begin
        Array.fill sums 0 (k * dims) 0.;
        Array.fill counts 0 k 0;
        Array.iter
          (fun (ps, pc) -> add ps pc)
          (Pool.map_chunks ~cost:(2. *. fdims) ~lo:0 ~hi:n (fun clo chi ->
               let sums = Array.make (k * dims) 0. in
               let counts = Array.make k 0 in
               for i = clo to chi - 1 do
                 let j = labels.(i) in
                 counts.(j) <- counts.(j) + 1;
                 let pi = i * dims and sj = j * dims in
                 for d = 0 to dims - 1 do
                   sums.(sj + d) <- sums.(sj + d) +. pts.(pi + d)
                 done
               done;
               (sums, counts)))
      end;
      for j = 0 to k - 1 do
        if counts.(j) > 0 then begin
          let c = float_of_int counts.(j) in
          for d = 0 to dims - 1 do
            cs.((j * dims) + d) <- sums.((j * dims) + d) /. c
          done
        end
      done
    end
  done;
  (* Stable relabeling: order clusters lexicographically by centroid so
     output labels are independent of initialization order. *)
  let centroid j = Array.sub cs (j * dims) dims in
  let order = Array.init k (fun j -> j) in
  Array.sort (fun a b -> compare (centroid a) (centroid b)) order;
  let rank = Array.make k 0 in
  Array.iteri (fun r j -> rank.(j) <- r) order;
  let final_centroids = Array.map centroid order in
  let inertia =
    Pool.parallel_for_reduce ~cost:(3. *. fdims) ~lo:0 ~hi:n ~init:0.
      ~reduce:( +. )
      (fun clo chi ->
        let acc = ref 0. in
        for i = clo to chi - 1 do
          let pi = i * dims and cj = labels.(i) * dims in
          let di = ref 0. in
          for d = 0 to dims - 1 do
            let x = pts.(pi + d) -. cs.(cj + d) in
            di := !di +. (x *. x)
          done;
          acc := !acc +. !di
        done;
        !acc)
  in
  let ranks = Array.make n 0. in
  for i = 0 to n - 1 do
    ranks.(i) <- float_of_int rank.(labels.(i))
  done;
  { labels =
      Image.unsafe_of_array ~label:"unsuperclassify"
        ~nrow:(Composite.nrow composite) ~ncol:(Composite.ncol composite)
        Pixel.Int4 ranks;
    centroids = final_centroids;
    iterations = !iterations;
    inertia;
    distances = !distances;
    incremental }

let unsuperclassify ?(seed = 42) ?(max_iter = 100) composite k =
  let n = Composite.n_pixels composite in
  if k < 1 then invalid_arg "Kmeans.unsuperclassify: k < 1";
  if k > n then
    invalid_arg
      (Printf.sprintf "Kmeans.unsuperclassify: k=%d > %d pixels" k n);
  run ~seed ~max_iter composite k
