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
   seeds as a flat k*dims array.  The seeds are also the centroids of
   Lloyd's first assignment step, and [fold_in j] computes each pixel's
   distance to seed j with Lloyd's operands, so it runs that step too:
   [best.(i)] is the first j of least distance, [best_d.(i)] that
   distance and [second.(i)] the least distance to any other seed, by
   Lloyd's comparisons (NaN included).  Pixels are independent, so the
   pool's chunking changes no bit; the total and the walk stay
   sequential.  [dists] holds the k-means++ distances. *)
let seed_centroids rng pts n dims k ~dists ~best ~best_d ~second =
  let cs = Array.make (k * dims) 0. in
  let set_from j p = Array.blit pts (p * dims) cs (j * dims) dims in
  let fold_in j =
    let cj = j * dims and last = j = k - 1 in
    Pool.parallel_for_ranges ~lo:0 ~hi:n (fun clo chi ->
        for i = clo to chi - 1 do
          let pi = i * dims in
          let acc = ref 0. in
          for d = 0 to dims - 1 do
            let x = pts.(pi + d) -. cs.(cj + d) in
            acc := !acc +. (x *. x)
          done;
          let dj = !acc in
          (* dists.(i) <- Float.min dists.(i) dj, written out so no float
             is boxed: NaN wins; nothing reads it after the last seed *)
          if not last then begin
            let m = dists.(i) in
            dists.(i) <- (if j = 0 || dj < m || dj <> dj then dj else m)
          end;
          if j = 0 then begin
            best.(i) <- 0;
            best_d.(i) <- dj;
            second.(i) <- infinity
          end
          else if dj < best_d.(i) then begin
            second.(i) <- best_d.(i);
            best.(i) <- j;
            best_d.(i) <- dj
          end
          else if dj < second.(i) then second.(i) <- dj
        done)
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
   2010; Elkan, "Using the triangle inequality to accelerate k-means",
   ICML 2003; with rounding margins).  Lloyd's assignment step computes
   D_j, the float squared distance from a point to centroid j, and keeps
   the first j of least D_j.  The bounded step skips a point, or a
   centroid in a point's scan, only when it has proved D_a < D_j for the
   point's own centroid a and every skipped j, so Lloyd would keep label
   a too, ties and underflow included.

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
     up >= (1 + rel) t_a + abs                           (grow D_a)
     lo <= (1 - rel) t_j - abs for all j <> a            (shrink)
     hcc.(a,j) <= ((1 - rel) |c_a - c_j| - abs) / 2      (shrink, halved)
   with half.(a) the least hcc.(a,j), or lo, half <= 0 < up (no skip).
   If up < lo, (1 - rel) t_j - (1 + rel) t_a > 2 abs; if up < hcc.(a,j),
   so it is by t_j >= |c_a - c_j| - t_a.  Squaring, (1 - g) t_j^2 - (1
   + g) t_a^2 > 4 abs^2 >= 2e, so D_j > D_a.  An infinite D may hide a
   finite distance, so it gives no lower bound (0).  The same triangle
   inequality gives (1 - rel) t_j - abs >= 2 hcc.(a,j) - up + abs, so a
   scan that skips j bounds t_j by 2 hcc.(a,j) - up, and any point may
   raise lo to 2 half.(a) - up.  Such a difference, rounded once and
   then multiplied by 1 - 2^-50, is at most its exact value when
   positive, and a bound <= 0 never skips.

   Bounds across update steps.  An update moves c_a by at most its
   drift, grow |c_a' - c_a| >= (1 + rel) |c_a' - c_a|; let h_a be the
   largest drift of the other centroids.  Each bounded iteration t adds
   them to per-centroid float ledgers, G_t = G_(t-1) + drift and H_t =
   H_(t-1) + h, from G_1 = H_1 = 0; an unbounded iteration adds 0, and
   it visits every point.  A point keeps the up and lo of the iteration
   s of its last visit; at t > s, with S and T the exact sums of the
   same terms, the triangle inequality gives
     (1 + rel) t_a + abs <= up + (S_t - S_s),
     lo - (T_t - T_s) <= (1 - rel) t_j - abs.
   The terms are >= 0, so |G_t - S_t| <= gt S_t with gt = t u / (1 - t
   u), and t < 2^40 (bounds are off past it), so t u < 2^-13.  With
   m_t = (t + 2) 2^-50 = 8 (t + 2) u and M = fl (G_t m_t),
     S_t - S_s <= (G_t - G_s) + 2 gt S_t
               <= fl (G_t - G_s) + (2.01 t + 1) u G_t
               <= fl (fl (G_t - G_s) + M),
   and the same holds for H with M' = fl (H_t m_t).  A point due in
   iteration t therefore rebuilds
     up = (up + fl (fl (G_t - G_s) + M)) * (1 + 2^-50),
     lo = (lo - fl (fl (H_t - H_s) + M')) * (1 - 2^-50),
   whose last factor covers the rounding of the outer operation, and
   runs the tests above.  A point is due only when its key has run out.
   With C = fl (G + H), which is within g_(t+1) (S + T) of S + T, and
   sigma = lo - up stored at the visit, the key is fl (C_s + fl sigma)
   and the level of centroid a is L_t = fl (C_t + fl (C_t m_t)).  A key
   above L_t needs sigma > 0 (else key <= C_s <= C_t <= L_t), and then
     (C_s + sigma) (1 + u)^2 >= key > L_t
                             >= C_t (1 + 8 t u + 12 u) (1 + u)^2;
   C_t (1 + 8 t u + 12 u) >= C_t + 2 g_(t+1) (S_t + T_t) >= C_s + (S_t
   + T_t) - (S_s + T_s), so up + (S_t - S_s) < lo - (T_t - T_s), the up
   < lo case above, and the point keeps its label unread.  A NaN or
   infinite bound or ledger fails every [<] and [>], and bounds are used
   only while the current and previous centroids are finite. *)
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
  for b = 0 to dims - 1 do
    let data = Image.unsafe_data (Composite.band composite b) in
    for i = 0 to n - 1 do
      pts.((i * dims) + b) <- data.(i)
    done
  done;
  let labels = Array.make n 0 in
  let up = Array.make n 0. and lo = Array.make n 0. in
  (* per pixel: its key, scratch for the seeding until iteration 1
     writes it, and the iteration of its last visit *)
  let key = Array.make n 0. and seen = Array.make n 1 in
  let rng = Rng.create seed in
  let cs = seed_centroids rng pts n dims k ~dists:key ~best:labels ~best_d:up
      ~second:lo
  in
  if max_iter < 1 then Array.fill labels 0 n 0;
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
  let hcc = Array.make (k * k) 0. and half = Array.make k 0. in
  let level = Array.make k 0. in
  (* the ledgers: row t holds G_t in its first k cells, H_t in the next;
     rows 0 and 1 are zeros *)
  let ledger = ref (Array.make (4 * k) 0.) in
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
    let t = !iterations in
    if (t + 1) * 2 * k > Array.length !ledger then
      ledger := Array.append !ledger (Array.make (Array.length !ledger) 0.);
    let lg = !ledger in
    let bounded = t > 1 && t < 1 lsl 40 && all_finite cs && all_finite prev in
    let row = t * 2 * k and prev_row = (t - 1) * 2 * k in
    if bounded then begin
      (* the two largest drifts, for the lower bounds *)
      let max1 = ref 0. and arg1 = ref (-1) and max2 = ref 0. in
      for a = 0 to k - 1 do
        for j = a + 1 to k - 1 do
          let d = sq_dist_cc cs (a * dims) cs (j * dims) in
          let h =
            if d < infinity then 0.5 *. ((Float.sqrt d *. shrink_f) -. three_abs)
            else 0.
          in
          hcc.((a * k) + j) <- h;
          hcc.((j * k) + a) <- h
        done;
        (* every hcc.(a,j) is set by now: j < a in earlier passes *)
        let m = ref infinity in
        for j = 0 to k - 1 do
          if j <> a && hcc.((a * k) + j) < !m then m := hcc.((a * k) + j)
        done;
        half.(a) <- (if !m < infinity then !m else 0.);
        let p =
          (Float.sqrt (sq_dist_cc prev (a * dims) cs (a * dims)) *. grow_f)
          +. three_abs
        in
        lg.(row + a) <- lg.(prev_row + a) +. p;
        if p > !max1 then begin
          max2 := !max1;
          max1 := p;
          arg1 := a
        end
        else if p > !max2 then max2 := p
      done;
      for a = 0 to k - 1 do
        lg.(row + k + a) <-
          lg.(prev_row + k + a) +. (if a = !arg1 then !max2 else !max1)
      done
    end
    else if t > 1 then Array.blit lg prev_row lg row (2 * k);
    let m_t = float_of_int (t + 2) *. 0x1p-50 in
    for a = 0 to k - 1 do
      let c = lg.(row + a) +. lg.(row + k + a) in
      level.(a) <- c +. (c *. m_t)
    done;
    (* sums carried over from the previous update, so this step's moves
       are recorded as deltas *)
    let deltas = incremental && t > 1 in
    (* assignment step: per chunk, (labels changed, distances computed,
       sum and count deltas of the moved pixels when [deltas]).
       Iteration 1 is Lloyd's scan the seeding ran: it only turns the
       seeding's distances into bounds and keys. *)
    let chunks =
      Pool.map_chunks ~lo:0 ~hi:n (fun clo chi ->
          let moved = ref 0 and evals = ref 0 in
          let dsums = Array.make (k * dims) 0. and dcounts = Array.make k 0 in
          (* the pixel's own distance, set when [tight] *)
          let da = ref 0. in
          for i = clo to chi - 1 do
            let pi = i * dims in
            let a = labels.(i) in
            if t = 1 then begin
              let u = (Float.sqrt up.(i) *. grow_f) +. three_abs in
              let l =
                if lo.(i) < infinity then (Float.sqrt lo.(i) *. shrink_f) -. three_abs
                else 0.
              in
              up.(i) <- u;
              lo.(i) <- l;
              key.(i) <- l -. u;
              if a <> 0 then incr moved
            end
            else if not (bounded && key.(i) > level.(a)) then begin
              let s = (seen.(i) * 2 * k) + a in
              let tight = ref false in
              let u = ref 0. and l = ref 0. in
              let keep =
                bounded
                && begin
                     let g = lg.(row + a) and h = lg.(row + k + a) in
                     u := (up.(i) +. ((g -. lg.(s)) +. (g *. m_t))) *. widen_up;
                     l :=
                       (lo.(i) -. ((h -. lg.(s + k)) +. (h *. m_t)))
                       *. widen_down;
                     !u < half.(a) || !u < !l
                     || begin
                          incr evals;
                          let acc = ref 0. in
                          for d = 0 to dims - 1 do
                            let x = pts.(pi + d) -. cs.((a * dims) + d) in
                            acc := !acc +. (x *. x)
                          done;
                          da := !acc;
                          u := (Float.sqrt !acc *. grow_f) +. three_abs;
                          tight := true;
                          !u < half.(a) || !u < !l
                        end
                   end
              in
              let b =
                if keep then a
                else begin
                  (* Lloyd's scan: ties go to the lowest index; once the
                     own distance is tight, a j with up < hcc.(a,j) is
                     farther and only bounds lo *)
                  let tight = !tight and ut = !u in
                  let best = ref (-1) and best_d = ref 0. and second = ref infinity in
                  let pruned = ref infinity in
                  for j = 0 to k - 1 do
                    let hj = hcc.((a * k) + j) in
                    if tight && j <> a && ut < hj then begin
                      let bj = ((2. *. hj) -. ut) *. widen_down in
                      if bj < !pruned then pruned := bj
                    end
                    else begin
                      let dj =
                        if tight && j = a then !da
                        else begin
                          incr evals;
                          let cj = j * dims in
                          let acc = ref 0. in
                          for d = 0 to dims - 1 do
                            let x = pts.(pi + d) -. cs.(cj + d) in
                            acc := !acc +. (x *. x)
                          done;
                          !acc
                        end
                      in
                      if !best < 0 || dj < !best_d then begin
                        if !best >= 0 then second := !best_d;
                        best := j;
                        best_d := dj
                      end
                      else if dj < !second then second := dj
                    end
                  done;
                  u := (Float.sqrt !best_d *. grow_f) +. three_abs;
                  let s2 =
                    if !second < infinity then
                      (Float.sqrt !second *. shrink_f) -. three_abs
                    else 0.
                  in
                  l := (if !pruned < s2 then !pruned else s2);
                  !best
                end
              in
              let u = !u in
              let l =
                if bounded then begin
                  let h = ((2. *. half.(b)) -. u) *. widen_down in
                  if h > !l then h else !l
                end
                else !l
              in
              up.(i) <- u;
              lo.(i) <- l;
              seen.(i) <- t;
              key.(i) <- (lg.(row + b) +. lg.(row + k + b)) +. (l -. u);
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
          (Pool.map_chunks ~lo:0 ~hi:n (fun clo chi ->
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
    Pool.parallel_for_reduce ~lo:0 ~hi:n ~init:0.
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
