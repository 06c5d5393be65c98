module Pool = Gaea_par.Pool

type result = {
  labels : Image.t;
  centroids : float array array;
  iterations : int;
  inertia : float;
}

let sq_dist a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let assign centroids v =
  let k = Array.length centroids in
  if k = 0 then invalid_arg "Kmeans.assign: no centroids";
  let best = ref 0 and best_d = ref (sq_dist centroids.(0) v) in
  for j = 1 to k - 1 do
    let d = sq_dist centroids.(j) v in
    if d < !best_d then begin
      best := j;
      best_d := d
    end
  done;
  !best

(* k-means++ seeding with the module's deterministic RNG *)
let seed_centroids rng points k =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.seed_centroids: empty point set";
  if k > n then
    invalid_arg
      (Printf.sprintf "Kmeans.seed_centroids: k=%d > %d points" k n);
  let centroids = Array.make k points.(0) in
  centroids.(0) <- points.(Rng.int rng n);
  let dists = Array.map (fun p -> sq_dist p centroids.(0)) points in
  for j = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0. dists in
    let chosen =
      if total <= 0. then Rng.int rng n
      else begin
        let target = Rng.float rng total in
        let acc = ref 0. and idx = ref (n - 1) in
        (try
           Array.iteri
             (fun i d ->
               acc := !acc +. d;
               if !acc >= target then begin
                 idx := i;
                 raise Exit
               end)
             dists
         with Exit -> ());
        !idx
      end
    in
    centroids.(j) <- points.(chosen);
    Array.iteri
      (fun i p -> dists.(i) <- Float.min dists.(i) (sq_dist p centroids.(j)))
      points
  done;
  Array.map Array.copy centroids

(* Lloyd iterations, parallel over pixels.  The assignment step writes
   disjoint label cells; the update step accumulates per-chunk partial
   (sum, count) pairs combined in chunk order, so the result is
   bit-identical at any pool size. *)
let run ~seed ~max_iter composite k =
  let n = Composite.n_pixels composite in
  let dims = Composite.n_bands composite in
  let points = Array.make n [||] in
  (* cost hints below: per-pixel work relative to one float add, so the
     pool's adaptive cutoff still engages for these expensive kernels
     at sizes where a plain subtraction would stay sequential *)
  let fdims = float_of_int dims in
  Pool.parallel_for ~cost:(8. *. fdims) ~lo:0 ~hi:n (fun i ->
      points.(i) <- Composite.pixel_vector composite i);
  let rng = Rng.create seed in
  let centroids = ref (seed_centroids rng points k) in
  let labels = Array.make n 0 in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed && !iterations < max_iter do
    incr iterations;
    (* assignment step *)
    let cs = !centroids in
    changed :=
      Pool.parallel_for_reduce
        ~cost:(3. *. float_of_int k *. fdims)
        ~lo:0 ~hi:n ~init:false ~reduce:( || )
        (fun clo chi ->
          let any = ref false in
          for i = clo to chi - 1 do
            let j = assign cs points.(i) in
            if j <> labels.(i) then begin
              labels.(i) <- j;
              any := true
            end
          done;
          !any);
    (* update step; empty clusters keep their previous centroid *)
    if !changed then begin
      let partials =
        Pool.map_chunks ~cost:(2. *. fdims) ~lo:0 ~hi:n (fun clo chi ->
            let sums = Array.init k (fun _ -> Array.make dims 0.) in
            let counts = Array.make k 0 in
            for i = clo to chi - 1 do
              let j = labels.(i) in
              counts.(j) <- counts.(j) + 1;
              let p = points.(i) and s = sums.(j) in
              for d = 0 to dims - 1 do
                s.(d) <- s.(d) +. p.(d)
              done
            done;
            (sums, counts))
      in
      let sums = Array.init k (fun _ -> Array.make dims 0.) in
      let counts = Array.make k 0 in
      Array.iter
        (fun (ps, pc) ->
          for j = 0 to k - 1 do
            counts.(j) <- counts.(j) + pc.(j);
            for d = 0 to dims - 1 do
              sums.(j).(d) <- sums.(j).(d) +. ps.(j).(d)
            done
          done)
        partials;
      centroids :=
        Array.mapi
          (fun j s ->
            if counts.(j) = 0 then !centroids.(j)
            else Array.map (fun x -> x /. float_of_int counts.(j)) s)
          sums
    end
  done;
  (* Stable relabeling: order clusters lexicographically by centroid so
     output labels are independent of initialization order. *)
  let order = Array.init k (fun j -> j) in
  Array.sort (fun a b -> compare !centroids.(a) !centroids.(b)) order;
  let rank = Array.make k 0 in
  Array.iteri (fun r j -> rank.(j) <- r) order;
  let final_centroids = Array.map (fun j -> !centroids.(j)) order in
  let cs = !centroids in
  let inertia =
    Pool.parallel_for_reduce ~cost:(3. *. fdims) ~lo:0 ~hi:n ~init:0.
      ~reduce:( +. )
      (fun clo chi ->
        let acc = ref 0. in
        for i = clo to chi - 1 do
          acc := !acc +. sq_dist points.(i) cs.(labels.(i))
        done;
        !acc)
  in
  let nrow = Composite.nrow composite and ncol = Composite.ncol composite in
  let label_img =
    Image.par_init ~label:"unsuperclassify" ~nrow ~ncol Pixel.Int4 (fun r c ->
        float_of_int rank.(labels.((r * ncol) + c)))
  in
  { labels = label_img;
    centroids = final_centroids;
    iterations = !iterations;
    inertia }

let unsuperclassify ?(seed = 42) ?(max_iter = 100) composite k =
  let n = Composite.n_pixels composite in
  if k < 1 then invalid_arg "Kmeans.unsuperclassify: k < 1";
  if k > n then
    invalid_arg
      (Printf.sprintf "Kmeans.unsuperclassify: k=%d > %d pixels" k n);
  run ~seed ~max_iter composite k
