type class_model = {
  class_id : int;
  mean : float array;
  covariance : Matrix.t;
  inv_covariance : Matrix.t;
  log_det : float;
  prior : float;
}

type model = class_model list

(* Inverse + log-determinant of a small symmetric positive-definite
   matrix via Gauss-Jordan with partial pivoting; regularized first. *)
let invert_with_logdet m =
  let n = Matrix.rows m in
  let a = Matrix.copy m in
  let inv = Matrix.identity n in
  let logdet = ref 0. in
  for col = 0 to n - 1 do
    (* pivot *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (Matrix.get a r col) > Float.abs (Matrix.get a !pivot col)
      then pivot := r
    done;
    if !pivot <> col then begin
      for j = 0 to n - 1 do
        let t = Matrix.get a col j in
        Matrix.set a col j (Matrix.get a !pivot j);
        Matrix.set a !pivot j t;
        let t = Matrix.get inv col j in
        Matrix.set inv col j (Matrix.get inv !pivot j);
        Matrix.set inv !pivot j t
      done
      (* a row swap flips the determinant sign; covariances are SPD after
         regularization so the absolute value is what we need anyway *)
    end;
    let p = Matrix.get a col col in
    if Float.abs p < 1e-30 then invalid_arg "Maxlike: singular covariance";
    logdet := !logdet +. log (Float.abs p);
    for j = 0 to n - 1 do
      Matrix.set a col j (Matrix.get a col j /. p);
      Matrix.set inv col j (Matrix.get inv col j /. p)
    done;
    for r = 0 to n - 1 do
      if r <> col then begin
        let factor = Matrix.get a r col in
        if factor <> 0. then
          for j = 0 to n - 1 do
            Matrix.set a r j (Matrix.get a r j -. (factor *. Matrix.get a col j));
            Matrix.set inv r j
              (Matrix.get inv r j -. (factor *. Matrix.get inv col j))
          done
      end
    done
  done;
  (inv, !logdet)

let train composite truth =
  let nrow = Composite.nrow composite and ncol = Composite.ncol composite in
  if Image.img_nrow truth <> nrow || Image.img_ncol truth <> ncol then
    invalid_arg "Maxlike.train: truth image size mismatch";
  let n = nrow * ncol in
  let dims = Composite.n_bands composite in
  (* group labelled pixels by class *)
  let groups : (int, float array list ref) Hashtbl.t = Hashtbl.create 16 in
  let labelled = ref 0 in
  for i = 0 to n - 1 do
    let lbl = int_of_float (Image.get_linear truth i) in
    if lbl >= 0 then begin
      incr labelled;
      let v = Composite.pixel_vector composite i in
      match Hashtbl.find_opt groups lbl with
      | Some l -> l := v :: !l
      | None -> Hashtbl.add groups lbl (ref [ v ])
    end
  done;
  if !labelled = 0 then invalid_arg "Maxlike.train: no labelled pixels";
  let total = float_of_int !labelled in
  Hashtbl.fold
    (fun class_id samples acc ->
      let pts = Array.of_list !samples in
      let count = Array.length pts in
      let mean = Array.make dims 0. in
      Array.iter
        (fun p ->
          for d = 0 to dims - 1 do
            mean.(d) <- mean.(d) +. p.(d)
          done)
        pts;
      let mean = Array.map (fun s -> s /. float_of_int count) mean in
      let cov = Matrix.create ~rows:dims ~cols:dims in
      Array.iter
        (fun p ->
          for i = 0 to dims - 1 do
            for j = 0 to dims - 1 do
              Matrix.set cov i j
                (Matrix.get cov i j
                 +. ((p.(i) -. mean.(i)) *. (p.(j) -. mean.(j))))
            done
          done)
        pts;
      let denom = float_of_int (Stdlib.max 1 (count - 1)) in
      let cov = Matrix.scale (1. /. denom) cov in
      (* ridge regularization keeps tiny / single-sample classes usable *)
      let cov =
        Matrix.init ~rows:dims ~cols:dims (fun i j ->
            Matrix.get cov i j +. if i = j then 1e-6 else 0.)
      in
      let inv_covariance, log_det = invert_with_logdet cov in
      { class_id; mean; covariance = cov; inv_covariance; log_det;
        prior = float_of_int count /. total }
      :: acc)
    groups []
  |> List.sort (fun a b -> compare a.class_id b.class_id)

let log_likelihood cm v =
  let dims = Array.length cm.mean in
  let diff = Array.init dims (fun i -> v.(i) -. cm.mean.(i)) in
  let tmp = Matrix.mul_vec cm.inv_covariance diff in
  let mahal = ref 0. in
  for i = 0 to dims - 1 do
    mahal := !mahal +. (diff.(i) *. tmp.(i))
  done;
  log cm.prior -. 0.5 *. (cm.log_det +. !mahal)

(* Per-pixel argmax of [log_likelihood], allocation-free: the class
   means and inverse covariances are copied once into flat arrays, each
   chunk reuses one difference vector, and the Mahalanobis sum adds
   [diff.(r) * (inv row r . diff)] in the order [log_likelihood] does. *)
let classify model composite =
  (match model with
   | [] -> invalid_arg "Maxlike.classify: empty model"
   | _ -> ());
  let nrow = Composite.nrow composite and ncol = Composite.ncol composite in
  let dims = Composite.n_bands composite in
  let classes = Array.of_list model in
  let nc = Array.length classes in
  Array.iter
    (fun cm ->
      if Array.length cm.mean <> dims then
        invalid_arg
          (Printf.sprintf
             "Maxlike.classify: class %d has %d bands, the image %d"
             cm.class_id (Array.length cm.mean) dims))
    classes;
  let bands =
    Array.init dims (fun b -> Image.unsafe_data (Composite.band composite b))
  in
  let means =
    Array.init (nc * dims) (fun x -> classes.(x / dims).mean.(x mod dims))
  in
  let inv =
    Array.init (nc * dims * dims) (fun x ->
        let c = x / (dims * dims) and rj = x mod (dims * dims) in
        Matrix.get classes.(c).inv_covariance (rj / dims) (rj mod dims))
  in
  let log_prior = Array.map (fun cm -> log cm.prior) classes in
  let log_det = Array.map (fun cm -> cm.log_det) classes in
  (* ids.(c + 1) is class c's label as stored; ids.(0) marks no class *)
  let ids =
    Array.init (nc + 1) (fun c ->
        Pixel.quantize Pixel.Int4
          (float_of_int (if c = 0 then -1 else classes.(c - 1).class_id)))
  in
  let n = nrow * ncol in
  let data = Array.make n 0. in
  (* per-pixel argmax is independent: parallel across the pool *)
  Gaea_par.Pool.parallel_for_ranges ~lo:0 ~hi:n (fun clo chi ->
      let diff = Array.make dims 0. in
      for i = clo to chi - 1 do
        let best = ref (-1) and best_ll = ref neg_infinity in
        for c = 0 to nc - 1 do
          for d = 0 to dims - 1 do
            diff.(d) <- bands.(d).(i) -. means.((c * dims) + d)
          done;
          let mahal = ref 0. in
          for r = 0 to dims - 1 do
            let row = ((c * dims) + r) * dims in
            let t = ref 0. in
            for j = 0 to dims - 1 do
              t := !t +. (inv.(row + j) *. diff.(j))
            done;
            mahal := !mahal +. (diff.(r) *. !t)
          done;
          let ll = log_prior.(c) -. (0.5 *. (log_det.(c) +. !mahal)) in
          if ll > !best_ll then begin
            best := c;
            best_ll := ll
          end
        done;
        data.(i) <- ids.(!best + 1)
      done);
  Image.unsafe_of_array ~label:"maxlike" ~nrow ~ncol Pixel.Int4 data
