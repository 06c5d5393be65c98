type decomposition = {
  values : float array;
  vectors : Matrix.t;
}

(* Cyclic Jacobi rotations on a symmetric matrix.  Standard algorithm:
   repeatedly zero the largest off-diagonal entries with Givens rotations
   until the off-diagonal norm is below eps * frobenius_norm. *)
let decompose ?(max_sweeps = 64) ?(eps = 1e-12) m =
  if not (Matrix.is_symmetric ~eps:1e-8 m) then
    invalid_arg "Eigen.decompose: matrix not symmetric";
  let n = Matrix.rows m in
  let a = Matrix.copy m in
  let v = Matrix.identity n in
  let off_norm () =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = Matrix.get a i j in
        acc := !acc +. (2. *. x *. x)
      done
    done;
    sqrt !acc
  in
  let total = Matrix.frobenius_norm m in
  let threshold = eps *. Float.max total 1e-300 in
  let rotate p q =
    let apq = Matrix.get a p q in
    if Float.abs apq > 0. then begin
      let app = Matrix.get a p p and aqq = Matrix.get a q q in
      let theta = (aqq -. app) /. (2. *. apq) in
      let t =
        let sign = if theta >= 0. then 1. else -1. in
        sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
      in
      let c = 1. /. sqrt ((t *. t) +. 1.) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let akp = Matrix.get a k p and akq = Matrix.get a k q in
        Matrix.set a k p ((c *. akp) -. (s *. akq));
        Matrix.set a k q ((s *. akp) +. (c *. akq))
      done;
      for k = 0 to n - 1 do
        let apk = Matrix.get a p k and aqk = Matrix.get a q k in
        Matrix.set a p k ((c *. apk) -. (s *. aqk));
        Matrix.set a q k ((s *. apk) +. (c *. aqk))
      done;
      for k = 0 to n - 1 do
        let vkp = Matrix.get v k p and vkq = Matrix.get v k q in
        Matrix.set v k p ((c *. vkp) -. (s *. vkq));
        Matrix.set v k q ((s *. vkp) +. (c *. vkq))
      done
    end
  in
  let sweeps = ref 0 in
  while off_norm () > threshold && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  (* Extract, sort descending by eigenvalue, sign-normalize vectors. *)
  let pairs =
    Array.init n (fun j ->
        (Matrix.get a j j, Array.init n (fun i -> Matrix.get v i j)))
  in
  Array.sort (fun (x, _) (y, _) -> Float.compare y x) pairs;
  Array.iter
    (fun (_, vec) ->
      let max_i = ref 0 in
      Array.iteri
        (fun i x -> if Float.abs x > Float.abs vec.(!max_i) then max_i := i)
        vec;
      if vec.(!max_i) < 0. then
        Array.iteri (fun i x -> vec.(i) <- -.x) vec)
    pairs;
  { values = Array.map fst pairs;
    vectors =
      Matrix.init ~rows:n ~cols:n (fun i j -> (snd pairs.(j)).(i)) }

let reconstruct { values; vectors } =
  let n = Array.length values in
  let d =
    Matrix.init ~rows:n ~cols:n (fun i j -> if i = j then values.(i) else 0.)
  in
  Matrix.mul (Matrix.mul vectors d) (Matrix.transpose vectors)

let explained_variance { values; _ } =
  let clamped = Array.map (fun v -> Float.max 0. v) values in
  let total = Array.fold_left ( +. ) 0. clamped in
  if total <= 0. then Array.map (fun _ -> 0.) clamped
  else Array.map (fun v -> v /. total) clamped
