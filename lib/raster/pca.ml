type result = {
  components : Composite.t;
  eigenvalues : float array;
  eigenvectors : Matrix.t;
  explained : float array;
}

let convert_image_matrix = Composite.to_matrix
let compute_covariance = Matrix.covariance
let compute_correlation = Matrix.correlation
let get_eigen_vector m = Eigen.decompose m

let linear_combination observations loadings = Matrix.mul observations loadings

let convert_matrix_image = Composite.of_matrix

let run ~standardize ?components composite =
  let nrow = Composite.nrow composite and ncol = Composite.ncol composite in
  let n_bands = Composite.n_bands composite in
  let k = Option.value components ~default:n_bands in
  if k < 1 || k > n_bands then
    invalid_arg
      (Printf.sprintf "Pca: components=%d outside 1..%d" k n_bands);
  if Composite.n_pixels composite < 2 then
    invalid_arg "Pca: needs at least 2 pixels";
  let obs = convert_image_matrix composite in
  let prepared, sym =
    if standardize then
      (Matrix.standardize_columns obs, compute_correlation obs)
    else (fst (Matrix.center_columns obs), compute_covariance obs)
  in
  let decomp = get_eigen_vector sym in
  let loadings =
    Matrix.init ~rows:n_bands ~cols:k (fun i j ->
        Matrix.get decomp.Eigen.vectors i j)
  in
  let projected = linear_combination prepared loadings in
  let components_imgs = convert_matrix_image ~nrow ~ncol projected in
  let explained = Eigen.explained_variance decomp in
  { components = components_imgs;
    eigenvalues = Array.sub decomp.Eigen.values 0 k;
    eigenvectors = loadings;
    explained = Array.sub explained 0 k }

let pca ?components composite = run ~standardize:false ?components composite
let spca ?components composite = run ~standardize:true ?components composite
