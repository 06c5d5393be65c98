(** Symmetric eigendecomposition (cyclic Jacobi) — the
    [get-eigen-vector] operator of the PCA network (paper Fig 4). *)

type decomposition = {
  values : float array;        (** eigenvalues, descending *)
  vectors : Matrix.t;          (** column j is the eigenvector of values.(j) *)
}

val decompose : ?max_sweeps:int -> ?eps:float -> Matrix.t -> decomposition
(** Jacobi eigendecomposition of a symmetric matrix.
    @raise Invalid_argument if the matrix is not (numerically) symmetric.
    Eigenvectors are orthonormal; each is sign-normalized so its largest-
    magnitude component is positive, making results deterministic. *)

val reconstruct : decomposition -> Matrix.t
(** [V diag(values) Vᵀ] — for testing that [decompose] is faithful. *)

val explained_variance : decomposition -> float array
(** Fraction of total variance per component (non-negative eigenvalues
    assumed clamped at 0). *)
