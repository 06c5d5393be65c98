(** Supervised maximum-likelihood classification.

    The paper (Section 4.3) names supervised classification as the
    canonical {e interactive} process Gaea cannot yet express — the
    scientist supplies training regions mid-derivation.  We implement the
    non-interactive core: Gaussian maximum-likelihood per class, with the
    training samples supplied up-front (the "scripted oracle"
    substitution recorded in DESIGN.md). *)

type class_model = {
  class_id : int;
  mean : float array;
  covariance : Matrix.t;
  inv_covariance : Matrix.t;
  log_det : float;
  prior : float;
}

type model = class_model list

val train : Composite.t -> Image.t -> model
(** [train composite truth] fits one Gaussian per distinct label in the
    training image [truth] (same size as the composite; label < 0 means
    "unlabelled", those pixels are skipped).  Priors are proportional to
    sample counts.  Degenerate covariances are regularized.
    @raise Invalid_argument if sizes mismatch or no labelled pixel
    exists. *)

val classify : model -> Composite.t -> Image.t
(** Assign each pixel the class with maximal posterior log-likelihood
    (the first class in model order on a tie).  Result is an Int4 label
    image.
    @raise Invalid_argument on an empty model or a class whose mean has
    a different band count than the composite. *)

val log_likelihood : class_model -> float array -> float
(** Gaussian log-density (plus log prior) of a feature vector. *)
