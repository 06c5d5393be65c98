(** Dense row-major matrices — the [matrix] primitive class that the
    PCA compound operator of Fig 4 flows through. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix.  @raise Invalid_argument on non-positive dims, or when
    [rows * cols] overflows or exceeds [Sys.max_array_length]. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] fills element (i,j) with [f i j]. *)

val identity : int -> t

val unsafe_data : t -> float array
(** The row-major backing store (shared, not copied).  Reserved for the
    flat loops of {!Composite} and the other raster kernels. *)

val unsafe_of_array : rows:int -> cols:int -> float array -> t
(** Wrap a row-major array as a matrix without copying.  Reserved for
    the flat loops of {!Composite} and the other raster kernels.
    @raise Invalid_argument if the array length is not [rows*cols]. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val transpose : t -> t
val scale : float -> t -> t
val mul : t -> t -> t
(** Matrix product.  @raise Invalid_argument on dim mismatch. *)

val mul_vec : t -> float array -> float array

val equal : t -> t -> bool
val approx_equal : ?eps:float -> t -> t -> bool
val is_symmetric : ?eps:float -> t -> bool
val frobenius_norm : t -> float
val copy : t -> t

val column_means : t -> float array
val center_columns : t -> t * float array
(** Subtract column means; returns centered matrix and the means. *)

val standardize_columns : t -> t
(** Center each column and divide it by its sample standard deviation
    (a zero-deviation column becomes zeros): element for element the
    bits of [(x - mean) / sqrt (covariance).(j,j)], without forming the
    off-diagonal covariances.  @raise Invalid_argument if rows < 2. *)

val covariance : t -> t
(** Sample covariance of the columns (rows are observations); divides by
    [rows-1].  @raise Invalid_argument if rows < 2. *)

val correlation : t -> t
(** Pearson correlation of the columns.  Zero-variance columns yield
    zero off-diagonal entries and a unit diagonal. *)

val correlation_of_covariance : t -> t
(** The correlation matrix derived from an already-computed covariance
    matrix; {!correlation} is [correlation_of_covariance (covariance t)]. *)
