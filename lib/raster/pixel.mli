(** Pixel storage types of the [image] primitive class.

    The paper's image ADT declares [pixtype] as one of "char", "int2",
    "int4", "float4", "float8".  We keep the declared storage type and
    quantize values on write accordingly, while computing in [float]. *)

type t =
  | Char    (** unsigned 8-bit *)
  | Int2    (** signed 16-bit *)
  | Int4    (** signed 32-bit *)
  | Float4  (** single precision *)
  | Float8  (** double precision *)

val size_bytes : t -> int

val quantize : t -> float -> float
(** Round/clamp a computed value to what the storage type can hold.
    [Float8] is the identity; [Float4] rounds to single precision;
    integral types round-to-nearest and saturate at their bounds.
    NaN quantizes to 0 for integral types. *)

val min_value : t -> float
val max_value : t -> float
(** Representable range ([neg_infinity]/[infinity] for floats). *)

val to_string : t -> string
val of_string : string -> t option
val equal : t -> t -> bool
