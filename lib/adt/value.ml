module Image = Gaea_raster.Image
module Composite = Gaea_raster.Composite
module Matrix = Gaea_raster.Matrix
module Pixel = Gaea_raster.Pixel
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Interval = Gaea_geo.Interval

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VImage of Image.t
  | VComposite of Composite.t
  | VMatrix of Matrix.t
  | VVector of float array
  | VBox of Box.t
  | VAbstime of Abstime.t
  | VInterval of Interval.t
  | VSet of t list

let type_of = function
  | VInt _ -> Vtype.Int
  | VFloat _ -> Vtype.Float
  | VString _ -> Vtype.String
  | VBool _ -> Vtype.Bool
  | VImage _ -> Vtype.Image
  | VComposite _ -> Vtype.Composite
  | VMatrix _ -> Vtype.Matrix
  | VVector _ -> Vtype.Vector
  | VBox _ -> Vtype.Box
  | VAbstime _ -> Vtype.Abstime
  | VInterval _ -> Vtype.Interval
  | VSet [] -> Vtype.Setof Vtype.Any
  | VSet (x :: _) ->
    let rec first_type = function
      | VSet [] -> Vtype.Setof Vtype.Any
      | VSet (y :: _) -> Vtype.Setof (first_type y)
      | v -> simple_type v
    and simple_type v =
      match v with
      | VInt _ -> Vtype.Int
      | VFloat _ -> Vtype.Float
      | VString _ -> Vtype.String
      | VBool _ -> Vtype.Bool
      | VImage _ -> Vtype.Image
      | VComposite _ -> Vtype.Composite
      | VMatrix _ -> Vtype.Matrix
      | VVector _ -> Vtype.Vector
      | VBox _ -> Vtype.Box
      | VAbstime _ -> Vtype.Abstime
      | VInterval _ -> Vtype.Interval
      | VSet _ -> first_type v
    in
    Vtype.Setof (first_type x)

(* all NaNs are identified: serialization cannot preserve NaN payload
   bits, and scientific reproducibility wants NaN = NaN here *)
let float_bits f =
  if Float.is_nan f then 0x7ff8000000000000L else Int64.bits_of_float f

let rec equal a b =
  match a, b with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> float_bits x = float_bits y
  | VString x, VString y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VImage x, VImage y -> Image.equal x y
  | VComposite x, VComposite y -> Composite.equal x y
  | VMatrix x, VMatrix y -> Matrix.equal x y
  | VVector x, VVector y -> x = y
  | VBox x, VBox y -> Box.equal x y
  | VAbstime x, VAbstime y -> Abstime.equal x y
  | VInterval x, VInterval y -> Interval.equal x y
  | VSet x, VSet y ->
    List.length x = List.length y && List.for_all2 equal x y
  | ( ( VInt _ | VFloat _ | VString _ | VBool _ | VImage _ | VComposite _
      | VMatrix _ | VVector _ | VBox _ | VAbstime _ | VInterval _ | VSet _ ),
      _ ) -> false

let combine h1 h2 = (h1 * 1000003) lxor h2

(* fold the exponent and high mantissa bits, where an integral float
   keeps all its information, down into the low word *)
let float_hash f =
  let b = float_bits f in
  Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 29))

let rec raw_hash = function
  | VInt x -> combine 1 x
  | VFloat x -> combine 2 (float_hash x)
  | VString s -> combine 3 (Hashtbl.hash s)
  | VBool b -> combine 4 (if b then 1 else 0)
  | VImage i -> combine 5 (Image.content_hash i)
  | VComposite c -> combine 6 (Composite.content_hash c)
  | VMatrix m ->
    let h = ref (combine 7 (combine (Matrix.rows m) (Matrix.cols m))) in
    for i = 0 to Matrix.rows m - 1 do
      for j = 0 to Matrix.cols m - 1 do
        h := combine !h (float_hash (Matrix.get m i j))
      done
    done;
    !h
  | VVector v ->
    Array.fold_left (fun acc x -> combine acc (float_hash x)) 8 v
  | VBox b ->
    List.fold_left
      (fun acc x -> combine acc (float_hash x))
      9
      [ Box.xmin b; Box.ymin b; Box.xmax b; Box.ymax b ]
  | VAbstime t -> combine 10 (Abstime.to_seconds t)
  | VInterval i ->
    combine 11
      (combine
         (Abstime.to_seconds (Interval.start i))
         (Abstime.to_seconds (Interval.stop i)))
  | VSet items ->
    List.fold_left (fun acc v -> combine acc (raw_hash v)) 12 items

(* [combine] and the float / image hashes below it leave the low bits
   constant for integral floats, whole-day timestamps and multiples of
   2^k, so every hash table keyed by a value would use one bucket.  A
   splitmix64-style avalanche over the 63-bit int fixes that; it is a
   bijection, so distinct raw hashes stay distinct.  Applied once at the
   top level: set elements combine their raw hashes. *)
let avalanche h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let content_hash v = avalanche (raw_hash v)

let int x = VInt x
let float x = VFloat x
let string x = VString x
let bool x = VBool x
let image x = VImage x
let composite x = VComposite x
let matrix x = VMatrix x
let vector x = VVector x
let box x = VBox x
let abstime x = VAbstime x
let interval x = VInterval x
let set x = VSet x

let type_error expected v =
  Error
    (Printf.sprintf "expected %s, got %s" expected
       (Vtype.to_string (type_of v)))

let to_int = function VInt x -> Ok x | v -> type_error "int" v

let to_float = function
  | VFloat x -> Ok x
  | VInt x -> Ok (float_of_int x)
  | v -> type_error "float" v

let to_bool = function VBool b -> Ok b | v -> type_error "bool" v
let to_image = function VImage i -> Ok i | v -> type_error "image" v

let to_composite = function
  | VComposite c -> Ok c
  | VImage i -> Ok (Composite.of_bands [ i ])
  | v -> type_error "composite" v

let to_matrix = function VMatrix m -> Ok m | v -> type_error "matrix" v
let to_vector = function VVector a -> Ok a | v -> type_error "vector" v
let to_box = function VBox b -> Ok b | v -> type_error "box" v
let to_abstime = function VAbstime t -> Ok t | v -> type_error "abstime" v
let to_interval = function VInterval i -> Ok i | v -> type_error "interval" v
let to_set = function VSet l -> Ok l | v -> type_error "set" v

let rec to_display = function
  | VInt x -> string_of_int x
  | VFloat x -> Printf.sprintf "%g" x
  | VString s -> Printf.sprintf "%S" s
  | VBool b -> string_of_bool b
  | VImage i ->
    Printf.sprintf "image<%dx%d:%s>" (Image.img_nrow i) (Image.img_ncol i)
      (Pixel.to_string (Image.img_type i))
  | VComposite c ->
    Printf.sprintf "composite<%d bands, %dx%d>" (Composite.n_bands c)
      (Composite.nrow c) (Composite.ncol c)
  | VMatrix m -> Printf.sprintf "matrix<%dx%d>" (Matrix.rows m) (Matrix.cols m)
  | VVector v -> Printf.sprintf "vector<%d>" (Array.length v)
  | VBox b -> Box.to_string b
  | VAbstime t -> Abstime.to_string t
  | VInterval i -> Interval.to_string i
  | VSet items ->
    "{" ^ String.concat ", " (List.map to_display items) ^ "}"

(* Serialization via S-expressions; floats as hex literals to round-trip
   exactly. *)
let fatom f = Sexp.atom (Printf.sprintf "%h" f)
let iatom i = Sexp.atom (string_of_int i)

let rec to_sexp = function
  | VInt x -> Sexp.list [ Sexp.atom "int"; iatom x ]
  | VFloat x -> Sexp.list [ Sexp.atom "float"; fatom x ]
  | VString s -> Sexp.list [ Sexp.atom "string"; Sexp.atom s ]
  | VBool b -> Sexp.list [ Sexp.atom "bool"; Sexp.atom (string_of_bool b) ]
  | VImage i -> Sexp.list (Sexp.atom "image" :: image_fields i)
  | VComposite c ->
    Sexp.list
      (Sexp.atom "composite"
       :: List.map (fun b -> Sexp.list (Sexp.atom "image" :: image_fields b))
            (Composite.bands c))
  | VMatrix m ->
    let cells = ref [] in
    for i = Matrix.rows m - 1 downto 0 do
      for j = Matrix.cols m - 1 downto 0 do
        cells := fatom (Matrix.get m i j) :: !cells
      done
    done;
    Sexp.list
      (Sexp.atom "matrix" :: iatom (Matrix.rows m) :: iatom (Matrix.cols m)
       :: !cells)
  | VVector v ->
    Sexp.list (Sexp.atom "vector" :: Array.to_list (Array.map fatom v))
  | VBox b ->
    Sexp.list
      [ Sexp.atom "box"; fatom (Box.xmin b); fatom (Box.ymin b);
        fatom (Box.xmax b); fatom (Box.ymax b) ]
  | VAbstime t -> Sexp.list [ Sexp.atom "abstime"; iatom (Abstime.to_seconds t) ]
  | VInterval i ->
    Sexp.list
      [ Sexp.atom "interval";
        iatom (Abstime.to_seconds (Interval.start i));
        iatom (Abstime.to_seconds (Interval.stop i)) ]
  | VSet items -> Sexp.list (Sexp.atom "set" :: List.map to_sexp items)

and image_fields i =
  iatom (Image.img_nrow i) :: iatom (Image.img_ncol i)
  :: Sexp.atom (Pixel.to_string (Image.img_type i))
  :: Sexp.atom (Image.img_label i)
  :: List.map fatom (Image.to_list i)

let ( let* ) r f = Result.bind r f

let parse_int s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error ("not an int: " ^ s)

let parse_float s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error ("not a float: " ^ s)

let atom_of = function
  | Sexp.Atom a -> Ok a
  | Sexp.List _ -> Error "expected atom"

let rec of_sexp sexp =
  match sexp with
  | Sexp.Atom a -> Error ("bare atom: " ^ a)
  | Sexp.List (Sexp.Atom tag :: rest) -> parse_tagged tag rest
  | Sexp.List _ -> Error "list without a tag"

and parse_image_fields fields =
  match fields with
  | nrow :: ncol :: ptype :: label :: pixels ->
    let* nrow = Result.bind (atom_of nrow) parse_int in
    let* ncol = Result.bind (atom_of ncol) parse_int in
    let* pt_str = atom_of ptype in
    let* label = atom_of label in
    let* ptype =
      match Pixel.of_string pt_str with
      | Some p -> Ok p
      | None -> Error ("bad pixel type: " ^ pt_str)
    in
    let* values =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* f = Result.bind (atom_of p) parse_float in
          Ok (f :: acc))
        (Ok []) pixels
    in
    let arr = Array.of_list (List.rev values) in
    if Array.length arr <> nrow * ncol then Error "image pixel count mismatch"
    else
      (try Ok (Image.of_array ~label ~nrow ~ncol ptype arr)
       with Invalid_argument m -> Error m)
  | _ -> Error "malformed image"

and parse_tagged tag rest =
  match tag, rest with
  | "int", [ a ] -> Result.map int (Result.bind (atom_of a) parse_int)
  | "float", [ a ] -> Result.map float (Result.bind (atom_of a) parse_float)
  | "string", [ a ] -> Result.map string (atom_of a)
  | "bool", [ a ] ->
    let* s = atom_of a in
    (match bool_of_string_opt s with
     | Some b -> Ok (bool b)
     | None -> Error ("bad bool: " ^ s))
  | "image", fields -> Result.map image (parse_image_fields fields)
  | "composite", bands ->
    let* imgs =
      List.fold_left
        (fun acc b ->
          let* acc = acc in
          match b with
          | Sexp.List (Sexp.Atom "image" :: fields) ->
            let* img = parse_image_fields fields in
            Ok (img :: acc)
          | _ -> Error "composite: expected image")
        (Ok []) bands
    in
    (match List.rev imgs with
     | [] -> Error "composite: no bands"
     | l ->
       (try Ok (composite (Composite.of_bands l))
        with Invalid_argument m -> Error m))
  | "matrix", rows :: cols :: cells ->
    let* rows = Result.bind (atom_of rows) parse_int in
    let* cols = Result.bind (atom_of cols) parse_int in
    let* values =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* f = Result.bind (atom_of c) parse_float in
          Ok (f :: acc))
        (Ok []) cells
    in
    let arr = Array.of_list (List.rev values) in
    if Array.length arr <> rows * cols then Error "matrix cell count mismatch"
    else if rows <= 0 || cols <= 0 then Error "matrix: bad dims"
    else
      Ok (matrix (Matrix.init ~rows ~cols (fun i j -> arr.((i * cols) + j))))
  | "vector", cells ->
    let* values =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* f = Result.bind (atom_of c) parse_float in
          Ok (f :: acc))
        (Ok []) cells
    in
    Ok (vector (Array.of_list (List.rev values)))
  | "box", [ a; b; c; d ] ->
    let* xmin = Result.bind (atom_of a) parse_float in
    let* ymin = Result.bind (atom_of b) parse_float in
    let* xmax = Result.bind (atom_of c) parse_float in
    let* ymax = Result.bind (atom_of d) parse_float in
    (try Ok (box (Box.make ~xmin ~ymin ~xmax ~ymax))
     with Invalid_argument m -> Error m)
  | "abstime", [ a ] ->
    Result.map
      (fun s -> abstime (Abstime.of_seconds s))
      (Result.bind (atom_of a) parse_int)
  | "interval", [ a; b ] ->
    let* s = Result.bind (atom_of a) parse_int in
    let* e = Result.bind (atom_of b) parse_int in
    (try
       Ok (interval (Interval.make (Abstime.of_seconds s) (Abstime.of_seconds e)))
     with Invalid_argument m -> Error m)
  | "set", items ->
    let* parsed =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* v = of_sexp item in
          Ok (v :: acc))
        (Ok []) items
    in
    Ok (set (List.rev parsed))
  | tag, _ -> Error ("unknown or malformed tag: " ^ tag)
