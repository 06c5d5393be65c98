module R = Gaea_raster
module G = Gaea_geo

type class_info = {
  cname : string;
  repr : Vtype.t;
  cdoc : string;
}

type t = {
  classes : (string, class_info) Hashtbl.t;
  operators : (string, Operator.t) Hashtbl.t;
  compounds : (string, Dataflow.t) Hashtbl.t;
}

let create () =
  { classes = Hashtbl.create 32;
    operators = Hashtbl.create 128;
    compounds = Hashtbl.create 8 }

let register_class t ~name ~repr ?(doc = "") () =
  if Hashtbl.mem t.classes name then
    Error (Printf.sprintf "class %s already registered" name)
  else begin
    Hashtbl.add t.classes name { cname = name; repr; cdoc = doc };
    Ok ()
  end

let register_operator t op =
  let name = Operator.name op in
  if Hashtbl.mem t.operators name then
    Error (Printf.sprintf "operator %s already registered" name)
  else begin
    Hashtbl.add t.operators name op;
    Ok ()
  end

let find_operator t name = Hashtbl.find_opt t.operators name
let find_compound t name = Hashtbl.find_opt t.compounds name

let register_compound t network =
  let op = Dataflow.to_operator ~lookup:(find_operator t) network in
  match register_operator t op with
  | Error _ as e -> e
  | Ok () ->
    Hashtbl.add t.compounds network.Dataflow.name network;
    Ok ()

let apply t name args =
  match find_operator t name with
  | None -> Error (Printf.sprintf "unknown operator %s" name)
  | Some op -> Operator.apply op args

let arity t name =
  Option.map
    (fun op ->
      let s = Operator.signature op in
      match s.Operator.variadic with
      | Some _ -> `Variadic
      | None -> `Fixed (List.length s.Operator.params))
    (find_operator t name)

let mentions_type vt op =
  let s = Operator.signature op in
  let matches p = Vtype.equal (Vtype.base p) (Vtype.base vt) in
  List.exists matches s.Operator.params
  || (match s.Operator.variadic with Some v -> matches v | None -> false)

let operators_for_type t vt =
  Hashtbl.fold
    (fun _ op acc -> if mentions_type vt op then op :: acc else acc)
    t.operators []
  |> List.sort (fun a b -> compare (Operator.name a) (Operator.name b))

let classes_with_operator t opname =
  match find_operator t opname with
  | None -> []
  | Some op ->
    Hashtbl.fold
      (fun _ ci acc -> if mentions_type ci.repr op then ci :: acc else acc)
      t.classes []
    |> List.sort (fun a b -> compare a.cname b.cname)

let all_operators t =
  Hashtbl.fold (fun _ op acc -> op :: acc) t.operators []
  |> List.sort (fun a b -> compare (Operator.name a) (Operator.name b))

let all_classes t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []
  |> List.sort (fun a b -> compare a.cname b.cname)

let operator_count t = Hashtbl.length t.operators

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let ok_int i = Ok (Value.int i)
let ok_float f = Ok (Value.float f)
let ok_bool b = Ok (Value.bool b)
let ok_img i = Ok (Value.image i)

open Vtype

let op = Operator.make

(* --- image class operators (paper Section 2.1.3) ------------------- *)

let image_operators =
  [ Operator.lift1 ~name:"img_nrow" ~doc:"number of rows of an image" Image
      Int (fun v ->
        let* i = Value.to_image v in
        ok_int (R.Image.img_nrow i));
    Operator.lift1 ~name:"img_ncol" ~doc:"number of columns of an image"
      Image Int (fun v ->
        let* i = Value.to_image v in
        ok_int (R.Image.img_ncol i));
    Operator.lift1 ~name:"img_type" ~doc:"pixel data type of an image" Image
      String (fun v ->
        let* i = Value.to_image v in
        Ok (Value.string (R.Pixel.to_string (R.Image.img_type i))));
    Operator.lift1 ~name:"img_filepath"
      ~doc:"label of an image (role of the paper's file path)" Image String
      (fun v ->
        let* i = Value.to_image v in
        Ok (Value.string (R.Image.img_label i)));
    Operator.lift2 ~name:"img_size_eq" ~doc:"check if two image sizes are equal"
      Image Image Bool (fun a b ->
        let* x = Value.to_image a in
        let* y = Value.to_image b in
        ok_bool (R.Image.img_size_eq x y));
    Operator.lift1 ~name:"img_mean" ~doc:"mean pixel value" Image Float
      (fun v ->
        let* i = Value.to_image v in
        ok_float (R.Imgstats.mean i));
    Operator.lift1 ~name:"img_stddev" ~doc:"pixel standard deviation" Image
      Float (fun v ->
        let* i = Value.to_image v in
        ok_float (R.Imgstats.stddev i));
    Operator.lift1 ~name:"img_min" ~doc:"minimum pixel value" Image Float
      (fun v ->
        let* i = Value.to_image v in
        ok_float (fst (R.Image.min_max i)));
    Operator.lift1 ~name:"img_max" ~doc:"maximum pixel value" Image Float
      (fun v ->
        let* i = Value.to_image v in
        ok_float (snd (R.Image.min_max i)));
    Operator.lift2 ~name:"img_agreement"
      ~doc:"fraction of pixels with equal values in two label images" Image
      Image Float (fun a b ->
        let* x = Value.to_image a in
        let* y = Value.to_image b in
        ok_float (R.Imgstats.agreement x y));
    Operator.lift2 ~name:"img_rmse" ~doc:"root mean square difference" Image
      Image Float (fun a b ->
        let* x = Value.to_image a in
        let* y = Value.to_image b in
        ok_float (R.Imgstats.rmse x y)) ]

(* --- composite operators ------------------------------------------ *)

let composite_operators =
  [ op ~name:"composite"
      ~doc:"stack image bands into a multi-band composite (Fig 3)"
      ~params:[] ~variadic:Image ~returns:Composite (fun args ->
        let* imgs =
          List.fold_left
            (fun acc v ->
              let* acc = acc in
              let* i = Value.to_image v in
              Ok (i :: acc))
            (Ok []) args
        in
        match List.rev imgs with
        | [] -> Error "composite: no bands"
        | bands -> Ok (Value.composite (R.Composite.of_bands bands)));
    op ~name:"composite_of_set"
      ~doc:"stack a SETOF image value into a composite"
      ~params:[ Setof Image ] ~returns:Composite (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          let* imgs =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                let* i = Value.to_image v in
                Ok (i :: acc))
              (Ok []) items
          in
          (match List.rev imgs with
           | [] -> Error "composite_of_set: empty set"
           | bands -> Ok (Value.composite (R.Composite.of_bands bands)))
        | _ -> Error "composite_of_set: arity");
    Operator.lift2 ~name:"composite_band" ~doc:"extract band i of a composite"
      Composite Int Image (fun c i ->
        let* comp = Value.to_composite c in
        let* idx = Value.to_int i in
        ok_img (R.Composite.band comp idx));
    Operator.lift1 ~name:"n_bands" ~doc:"number of bands of a composite"
      Composite Int (fun v ->
        let* c = Value.to_composite v in
        ok_int (R.Composite.n_bands c));
    Operator.lift1 ~name:"comp_nrow" ~doc:"rows of a composite" Composite Int
      (fun v ->
        let* c = Value.to_composite v in
        ok_int (R.Composite.nrow c));
    Operator.lift1 ~name:"comp_ncol" ~doc:"columns of a composite" Composite
      Int (fun v ->
        let* c = Value.to_composite v in
        ok_int (R.Composite.ncol c)) ]

(* --- classification ------------------------------------------------ *)

let classification_operators =
  [ Operator.lift2 ~name:"unsuperclassify"
      ~doc:"unsupervised classification into k classes (process P20, Fig 3)"
      Composite Int Image (fun c k ->
        let* comp = Value.to_composite c in
        let* k = Value.to_int k in
        ok_img (R.Kmeans.unsuperclassify comp k).R.Kmeans.labels);
    Operator.lift2 ~name:"superclassify"
      ~doc:"supervised maximum-likelihood classification from a training \
            label image (labels < 0 mean unlabelled)"
      Composite Image Image (fun c truth ->
        let* comp = Value.to_composite c in
        let* tr = Value.to_image truth in
        let model = R.Maxlike.train comp tr in
        ok_img (R.Maxlike.classify model comp)) ]

(* --- band math / NDVI ---------------------------------------------- *)

let img2 name doc f =
  Operator.lift2 ~name ~doc Image Image Image (fun a b ->
      let* x = Value.to_image a in
      let* y = Value.to_image b in
      ok_img (f x y))

let band_math_operators =
  [ img2 "img_subtract" "pixel-wise difference a - b" (fun a b ->
        R.Band_math.subtract a b);
    img2 "img_divide" "pixel-wise ratio a / b (0 where b = 0)" (fun a b ->
        R.Band_math.divide a b);
    img2 "img_ratio" "normalized ratio (a-b)/(a+b)" (fun a b ->
        R.Band_math.ratio a b);
    img2 "img_add" "pixel-wise sum" (fun a b -> R.Band_math.add a b);
    img2 "img_multiply" "pixel-wise product" (fun a b ->
        R.Band_math.multiply a b);
    img2 "img_abs_diff" "pixel-wise absolute difference" (fun a b ->
        R.Band_math.abs_diff a b);
    Operator.lift2 ~name:"img_scale" ~doc:"multiply pixels by a scalar" Float
      Image Image (fun s v ->
        let* s = Value.to_float s in
        let* i = Value.to_image v in
        ok_img (R.Band_math.scale s i));
    Operator.lift2 ~name:"img_offset" ~doc:"add a scalar to pixels" Float
      Image Image (fun s v ->
        let* s = Value.to_float s in
        let* i = Value.to_image v in
        ok_img (R.Band_math.offset s i));
    Operator.lift2 ~name:"img_threshold"
      ~doc:"binary mask of pixels >= cutoff" Image Float Image (fun v s ->
        let* i = Value.to_image v in
        let* s = Value.to_float s in
        ok_img (R.Band_math.threshold s i));
    Operator.lift2 ~name:"img_threshold_below"
      ~doc:"binary mask of pixels < cutoff (e.g. rainfall < 250mm)" Image
      Float Image (fun v s ->
        let* i = Value.to_image v in
        let* s = Value.to_float s in
        ok_img (R.Band_math.threshold_below s i));
    Operator.lift1 ~name:"img_normalize" ~doc:"rescale pixels onto 0..1"
      Image Image (fun v ->
        let* i = Value.to_image v in
        ok_img (R.Band_math.normalize i));
    img2 "ndvi" "normalized difference vegetation index from (red, nir)"
      (fun red nir -> R.Ndvi.ndvi ~red ~nir ());
    op ~name:"img_linear_combination"
      ~doc:"weighted sum of images (Fig 4 linear-combination)"
      ~params:[ Vector ] ~variadic:Image ~returns:Image (fun args ->
        match args with
        | w :: imgs when imgs <> [] ->
          let* weights = Value.to_vector w in
          let* imgs =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                let* i = Value.to_image v in
                Ok (i :: acc))
              (Ok []) imgs
          in
          ok_img (R.Band_math.linear_combination weights (List.rev imgs))
        | _ -> Error "img_linear_combination: needs weights and images") ]

(* --- interpolation -------------------------------------------------- *)

let interpolation_operators =
  [ op ~name:"temporal_interpolate"
      ~doc:"linear interpolation between (img1,t1) and (img2,t2) at time t"
      ~params:[ Image; Abstime; Image; Abstime; Abstime ] ~returns:Image
      (fun args ->
        match args with
        | [ i1; t1; i2; t2; at ] ->
          let* img1 = Value.to_image i1 in
          let* time1 = Value.to_abstime t1 in
          let* img2 = Value.to_image i2 in
          let* time2 = Value.to_abstime t2 in
          let* at = Value.to_abstime at in
          ok_img (R.Interpolate.temporal_linear ~at (time1, img1) (time2, img2))
        | _ -> Error "temporal_interpolate: arity");
    op ~name:"resize_nearest" ~doc:"nearest-neighbour spatial resampling"
      ~params:[ Image; Int; Int ] ~returns:Image (fun args ->
        match args with
        | [ i; r; c ] ->
          let* img = Value.to_image i in
          let* nrow = Value.to_int r in
          let* ncol = Value.to_int c in
          ok_img (R.Interpolate.resize_nearest img ~nrow ~ncol)
        | _ -> Error "resize_nearest: arity");
    op ~name:"resize_bilinear" ~doc:"bilinear spatial resampling"
      ~params:[ Image; Int; Int ] ~returns:Image (fun args ->
        match args with
        | [ i; r; c ] ->
          let* img = Value.to_image i in
          let* nrow = Value.to_int r in
          let* ncol = Value.to_int c in
          ok_img (R.Interpolate.resize_bilinear img ~nrow ~ncol)
        | _ -> Error "resize_bilinear: arity");
    Operator.lift1 ~name:"fill_missing"
      ~doc:"fill NaN holes from neighbouring pixels" Image Image (fun v ->
        let* i = Value.to_image v in
        ok_img (R.Interpolate.fill_missing i)) ]

(* --- matrix / PCA stages (Fig 4) ------------------------------------ *)

let matrix_operators =
  [ Operator.lift1 ~name:"convert_image_matrix"
      ~doc:"pixels-by-bands observation matrix of a composite (Fig 4)"
      Composite Matrix (fun v ->
        let* c = Value.to_composite v in
        Ok (Value.matrix (R.Pca.convert_image_matrix c)));
    Operator.lift1 ~name:"center_columns" ~doc:"subtract column means" Matrix
      Matrix (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.matrix (fst (R.Matrix.center_columns m))));
    Operator.lift1 ~name:"standardize_columns"
      ~doc:"center and scale columns to unit variance" Matrix Matrix
      (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.matrix (R.Matrix.standardize_columns m)));
    Operator.lift1 ~name:"compute_covariance"
      ~doc:"covariance of matrix columns (Fig 4)" Matrix Matrix (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.matrix (R.Pca.compute_covariance m)));
    Operator.lift1 ~name:"compute_correlation"
      ~doc:"correlation of matrix columns (SPCA variant)" Matrix Matrix
      (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.matrix (R.Pca.compute_correlation m)));
    Operator.lift1 ~name:"get_eigen_vector"
      ~doc:"eigenvectors of a symmetric matrix, columns sorted by \
            descending eigenvalue (Fig 4)"
      Matrix Matrix (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.matrix (R.Pca.get_eigen_vector m).R.Eigen.vectors));
    Operator.lift1 ~name:"get_eigen_values"
      ~doc:"eigenvalues of a symmetric matrix, descending" Matrix Vector
      (fun v ->
        let* m = Value.to_matrix v in
        Ok (Value.vector (R.Pca.get_eigen_vector m).R.Eigen.values));
    Operator.lift2 ~name:"take_columns" ~doc:"first k columns of a matrix"
      Matrix Int Matrix (fun v k ->
        let* m = Value.to_matrix v in
        let* k = Value.to_int k in
        if k < 1 || k > R.Matrix.cols m then
          Error (Printf.sprintf "take_columns: k=%d outside 1..%d" k (R.Matrix.cols m))
        else
          Ok
            (Value.matrix
               (R.Matrix.init ~rows:(R.Matrix.rows m) ~cols:k (fun i j ->
                    R.Matrix.get m i j))));
    Operator.lift2 ~name:"matrix_mul" ~doc:"matrix product" Matrix Matrix
      Matrix (fun a b ->
        let* x = Value.to_matrix a in
        let* y = Value.to_matrix b in
        Ok (Value.matrix (R.Matrix.mul x y)));
    op ~name:"convert_matrix_image"
      ~doc:"rebuild band images from a pixels-by-bands matrix (Fig 4)"
      ~params:[ Matrix; Int; Int ] ~returns:Composite (fun args ->
        match args with
        | [ m; r; c ] ->
          let* m = Value.to_matrix m in
          let* nrow = Value.to_int r in
          let* ncol = Value.to_int c in
          Ok (Value.composite (R.Pca.convert_matrix_image ~nrow ~ncol m))
        | _ -> Error "convert_matrix_image: arity");
    Operator.lift2 ~name:"pca_native"
      ~doc:"principal components (native implementation, for ablation \
            against the compound-operator network)"
      Composite Int Composite (fun c k ->
        let* comp = Value.to_composite c in
        let* k = Value.to_int k in
        Ok (Value.composite (R.Pca.pca ~components:k comp).R.Pca.components));
    Operator.lift2 ~name:"spca_native"
      ~doc:"standardized principal components (native implementation)"
      Composite Int Composite (fun c k ->
        let* comp = Value.to_composite c in
        let* k = Value.to_int k in
        Ok (Value.composite (R.Pca.spca ~components:k comp).R.Pca.components)) ]

(* --- spatial / temporal extents ------------------------------------- *)

let extent_operators =
  [ Operator.lift1 ~name:"box_area" ~doc:"area of a bounding box" Box Float
      (fun v ->
        let* b = Value.to_box v in
        ok_float (G.Box.area b));
    Operator.lift2 ~name:"box_overlaps" ~doc:"do two boxes overlap" Box Box
      Bool (fun a b ->
        let* x = Value.to_box a in
        let* y = Value.to_box b in
        ok_bool (G.Box.overlaps x y));
    Operator.lift2 ~name:"box_contains" ~doc:"does the first box contain the second"
      Box Box Bool (fun a b ->
        let* x = Value.to_box a in
        let* y = Value.to_box b in
        ok_bool (G.Box.contains ~outer:x ~inner:y));
    Operator.lift2 ~name:"box_hull" ~doc:"smallest box covering both" Box Box
      Box (fun a b ->
        let* x = Value.to_box a in
        let* y = Value.to_box b in
        Ok (Value.box (G.Box.hull x y)));
    Operator.lift2 ~name:"box_intersection" ~doc:"intersection of two boxes"
      Box Box Box (fun a b ->
        let* x = Value.to_box a in
        let* y = Value.to_box b in
        match G.Box.intersection x y with
        | Some i -> Ok (Value.box i)
        | None -> Error "box_intersection: boxes do not overlap");
    Operator.lift2 ~name:"time_add_days" ~doc:"shift a timestamp by days"
      Abstime Int Abstime (fun t d ->
        let* time = Value.to_abstime t in
        let* days = Value.to_int d in
        Ok (Value.abstime (G.Abstime.add_days time days)));
    Operator.lift2 ~name:"time_diff_days"
      ~doc:"difference between timestamps in days" Abstime Abstime Float
      (fun a b ->
        let* x = Value.to_abstime a in
        let* y = Value.to_abstime b in
        ok_float (G.Abstime.diff_days x y));
    Operator.lift2 ~name:"interval_make" ~doc:"closed interval from two timestamps"
      Abstime Abstime Interval (fun a b ->
        let* s = Value.to_abstime a in
        let* e = Value.to_abstime b in
        Ok (Value.interval (G.Interval.make s e)));
    Operator.lift2 ~name:"interval_overlaps" ~doc:"do two intervals overlap"
      Interval Interval Bool (fun a b ->
        let* x = Value.to_interval a in
        let* y = Value.to_interval b in
        ok_bool (G.Interval.overlaps x y));
    Operator.lift2 ~name:"interval_contains"
      ~doc:"does the interval contain the timestamp" Interval Abstime Bool
      (fun i t ->
        let* iv = Value.to_interval i in
        let* time = Value.to_abstime t in
        ok_bool (G.Interval.contains iv time));
    Operator.lift2 ~name:"allen_relation"
      ~doc:"Allen's relation between two proper intervals" Interval Interval
      String (fun a b ->
        let* x = Value.to_interval a in
        let* y = Value.to_interval b in
        Ok (Value.string (G.Allen.to_string (G.Allen.relate x y)))) ]

(* --- template / set operators (ASSERTIONS of Fig 3) ------------------ *)

let template_operators =
  [ op ~name:"anyof"
      ~doc:"an arbitrary (first) element of a set — ANYOF of Fig 3"
      ~params:[ Setof Any ] ~returns:Any (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          (match items with
           | x :: _ -> Ok x
           | [] -> Error "anyof: empty set")
        | _ -> Error "anyof: arity");
    op ~name:"card" ~doc:"cardinality of a set — card of Fig 3"
      ~params:[ Setof Any ] ~returns:Int (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          ok_int (List.length items)
        | _ -> Error "card: arity");
    op ~name:"common_boxes"
      ~doc:"spatial extents of a set are the same or overlap (Fig 3 \
            common rule)"
      ~params:[ Setof Box ] ~returns:Bool (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          let* boxes =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                let* b = Value.to_box v in
                Ok (b :: acc))
              (Ok []) items
          in
          ok_bool (G.Extent.common_space boxes)
        | _ -> Error "common_boxes: arity");
    op ~name:"common_times"
      ~doc:"timestamps of a set agree (within a day) — common rule on \
            temporal extents"
      ~params:[ Setof Abstime ] ~returns:Bool (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          let* times =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                let* t = Value.to_abstime v in
                Ok (t :: acc))
              (Ok []) items
          in
          let close a b = Float.abs (G.Abstime.diff_days a b) <= 1.0 in
          let rec pairwise = function
            | [] | [ _ ] -> true
            | x :: rest -> List.for_all (close x) rest && pairwise rest
          in
          ok_bool (pairwise times)
        | _ -> Error "common_times: arity");
    op ~name:"common_intervals"
      ~doc:"temporal intervals of a set pairwise overlap"
      ~params:[ Setof Interval ] ~returns:Bool (fun args ->
        match args with
        | [ v ] ->
          let* items = Value.to_set v in
          let* intervals =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                let* i = Value.to_interval v in
                Ok (i :: acc))
              (Ok []) items
          in
          ok_bool (G.Extent.common_time intervals)
        | _ -> Error "common_intervals: arity") ]

(* --- scalar arithmetic / comparison --------------------------------- *)

let scalar_operators =
  let f2 name doc fn =
    Operator.lift2 ~name ~doc Float Float Float (fun a b ->
        let* x = Value.to_float a in
        let* y = Value.to_float b in
        ok_float (fn x y))
  in
  let cmp name doc fn =
    Operator.lift2 ~name ~doc Float Float Bool (fun a b ->
        let* x = Value.to_float a in
        let* y = Value.to_float b in
        ok_bool (fn x y))
  in
  [ f2 "fadd" "float addition" ( +. );
    f2 "fsub" "float subtraction" ( -. );
    f2 "fmul" "float multiplication" ( *. );
    f2 "fdiv" "float division (error on 0)" (fun x y ->
        if y = 0. then invalid_arg "division by zero" else x /. y);
    f2 "fmin" "minimum" Float.min;
    f2 "fmax" "maximum" Float.max;
    cmp "lt" "strictly less" ( < );
    cmp "le" "less or equal" ( <= );
    cmp "gt" "strictly greater" ( > );
    cmp "ge" "greater or equal" ( >= );
    Operator.lift2 ~name:"eq" ~doc:"structural equality of any two values"
      Any Any Bool (fun a b -> ok_bool (Value.equal a b));
    Operator.lift2 ~name:"and" ~doc:"logical and" Bool Bool Bool (fun a b ->
        let* x = Value.to_bool a in
        let* y = Value.to_bool b in
        ok_bool (x && y));
    Operator.lift2 ~name:"or" ~doc:"logical or" Bool Bool Bool (fun a b ->
        let* x = Value.to_bool a in
        let* y = Value.to_bool b in
        ok_bool (x || y));
    Operator.lift1 ~name:"not" ~doc:"logical negation" Bool Bool (fun v ->
        let* b = Value.to_bool v in
        ok_bool (not b)) ]

(* --- synthetic data generators (the DESIGN.md substitution for real
   satellite feeds; exposed as operators so query scripts can ingest
   reproducible test scenes) ----------------------------------------- *)

let synthetic_operators =
  let int3 name doc f =
    op ~name ~doc ~params:[ Int; Int; Int ] ~returns:Image (fun args ->
        match args with
        | [ a; b; c ] ->
          let* seed = Value.to_int a in
          let* nrow = Value.to_int b in
          let* ncol = Value.to_int c in
          ok_img (f ~seed ~nrow ~ncol)
        | _ -> Error (name ^ ": arity"))
  in
  [ int3 "synth_band" "seeded spatially-correlated image band (seed, nrow, ncol)"
      (* labelled "scale" as when Band_math.scale made it: saves keep
         the label *)
      (fun ~seed ~nrow ~ncol ->
        R.Synthetic.value_noise ~seed ~nrow ~ncol ~label:"scale" ~scale:255.
          ());
    int3 "synth_rainfall" "seeded rainfall map in mm (seed, nrow, ncol)"
      (fun ~seed ~nrow ~ncol -> R.Synthetic.rainfall_map ~seed ~nrow ~ncol ());
    op ~name:"synth_truth"
      ~doc:"seeded land-cover truth labels (seed, nrow, ncol, classes)"
      ~params:[ Int; Int; Int; Int ] ~returns:Image (fun args ->
        match args with
        | [ a; b; c; d ] ->
          let* seed = Value.to_int a in
          let* nrow = Value.to_int b in
          let* ncol = Value.to_int c in
          let* classes = Value.to_int d in
          ok_img (R.Synthetic.landcover_truth ~seed ~nrow ~ncol ~classes)
        | _ -> Error "synth_truth: arity");
    op ~name:"make_abstime" ~doc:"timestamp from (year, month, day)"
      ~params:[ Int; Int; Int ] ~returns:Abstime (fun args ->
        match args with
        | [ y; m; d ] ->
          let* y = Value.to_int y in
          let* m = Value.to_int m in
          let* d = Value.to_int d in
          Ok (Value.abstime (G.Abstime.of_ymd y m d))
        | _ -> Error "make_abstime: arity");
    op ~name:"make_box" ~doc:"bounding box from (xmin, ymin, xmax, ymax)"
      ~params:[ Float; Float; Float; Float ] ~returns:Box (fun args ->
        match args with
        | [ a; b; c; d ] ->
          let* xmin = Value.to_float a in
          let* ymin = Value.to_float b in
          let* xmax = Value.to_float c in
          let* ymax = Value.to_float d in
          Ok (Value.box (G.Box.make ~xmin ~ymin ~xmax ~ymax))
        | _ -> Error "make_box: arity") ]

(* --- the pca / spca compound networks (Fig 4) ----------------------- *)

let pca_network ~standardized =
  let open Dataflow in
  let prep = if standardized then "standardize_columns" else "center_columns" in
  let sym = if standardized then "compute_correlation" else "compute_covariance" in
  let name = if standardized then "spca" else "pca" in
  let nodes =
    [ node 1 "convert_image_matrix" [ From_input 0 ];
      node 2 prep [ From_node 1 ];
      node 3 sym [ From_node 1 ];
      node 4 "get_eigen_vector" [ From_node 3 ];
      node 5 "take_columns" [ From_node 4; From_input 1 ];
      node 6 "matrix_mul" [ From_node 2; From_node 5 ];
      node 7 "comp_nrow" [ From_input 0 ];
      node 8 "comp_ncol" [ From_input 0 ];
      node 9 "convert_matrix_image" [ From_node 6; From_node 7; From_node 8 ] ]
  in
  match
    make ~name
      ~doc:
        (if standardized then
           "standardized principal component analysis (Eastman 1992) as a \
            compound-operator dataflow network"
         else "principal component analysis as the Fig 4 dataflow network")
      ~input_types:[ Composite; Int ] ~returns:Composite ~nodes
      (From_node 9)
  with
  | Ok n -> n
  | Error e -> failwith ("pca_network: " ^ e)

let builtin_classes =
  [ ("int", Int, "integers");
    ("float", Float, "floating point numbers");
    ("string", String, "character strings (char16 of the paper)");
    ("bool", Bool, "booleans");
    ("image", Image, "raster image (nrows, ncols, pixtype, data)");
    ("composite", Composite, "multi-band image stack");
    ("matrix", Matrix, "dense matrix");
    ("vector", Vector, "dense vector");
    ("box", Box, "2-D bounding box (spatial extent)");
    ("abstime", Abstime, "absolute time (temporal extent)");
    ("interval", Interval, "closed time interval") ]

let with_builtins () =
  let t = create () in
  List.iter
    (fun (name, repr, doc) ->
      match register_class t ~name ~repr ~doc () with
      | Ok () -> ()
      | Error e -> failwith e)
    builtin_classes;
  List.iter
    (fun op ->
      match register_operator t op with
      | Ok () -> ()
      | Error e -> failwith e)
    (image_operators @ composite_operators @ classification_operators
     @ band_math_operators @ interpolation_operators @ matrix_operators
     @ extent_operators @ template_operators @ scalar_operators
     @ synthetic_operators);
  (match register_compound t (pca_network ~standardized:false) with
   | Ok () -> ()
   | Error e -> failwith e);
  (match register_compound t (pca_network ~standardized:true) with
   | Ok () -> ()
   | Error e -> failwith e);
  t
