module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Interval = Gaea_geo.Interval
module Extent = Gaea_geo.Extent
module Synthetic = Gaea_raster.Synthetic
module Composite = Gaea_raster.Composite

let ( let* ) r f = Result.bind r f

let landsat_class = "landsat_tm_rect"
let land_cover_class = "land_cover"
let p20_name = "unsupervised-classification"

(* the common descriptive attributes of the paper's landcover class *)
let descriptive =
  [ ("area", Vtype.String);
    ("ref_system", Vtype.String);
    ("ref_unit", Vtype.String) ]

let extents = [ ("spatialextent", Vtype.Box); ("timestamp", Vtype.Abstime) ]

let default_extent =
  Extent.make
    (Box.make ~xmin:(-10.) ~ymin:10. ~xmax:30. ~ymax:35.)
    (Interval.instant (Abstime.of_ymd 1986 1 15))

(* ------------------------------------------------------------------ *)
(* Fig 3                                                               *)
(* ------------------------------------------------------------------ *)

let install_fig3 ?(k = 12) kernel =
  let* c1 =
    Schema.define ~name:landsat_class
      ~doc:"rectified Landsat TM band (paper's C1)"
      ~attributes:(descriptive @ [ ("band", Vtype.Int); ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel c1 in
  let* c20 =
    Schema.define ~name:land_cover_class
      ~doc:"land-cover classification (paper's C20)"
      ~attributes:
        (descriptive @ [ ("numclass", Vtype.Int); ("data", Vtype.Image) ] @ extents)
      ~derived_by:p20_name ()
  in
  let* () = Kernel.define_class kernel c20 in
  let open Template in
  let template =
    make
      ~assertions:
        [ Card_eq ("bands", 3);
          Common ("bands", "spatialextent");
          Common ("bands", "timestamp") ]
      ~mappings:
        [ { target = "data";
            rhs =
              Apply
                ( "unsuperclassify",
                  [ Apply ("composite", [ Attr_of ("bands", "data") ]);
                    Param "k" ] ) };
          { target = "numclass"; rhs = Param "k" };
          { target = "spatialextent";
            rhs = Anyof (Attr_of ("bands", "spatialextent")) };
          { target = "timestamp"; rhs = Anyof (Attr_of ("bands", "timestamp")) };
          { target = "area"; rhs = Anyof (Attr_of ("bands", "area")) };
          { target = "ref_system";
            rhs = Anyof (Attr_of ("bands", "ref_system")) };
          { target = "ref_unit"; rhs = Anyof (Attr_of ("bands", "ref_unit")) } ]
  in
  let* p20 =
    Process.define_primitive ~name:p20_name
      ~doc:"Fig 3: derive LAND_COVER from three rectified TM bands"
      ~output_class:land_cover_class
      ~args:[ Process.setof_arg ~card_min:3 ~card_max:3 "bands" landsat_class ]
      ~params:[ ("k", Value.int k) ]
      ~template ()
  in
  Kernel.define_process kernel p20

let load_tm_bands kernel ~seed ?(nrow = 64) ?(ncol = 64) ?(n_bands = 3)
    ?extent () =
  let extent = Option.value extent ~default:default_extent in
  let scene =
    Synthetic.landsat_scene ~seed ~nrow ~ncol ~bands:n_bands ~extent ()
  in
  let bands = Composite.bands scene.Synthetic.composite in
  let rec insert acc i = function
    | [] -> Ok (List.rev acc)
    | img :: rest ->
      let* oid =
        Kernel.insert_object kernel ~cls:landsat_class
          [ ("area", Value.string "africa-west");
            ("ref_system", Value.string "long/lat");
            ("ref_unit", Value.string "degree");
            ("band", Value.int (i + 1));
            ("data", Value.image img);
            ("spatialextent", Value.box scene.Synthetic.extent.Extent.space);
            ( "timestamp",
              Value.abstime
                (Interval.start scene.Synthetic.extent.Extent.time) ) ]
      in
      insert (oid :: acc) (i + 1) rest
  in
  insert [] 0 bands

(* ------------------------------------------------------------------ *)
(* Vegetation: NDVI + change (Section 1, Fig 2 C6/C7/C8)               *)
(* ------------------------------------------------------------------ *)

let avhrr_class = "avhrr_band"
let ndvi_class = "ndvi_map"
let veg_change_class = "veg_change"
let p_ndvi = "ndvi-derivation"
let p_change_sub = "veg-change-subtract"
let p_change_div = "veg-change-divide"
let p_change_spca = "veg-change-spca"

let install_vegetation kernel =
  let* avhrr =
    Schema.define ~name:avhrr_class ~doc:"AVHRR channel (1 = red, 2 = NIR)"
      ~attributes:
        (descriptive @ [ ("channel", Vtype.Int); ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel avhrr in
  let* ndvi =
    Schema.define ~name:ndvi_class
      ~doc:"normalized difference vegetation index (paper's C6)"
      ~attributes:([ ("data", Vtype.Image) ] @ extents)
      ~derived_by:p_ndvi ()
  in
  let* () = Kernel.define_class kernel ndvi in
  let* change =
    Schema.define ~name:veg_change_class
      ~doc:"vegetation change between two dates (paper's C7/C8)"
      ~attributes:
        ([ ("method", Vtype.String); ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel change in
  let open Template in
  (* channel-1 (red) and channel-2 (NIR) bands must be picked correctly:
     assertions pin the channels so binding search assigns them right *)
  let chan arg n =
    Expr_true (Apply ("eq", [ Attr_of (arg, "channel"); Const (Value.int n) ]))
  in
  let same_space a b =
    Expr_true
      (Apply
         ( "box_overlaps",
           [ Attr_of (a, "spatialextent"); Attr_of (b, "spatialextent") ] ))
  in
  let same_time a b =
    Expr_true
      (Apply ("eq", [ Attr_of (a, "timestamp"); Attr_of (b, "timestamp") ]))
  in
  let* ndvi_proc =
    Process.define_primitive ~name:p_ndvi
      ~doc:"NDVI = (NIR - RED)/(NIR + RED) from AVHRR channels"
      ~output_class:ndvi_class
      ~args:
        [ Process.scalar_arg "red" avhrr_class;
          Process.scalar_arg "nir" avhrr_class ]
      ~template:
        (make
           ~assertions:
             [ chan "red" 1; chan "nir" 2; same_space "red" "nir";
               same_time "red" "nir" ]
           ~mappings:
             [ { target = "data";
                 rhs =
                   Apply
                     ("ndvi", [ Attr_of ("red", "data"); Attr_of ("nir", "data") ]) };
               { target = "spatialextent";
                 rhs = Attr_of ("red", "spatialextent") };
               { target = "timestamp"; rhs = Attr_of ("red", "timestamp") } ])
      ()
  in
  let* () = Kernel.define_process kernel ndvi_proc in
  (* y1 strictly earlier than y2, overlapping extents *)
  let earlier a b =
    Expr_true
      (Apply
         ( "lt",
           [ Apply
               ( "time_diff_days",
                 [ Attr_of (a, "timestamp"); Attr_of (b, "timestamp") ] );
             Const (Value.float 0.) ] ))
  in
  let change_args =
    [ Process.scalar_arg "y1" ndvi_class; Process.scalar_arg "y2" ndvi_class ]
  in
  let change_assertions =
    [ earlier "y1" "y2"; same_space "y1" "y2" ]
  in
  let change_common target_method data_rhs =
    make ~assertions:change_assertions
      ~mappings:
        [ { target = "method"; rhs = Const (Value.string target_method) };
          { target = "data"; rhs = data_rhs };
          { target = "spatialextent"; rhs = Attr_of ("y2", "spatialextent") };
          { target = "timestamp"; rhs = Attr_of ("y2", "timestamp") } ]
  in
  let open Template in
  let* sub =
    Process.define_primitive ~name:p_change_sub
      ~doc:"scientist 1: NDVI(1989) - NDVI(1988)"
      ~output_class:veg_change_class ~args:change_args
      ~template:
        (change_common "subtract"
           (Apply
              ("img_subtract", [ Attr_of ("y2", "data"); Attr_of ("y1", "data") ])))
      ()
  in
  let* () = Kernel.define_process kernel sub in
  let* div =
    Process.define_primitive ~name:p_change_div
      ~doc:"scientist 2: NDVI(1989) / NDVI(1988)"
      ~output_class:veg_change_class ~args:change_args
      ~template:
        (change_common "divide"
           (Apply
              ("img_divide", [ Attr_of ("y2", "data"); Attr_of ("y1", "data") ])))
      ()
  in
  let* () = Kernel.define_process kernel div in
  (* C7: standardized PCA change component (Eastman 1992), through the
     Fig 4 compound-operator network; PC2 carries the change signal *)
  let* spca =
    Process.define_primitive ~name:p_change_spca
      ~doc:"vegetation change as the 2nd standardized principal component"
      ~output_class:veg_change_class ~args:change_args
      ~template:
        (change_common "spca"
           (Apply
              ( "composite_band",
                [ Apply
                    ( "spca",
                      [ Apply
                          ( "composite",
                            [ Attr_of ("y1", "data"); Attr_of ("y2", "data") ] );
                        Const (Value.int 2) ] );
                  Const (Value.int 1) ] )))
      ()
  in
  let* () = Kernel.define_process kernel spca in
  (* the Fig 2 concepts *)
  let concepts = Kernel.concepts kernel in
  let* _ =
    Concept.define concepts ~name:"NDVI"
      ~doc:"vegetation index concept (maps to {C6})"
      ~members:[ ndvi_class ] ()
  in
  let* _ =
    Concept.define concepts ~name:"Vegetation Change"
      ~doc:"change concept (maps to {C7, C8})"
      ~members:[ veg_change_class ] ()
  in
  Ok ()

let load_avhrr_year kernel ~seed ~year ?(nrow = 64) ?(ncol = 64)
    ?(vegetation_shift = 0.) () =
  let red, nir = Synthetic.red_nir_pair ~seed ~nrow ~ncol ~vegetation_shift () in
  let ts = Abstime.of_ymd year 7 1 in
  let space = Box.make ~xmin:(-10.) ~ymin:10. ~xmax:30. ~ymax:35. in
  let insert channel img =
    Kernel.insert_object kernel ~cls:avhrr_class
      [ ("area", Value.string "africa-west");
        ("ref_system", Value.string "long/lat");
        ("ref_unit", Value.string "degree");
        ("channel", Value.int channel);
        ("data", Value.image img);
        ("spatialextent", Value.box space);
        ("timestamp", Value.abstime ts) ]
  in
  let* red_oid = insert 1 red in
  let* nir_oid = insert 2 nir in
  Ok (red_oid, nir_oid)

(* ------------------------------------------------------------------ *)
(* Deserts                                                             *)
(* ------------------------------------------------------------------ *)

let rainfall_class = "rainfall_map"
let desert_class = "desert_map"
let p_desert_250 = "desert-rainfall-250"
let p_desert_200 = "desert-rainfall-200"

let desert_process ~name ~cutoff =
  let open Template in
  Process.define_primitive ~name
    ~doc:
      (Printf.sprintf "desertic region: annual rainfall below %g mm" cutoff)
    ~output_class:desert_class
    ~args:[ Process.scalar_arg "rain" rainfall_class ]
    ~params:[ ("cutoff", Value.float cutoff) ]
    ~template:
      (make ~assertions:[]
         ~mappings:
           [ { target = "cutoff_mm"; rhs = Param "cutoff" };
             { target = "data";
               rhs =
                 Apply
                   ( "img_threshold_below",
                     [ Attr_of ("rain", "data"); Param "cutoff" ] ) };
             { target = "spatialextent";
               rhs = Attr_of ("rain", "spatialextent") };
             { target = "timestamp"; rhs = Attr_of ("rain", "timestamp") } ])
    ()

let install_deserts kernel =
  let* rain =
    Schema.define ~name:rainfall_class ~doc:"annual precipitation in mm"
      ~attributes:([ ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel rain in
  let* desert =
    Schema.define ~name:desert_class
      ~doc:"desertic-region mask (1 = desert)"
      ~attributes:
        ([ ("cutoff_mm", Vtype.Float); ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel desert in
  let* p250 = desert_process ~name:p_desert_250 ~cutoff:250. in
  let* () = Kernel.define_process kernel p250 in
  let* p200 = desert_process ~name:p_desert_200 ~cutoff:200. in
  let* () = Kernel.define_process kernel p200 in
  (* the Fig 2 specialization hierarchy *)
  let concepts = Kernel.concepts kernel in
  let* _ = Concept.define concepts ~name:"Desert" ~doc:"imprecise concept" () in
  let* _ =
    Concept.define concepts ~name:"Hot Trade-Wind Desert"
      ~doc:"high pressure areas, rainfall < 250 mm/year"
      ~members:[ desert_class ] ()
  in
  let* _ =
    Concept.define concepts ~name:"Ice/Snow Desert"
      ~doc:"polar lands such as Greenland and Antarctica" ()
  in
  let* () = Concept.add_isa concepts ~sub:"Hot Trade-Wind Desert" ~super:"Desert" in
  Concept.add_isa concepts ~sub:"Ice/Snow Desert" ~super:"Desert"

let load_rainfall kernel ~seed ?(nrow = 64) ?(ncol = 64) () =
  let img = Synthetic.rainfall_map ~seed ~nrow ~ncol () in
  Kernel.insert_object kernel ~cls:rainfall_class
    [ ("data", Value.image img);
      ("spatialextent", Value.box (Box.make ~xmin:(-10.) ~ymin:10. ~xmax:30. ~ymax:35.));
      ("timestamp", Value.abstime (Abstime.of_ymd 1986 1 1)) ]

(* ------------------------------------------------------------------ *)
(* Fig 5: compound land-change-detection                               *)
(* ------------------------------------------------------------------ *)

let change_image_class = "tm_change_image"
let land_cover_changes_class = "land_cover_changes"
let p_spca_step = "tm-spca-change"
let p_classify_change = "classify-change"
let p_land_change = "land-change-detection"

let install_fig5 kernel =
  let* change_img =
    Schema.define ~name:change_image_class
      ~doc:"SPCA change component of two TM epochs"
      ~attributes:([ ("data", Vtype.Image) ] @ extents)
      ()
  in
  let* () = Kernel.define_class kernel change_img in
  let* changes =
    Schema.define ~name:land_cover_changes_class
      ~doc:"classified land-cover changes (Fig 5 output)"
      ~attributes:
        (descriptive @ [ ("numclass", Vtype.Int); ("data", Vtype.Image) ] @ extents)
      ~derived_by:p_land_change ()
  in
  let* () = Kernel.define_class kernel changes in
  let open Template in
  (* step 1: SPCA over all provided TM bands (two epochs together) *)
  let* spca_step =
    Process.define_primitive ~name:p_spca_step
      ~doc:"Fig 5 step 1: standardized PCA change image from TM bands"
      ~output_class:change_image_class
      ~args:[ Process.setof_arg ~card_min:2 "bands" landsat_class ]
      ~template:
        (make
           ~assertions:[ Card_ge ("bands", 2); Common ("bands", "spatialextent") ]
           ~mappings:
             [ { target = "data";
                 rhs =
                   Apply
                     ( "composite_band",
                       [ Apply
                           ( "spca",
                             [ Apply ("composite", [ Attr_of ("bands", "data") ]);
                               Const (Value.int 2) ] );
                         Const (Value.int 1) ] ) };
               { target = "spatialextent";
                 rhs = Anyof (Attr_of ("bands", "spatialextent")) };
               { target = "timestamp";
                 rhs = Anyof (Attr_of ("bands", "timestamp")) } ])
      ()
  in
  let* () = Kernel.define_process kernel spca_step in
  (* step 2: unsupervised classification of the change image *)
  let* classify =
    Process.define_primitive ~name:p_classify_change
      ~doc:"Fig 5 step 2: unsupervised classification of the change image"
      ~output_class:land_cover_changes_class
      ~args:[ Process.scalar_arg "change" change_image_class ]
      ~params:[ ("k", Value.int 5) ]
      ~template:
        (make ~assertions:[]
           ~mappings:
             [ { target = "data";
                 rhs =
                   Apply
                     ( "unsuperclassify",
                       [ Apply ("composite", [ Attr_of ("change", "data") ]);
                         Param "k" ] ) };
               { target = "numclass"; rhs = Param "k" };
               { target = "area"; rhs = Const (Value.string "africa-west") };
               { target = "ref_system"; rhs = Const (Value.string "long/lat") };
               { target = "ref_unit"; rhs = Const (Value.string "degree") };
               { target = "spatialextent";
                 rhs = Attr_of ("change", "spatialextent") };
               { target = "timestamp"; rhs = Attr_of ("change", "timestamp") } ])
      ()
  in
  let* () = Kernel.define_process kernel classify in
  let* compound =
    Process.define_compound ~name:p_land_change
      ~doc:"Fig 5: land-change detection = SPCA then classification"
      ~output_class:land_cover_changes_class
      ~args:[ Process.setof_arg ~card_min:2 "bands" landsat_class ]
      ~steps:
        [ { Process.step_process = p_spca_step;
            step_inputs = [ ("bands", Process.From_arg "bands") ] };
          { Process.step_process = p_classify_change;
            step_inputs = [ ("change", Process.From_step 0) ] } ]
      ()
  in
  Kernel.define_process kernel compound

let install_all kernel =
  let* () = install_fig3 kernel in
  let* () = install_vegetation kernel in
  let* () = install_deserts kernel in
  install_fig5 kernel
