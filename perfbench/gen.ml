(* Seeded workload generator.

   A workload is a setup script plus an endless sequence of rounds.  The
   generator keeps its own model of the database (which base objects are
   alive, with what dates, boxes and pixel seeds), so every statement
   carries the answer the program must give: row counts, stale counts,
   and for every derived object the operator recipe that must reproduce
   it.  The program under test only ever sees the rendered GaeaQL text
   and the values built from the specs below.

   Object references inside statement text are symbolic, because OIDs
   are the program's business:
   - [@h<k>] is the object created by base ingestion number [k];
   - [@<cls>/<k>] is the one live object of class [cls] derived from
     ingestion [k]. *)

module Abstime = Gaea_geo.Abstime

type kind = Query | Derive | Retrieve | Write | Refresh | Check

let kind_name = function
  | Query -> "query"
  | Derive -> "derive"
  | Retrieve -> "retrieve"
  | Write -> "write"
  | Refresh -> "refresh"
  | Check -> "check"

let all_kinds = [ Query; Derive; Retrieve; Write; Refresh; Check ]

(* pixel content of a base image, rebuilt identically by the oracle *)
type spec =
  | Band of { seed : int; n : int }  (** [synth_band(seed, n, n)] *)
  | Scene_band of { seed : int; n : int; band : int }
      (** band of a synthetic 3-band Landsat-TM scene *)
  | Avhrr of { seed : int; n : int; channel : int; shift : float; gain : float }
      (** AVHRR red (1) or NIR (2) channel, times a calibration gain *)

type recipe =
  | Leaf of spec
  | Num of float
  | Int_arg of int
  | Apply of string * recipe list

type attr_value =
  | A_spec of spec
  | A_int of int
  | A_box of (float * float * float * float)
  | A_date of (int * int * int)

(* the one live object of [cls] derived from ingestion [root] must hold
   [recipe] in its [data] attribute *)
type product = { cls : string; root : int; recipe : recipe }

type expect =
  | Nothing
  | Rows of int
  | Stale of int
  | Fired of product list  (** at least one task runs *)
  | Retrieved  (** answered from stored objects, no task runs *)
  | Refreshed of product list  (** and nothing is stale afterwards *)

type target = Handle of int | Product of string * int  (** class, root *)

type op =
  | Gql of { kind : kind; text : string; expect : expect; handle : int option }
      (** [handle]: the ingestion number an INSERT creates *)
  | Ingest of { handle : int; cls : string; attrs : (string * attr_value) list }
      (** base data with external pixel values: [Kernel.insert_object] *)
  | Update of { target : int; cls : string; spec : spec }
      (** replace the [data] of a base object: [Kernel.update_object] *)
  | Execute of { process : string; arg : string; input : target }
      (** derive the product of one given object: [Kernel.execute_process]
          (GaeaQL's DERIVE asks for a class, not for one object's product) *)
  | Verify of product list  (** oracle only: nothing is executed *)
  | Halve_cache_budget
      (** [Kernel.set_cache_budget] to half the bytes now resident *)

type workload = {
  base_cls : string;  (** the source table the storage probes read *)
  derived_cls : string;  (** the class the backchain probe targets *)
  first_process : string;  (** the process the binding probe binds *)
  setup : op list;
  next_round : unit -> op list;
  probe_date : unit -> int * int * int;  (** a date holding base objects *)
  epoch : int;
      (** rounds after which the database is built afresh: provenance
          only grows, so without this the state a run measures would
          depend on how many rounds the host managed *)
  pooled : kind list;
      (** kinds whose statements spend their time in the pool's raster
          kernels, on every lane *)
}

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let spec_to_string = function
  | Band { seed; n } -> Printf.sprintf "synth_band(%d, %d, %d)" seed n n
  | Scene_band { seed; n; band } ->
    Printf.sprintf "landsat_scene(seed=%d, n=%d).band%d" seed n band
  | Avhrr { seed; n; channel; shift; gain } ->
    Printf.sprintf "avhrr(seed=%d, n=%d, shift=%g).channel%d * %g" seed n
      shift channel gain

let rec recipe_to_string = function
  | Leaf s -> spec_to_string s
  | Num f -> Printf.sprintf "%g" f
  | Int_arg i -> string_of_int i
  | Apply (op, args) ->
    Printf.sprintf "%s(%s)" op
      (String.concat ", " (List.map recipe_to_string args))

let date_literal (y, m, d) = Printf.sprintf "DATE '%04d-%02d-%02d'" y m d

let box_literal (a, b, c, d) = Printf.sprintf "BOX(%g, %g, %g, %g)" a b c d

let attr_to_string = function
  | A_spec s -> spec_to_string s
  | A_int i -> string_of_int i
  | A_box (a, b, c, d) -> box_literal (a, b, c, d)
  | A_date d -> date_literal d

let expect_to_string = function
  | Nothing -> ""
  | Rows n -> Printf.sprintf "  -- expect %d row(s)" n
  | Stale n -> Printf.sprintf "  -- expect %d stale" n
  | Retrieved -> "  -- expect retrieval"
  | Fired ps | Refreshed ps ->
    Printf.sprintf "  -- expect %s"
      (String.concat "; "
         (List.map
            (fun p ->
              Printf.sprintf "%s/%d = %s" p.cls p.root
                (recipe_to_string p.recipe))
            ps))

let op_to_string = function
  | Gql { kind; text; expect; _ } ->
    Printf.sprintf "[%s] %s%s" (kind_name kind) text (expect_to_string expect)
  | Ingest { handle; cls; attrs } ->
    Printf.sprintf "[write] -- ingest h%d into %s (%s)" handle cls
      (String.concat ", "
         (List.map (fun (a, v) -> a ^ " = " ^ attr_to_string v) attrs))
  | Update { target; cls; spec } ->
    Printf.sprintf "[write] -- update %s @h%d data = %s" cls target
      (spec_to_string spec)
  | Execute { process; arg; input } ->
    Printf.sprintf "[write] -- execute %s (%s = %s)" process arg
      (match input with
       | Handle h -> Printf.sprintf "@h%d" h
       | Product (cls, h) -> Printf.sprintf "@%s/%d" cls h)
  | Verify ps -> "-- verify" ^ expect_to_string (Fired ps)
  | Halve_cache_budget -> "-- set the cache budget to half the resident bytes"

let script w ~rounds =
  let buf = Buffer.create 65536 in
  let add op =
    Buffer.add_string buf (op_to_string op);
    Buffer.add_char buf '\n'
  in
  List.iter add w.setup;
  for r = 1 to rounds do
    Buffer.add_string buf (Printf.sprintf "-- round %d\n" r);
    List.iter add (w.next_round ())
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let day0 = Abstime.of_ymd 1990 1 1
let ymd_of_day d = Abstime.to_ymd (Abstime.add_days day0 d)

let gql ?(expect = Nothing) ?handle kind text =
  Gql { kind; text; expect; handle }

(* a fresh pixel seed; kept well inside int range for the literal *)
let fresh_seed rng = Random.State.int rng 1_000_000_000

let img_scale f r = Apply ("img_scale", [ Num f; r ])

(* a retrieval of about half the stored products: its cost grows with
   NEED, so NEED stays in a narrow band *)
let need_about rng size = (size / 2) - (size / 20) + Random.State.int rng (max 1 (size / 10))

(* one image class with the conventional extents: a B-tree on timestamp
   comes with DEFINE CLASS *)
let define_image_class ?derived_by ?(extra = "") name =
  Printf.sprintf
    "DEFINE CLASS %s ( %sdata image, spatialextent box, timestamp abstime )%s;"
    name extra
    (match derived_by with Some p -> " DERIVED BY " ^ p | None -> "")

let define_scale_process name ~input ~output f =
  Printf.sprintf
    "DEFINE PROCESS %s OUTPUT %s ARGS ( x %s ) MAP data = img_scale(%.1f, \
     x.data) MAP spatialextent = x.spatialextent MAP timestamp = \
     x.timestamp END;"
    name output input f

let ddl text = gql Write text

(* ------------------------------------------------------------------ *)
(* catalog                                                             *)
(* ------------------------------------------------------------------ *)

(* Base objects sit on every third day and AT probes ask for such days,
   so a match is always same-day and the ±1-day window edge never
   matters.  Boxes have integer corners and query boxes half-integer
   ones, so no box merely touches a query box. *)
type cat_obj = { day : int; box : float * float * float * float; spec : spec }

let catalog ~seed ~size =
  let rng = Random.State.make [| seed; 1 |] in
  let n_days = 600 in
  let alive : (int, cat_obj) Hashtbl.t = Hashtbl.create (2 * size) in
  let next_handle = ref 0 in
  let new_obj () =
    let x = Random.State.int rng 96 and y = Random.State.int rng 96 in
    let w = 1 + Random.State.int rng 4 and h = 1 + Random.State.int rng 4 in
    { day = 3 * Random.State.int rng n_days;
      box = (float x, float y, float (x + w), float (y + h));
      spec = Band { seed = fresh_seed rng; n = 2 } }
  in
  let insert o =
    let h = !next_handle in
    incr next_handle;
    Hashtbl.replace alive h o;
    gql Write ~handle:h
      (Printf.sprintf
         "INSERT INTO src ( data = %s, spatialextent = %s, timestamp = %s );"
         (spec_to_string o.spec) (box_literal o.box)
         (date_literal (ymd_of_day o.day)))
  in
  let scaled_of h =
    { cls = "scaled"; root = h;
      recipe = img_scale 2.0 (Leaf (Hashtbl.find alive h).spec) }
  in
  let inserts = List.init size (fun _ -> insert (new_obj ())) in
  let setup =
    [ ddl (define_image_class "src");
      ddl (define_image_class ~derived_by:"scale" "scaled");
      ddl (define_scale_process "scale" ~input:"src" ~output:"scaled" 2.0) ]
    @ inserts
    @ List.init size (fun h -> Execute { process = "scale"; arg = "x"; input = Handle h })
    @ [ Verify [ scaled_of 0; scaled_of (size - 1) ] ]
  in
  let count_where p = Hashtbl.fold (fun _ o n -> if p o then n + 1 else n) alive 0 in
  let select_at () =
    let day = 3 * Random.State.int rng n_days in
    gql Query
      ~expect:(Rows (count_where (fun o -> o.day = day)))
      (Printf.sprintf "SELECT timestamp FROM src WHERE timestamp AT %s;"
         (date_literal (ymd_of_day day)))
  in
  let select_overlaps () =
    let x = float (Random.State.int rng 90) +. 0.5
    and y = float (Random.State.int rng 90) +. 0.5 in
    let q = (x, y, x +. 8., y +. 8.) in
    let overlaps (a0, b0, a1, b1) =
      let qx0, qy0, qx1, qy1 = q in
      a0 <= qx1 && qx0 <= a1 && b0 <= qy1 && qy0 <= b1
    in
    gql Query
      ~expect:(Rows (count_where (fun o -> overlaps o.box)))
      (Printf.sprintf
         "SELECT * FROM src WHERE spatialextent OVERLAPS %s ORDER BY \
          timestamp;"
         (box_literal q))
  in
  let select_first () =
    gql Query ~expect:(Rows 1) "SELECT * FROM src LIMIT 1;"
  in
  let retrieve () =
    gql Retrieve ~expect:Retrieved
      (Printf.sprintf "DERIVE scaled NEED %d;" (need_about rng size))
  in
  let next_round () =
    let h1 = !next_handle in
    let ins = [ insert (new_obj ()); insert (new_obj ()) ] in
    let reads =
      [ select_first (); select_at (); select_overlaps (); retrieve ();
        select_at (); select_first (); select_overlaps (); retrieve () ]
    in
    (* a corrected base object: its scaled product goes stale *)
    let j = 1 + Random.State.int rng (size - 1) in
    let o = Hashtbl.find alive j in
    let spec = Band { seed = fresh_seed rng; n = 2 } in
    Hashtbl.replace alive j { o with spec };
    let correct =
      [ Update { target = j; cls = "src"; spec };
        gql Refresh "REFRESH ALL;" ~expect:(Refreshed [ scaled_of j ]) ]
    in
    let dels =
      List.map
        (fun h ->
          Hashtbl.remove alive h;
          gql Write (Printf.sprintf "DELETE FROM src @h%d;" h))
        [ h1; h1 + 1 ]
    in
    (* a dropped product asked for again: the only base object without a
       product is ingestion 0, so any planner re-derives that one *)
    let rederive =
      [ gql Write "DELETE FROM scaled @scaled/0;";
        gql Derive (Printf.sprintf "DERIVE scaled NEED %d;" size)
          ~expect:(Fired [ scaled_of 0 ]) ]
    in
    ins @ reads @ correct @ dels @ rederive
  in
  let probe_date () = ymd_of_day (Hashtbl.find alive 0).day in
  { base_cls = "src"; derived_cls = "scaled";
    first_process = "scale"; setup; next_round; probe_date; epoch = 1000; pooled = [] }

(* ------------------------------------------------------------------ *)
(* derive-refresh                                                      *)
(* ------------------------------------------------------------------ *)

(* [size] independent pipelines src -> mid -> out over 16x16 images.
   New data arrives through a staging pipeline inbox -> inmid -> inout
   that is empty between rounds: in the seed planner, DERIVE out NEED
   n+1 re-binds the lowest-OID tokens and never reaches a new source, so
   an empty staging class is the one shape in which a DERIVE reliably
   backchains through both stages. *)
let derive_refresh ~seed ~size =
  let rng = Random.State.make [| seed; 2 |] in
  let npix = 16 in
  let specs = Hashtbl.create (2 * size) in
  let next_handle = ref 0 in
  let insert cls =
    let h = !next_handle in
    incr next_handle;
    let spec = Band { seed = fresh_seed rng; n = npix } in
    Hashtbl.replace specs h spec;
    gql Write ~handle:h
      (Printf.sprintf
         "INSERT INTO %s ( data = %s, spatialextent = BOX(0, 0, 1, 1), \
          timestamp = %s );"
         cls (spec_to_string spec)
         (date_literal (ymd_of_day (h mod 3650))))
  in
  let mid h = img_scale 2.0 (Leaf (Hashtbl.find specs h)) in
  let products ~mid_cls ~out_cls h =
    [ { cls = mid_cls; root = h; recipe = mid h };
      { cls = out_cls; root = h; recipe = img_scale 0.5 (mid h) } ]
  in
  let inserts = List.init size (fun _ -> insert "src") in
  let setup =
    [ ddl (define_image_class "src");
      ddl (define_image_class ~derived_by:"s1" "mid");
      ddl (define_image_class ~derived_by:"s2" "out");
      ddl (define_scale_process "s1" ~input:"src" ~output:"mid" 2.0);
      ddl (define_scale_process "s2" ~input:"mid" ~output:"out" 0.5);
      ddl (define_image_class "inbox");
      ddl (define_image_class ~derived_by:"t1" "inmid");
      ddl (define_image_class ~derived_by:"t2" "inout");
      ddl (define_scale_process "t1" ~input:"inbox" ~output:"inmid" 2.0);
      ddl (define_scale_process "t2" ~input:"inmid" ~output:"inout" 0.5) ]
    @ inserts
    @ List.concat
        (List.init size (fun h ->
             [ Execute { process = "s1"; arg = "x"; input = Handle h };
               Execute { process = "s2"; arg = "x"; input = Product ("mid", h) } ]))
    @ [ Verify
          (products ~mid_cls:"mid" ~out_cls:"out" 0
          @ products ~mid_cls:"mid" ~out_cls:"out" (size - 1));
        Halve_cache_budget ]
  in
  let round_no = ref 0 in
  let next_round () =
    incr round_no;
    (* two arrivals, derived together *)
    let h = !next_handle in
    let arrive1 = insert "inbox" in
    let arrive2 = insert "inbox" in
    let ingest =
      [ arrive1; arrive2;
        gql Derive "DERIVE inout NEED 2;"
          ~expect:
            (Fired
               (products ~mid_cls:"inmid" ~out_cls:"inout" h
               @ products ~mid_cls:"inmid" ~out_cls:"inout" (h + 1))) ]
    in
    let j = Random.State.int rng size in
    let spec = Band { seed = fresh_seed rng; n = npix } in
    Hashtbl.replace specs j spec;
    let correct =
      [ Update { target = j; cls = "src"; spec };
        gql Query "SHOW STALE;" ~expect:(Stale 2);
        gql Refresh "REFRESH ALL;"
          ~expect:(Refreshed (products ~mid_cls:"mid" ~out_cls:"out" j)) ]
    in
    let retrieve () =
      gql Retrieve ~expect:Retrieved
        (Printf.sprintf "DERIVE out NEED %d;" (need_about rng size))
    in
    let retire =
      List.concat_map
        (fun h ->
          Hashtbl.remove specs h;
          [ gql Write (Printf.sprintf "DELETE FROM inout @inout/%d;" h);
            gql Write (Printf.sprintf "DELETE FROM inmid @inmid/%d;" h);
            gql Write (Printf.sprintf "DELETE FROM inbox @h%d;" h) ])
        [ h; h + 1 ]
    in
    (* about one CHECK ALL per 50 statements *)
    let check = if !round_no mod 5 = 0 then [ gql Check "CHECK ALL;" ] else [] in
    ingest @ correct @ [ retrieve () ] @ retire @ [ retrieve () ] @ check
  in
  let probe_date () = ymd_of_day 0 in
  { base_cls = "src"; derived_cls = "out";
    first_process = "s1"; setup; next_round; probe_date; epoch = 500; pooled = [] }

(* ------------------------------------------------------------------ *)
(* raster                                                              *)
(* ------------------------------------------------------------------ *)

(* Each round ingests a new Landsat-TM scene (3 bands of [size]^2) and a
   new AVHRR year, derives the Fig 5 land-change compound over the
   previous and the new scene, classifies the new scene with P20 (Fig 3,
   k = 12), runs the Fig 2 NDVI vegetation-change pipeline over the last
   two years, then re-calibrates the new NIR channel and refreshes.  The
   previous scene and year are then retired with their products, so
   the database stays at a dozen objects and every derived class is
   empty when a DERIVE asks for it. *)
let raster_ddl =
  [ define_image_class ~extra:"band int, " "landsat";
    define_image_class ~extra:"numclass int, " ~derived_by:"p20" "land_cover";
    "DEFINE PROCESS p20 OUTPUT land_cover ARGS ( bands SETOF landsat CARD 3 ) \
     PARAM k = 12 ASSERT card(bands) = 3 ASSERT common(bands.spatialextent) \
     ASSERT common(bands.timestamp) MAP data = \
     unsuperclassify(composite(bands.data), $k) MAP numclass = $k MAP \
     spatialextent = ANYOF bands.spatialextent MAP timestamp = ANYOF \
     bands.timestamp END;";
    define_image_class "change_image";
    define_image_class ~extra:"numclass int, " ~derived_by:"land_change"
      "land_cover_changes";
    "DEFINE PROCESS spca_change OUTPUT change_image ARGS ( bands SETOF \
     landsat CARD 6 ) ASSERT card(bands) = 6 ASSERT \
     common(bands.spatialextent) MAP data = \
     composite_band(spca(composite(bands.data), 2), 1) MAP spatialextent = \
     ANYOF bands.spatialextent MAP timestamp = ANYOF bands.timestamp END;";
    "DEFINE PROCESS classify_change OUTPUT land_cover_changes ARGS ( change \
     change_image ) PARAM k = 5 MAP data = \
     unsuperclassify(composite(change.data), $k) MAP numclass = $k MAP \
     spatialextent = change.spatialextent MAP timestamp = change.timestamp \
     END;";
    "DEFINE PROCESS land_change OUTPUT land_cover_changes ARGS ( bands SETOF \
     landsat CARD 6 ) STEP spca_change ( bands = bands ) STEP \
     classify_change ( change = STEP 1 ) END;";
    define_image_class ~extra:"channel int, " "avhrr";
    define_image_class ~derived_by:"ndvi_derivation" "ndvi_map";
    define_image_class ~derived_by:"veg_change_subtract" "veg_change";
    "DEFINE PROCESS ndvi_derivation OUTPUT ndvi_map ARGS ( red avhrr, nir \
     avhrr ) ASSERT eq(red.channel, 1) ASSERT eq(nir.channel, 2) ASSERT \
     box_overlaps(red.spatialextent, nir.spatialextent) ASSERT \
     eq(red.timestamp, nir.timestamp) MAP data = ndvi(red.data, nir.data) \
     MAP spatialextent = red.spatialextent MAP timestamp = red.timestamp \
     END;";
    "DEFINE PROCESS veg_change_subtract OUTPUT veg_change ARGS ( y1 \
     ndvi_map, y2 ndvi_map ) ASSERT lt(time_diff_days(y1.timestamp, \
     y2.timestamp), 0.0) ASSERT box_overlaps(y1.spatialextent, \
     y2.spatialextent) MAP data = img_subtract(y2.data, y1.data) MAP \
     spatialextent = y2.spatialextent MAP timestamp = y2.timestamp END;" ]

let raster ~seed ~size =
  let rng = Random.State.make [| seed; 3 |] in
  let next_handle = ref 0 in
  let specs = Hashtbl.create 64 in
  let box = A_box (-10., 10., 30., 35.) in
  let ingest cls attrs spec =
    let h = !next_handle in
    incr next_handle;
    Hashtbl.replace specs h spec;
    (h, Ingest { handle = h; cls; attrs = attrs @ [ ("data", A_spec spec) ] })
  in
  (* a scene every 16 days (the Landsat revisit) *)
  let scene_no = ref 0 in
  let ingest_scene ?(seed = fresh_seed rng) () =
    let s = seed in
    let date = A_date (ymd_of_day (16 * !scene_no)) in
    incr scene_no;
    List.split
      (List.init 3 (fun i ->
           ingest "landsat"
             [ ("band", A_int (i + 1)); ("spatialextent", box);
               ("timestamp", date) ]
             (Scene_band { seed = s; n = size; band = i + 1 })))
  in
  let year = ref 1980 in
  let ingest_year ?(seed = fresh_seed rng) () =
    let s = seed in
    let shift = 0.05 *. float (!year - 1980) in
    let date = A_date (!year, 7, 1) in
    incr year;
    List.split
      (List.init 2 (fun i ->
           ingest "avhrr"
             [ ("channel", A_int (i + 1)); ("spatialextent", box);
               ("timestamp", date) ]
             (Avhrr { seed = s; n = size; channel = i + 1; shift; gain = 1. })))
  in
  let leaf h = Leaf (Hashtbl.find specs h) in
  let land_cover bands =
    { cls = "land_cover"; root = List.hd bands;
      recipe =
        Apply
          ( "unsuperclassify",
            [ Apply ("composite", List.map leaf bands); Int_arg 12 ] ) }
  in
  let change bands =
    Apply
      ( "composite_band",
        [ Apply ("spca", [ Apply ("composite", List.map leaf bands); Int_arg 2 ]);
          Int_arg 1 ] )
  in
  let ndvi (red, nir) = Apply ("ndvi", [ leaf red; leaf nir ]) in
  (* the initial scene and year are the same for every seed, so that
     set-up time does not depend on the seed's k-means convergence *)
  let scene, scene_ops = ingest_scene ~seed:1 () in
  let yr, yr_ops = ingest_year ~seed:2 () in
  let setup =
    List.map ddl raster_ddl
    @ scene_ops @ yr_ops
    @ [ gql Derive "DERIVE land_cover;" ~expect:(Fired [ land_cover scene ]) ]
  in
  let cur_scene = ref scene and cur_year = ref yr in
  let pair = function [ r; n ] -> (r, n) | _ -> assert false in
  let next_round () =
    let old_scene = !cur_scene and old_year = !cur_year in
    let a1 = List.hd old_scene in
    let scene, scene_ops = ingest_scene () in
    let scene_date = ymd_of_day (16 * (!scene_no - 1)) in
    let b1 = List.hd scene in
    let both = old_scene @ scene in
    let fig5 =
      [ gql Derive "DERIVE land_cover_changes;"
          ~expect:
            (Fired
               [ { cls = "change_image"; root = b1; recipe = change both };
                 { cls = "land_cover_changes"; root = b1;
                   recipe =
                     Apply
                       ( "unsuperclassify",
                         [ Apply ("composite", [ change both ]); Int_arg 5 ] ) } ]) ]
    in
    let delete cls root = gql Write (Printf.sprintf "DELETE FROM %s @%s/%d;" cls cls root) in
    let retire_scene =
      [ delete "land_cover_changes" a1; delete "change_image" a1;
        delete "land_cover" a1 ]
      @ List.map (fun h -> gql Write (Printf.sprintf "DELETE FROM landsat @h%d;" h)) old_scene
    in
    let fig3 =
      [ gql Derive "DERIVE land_cover;" ~expect:(Fired [ land_cover scene ]);
        gql Retrieve "DERIVE land_cover NEED 1;" ~expect:Retrieved ]
    in
    (* catalog look-ups on the new scene and its product, three times
       each *)
    let lookups =
      List.concat
        (List.init 3 (fun _ ->
             [ gql Query ~expect:(Rows 3)
                 (Printf.sprintf "SELECT band FROM landsat WHERE timestamp AT %s;"
                    (date_literal scene_date));
               gql Query ~expect:(Rows 1) "SELECT numclass FROM land_cover;" ]))
    in
    let yr, yr_ops = ingest_year () in
    let old_red, _ = pair old_year and new_red, _ = pair yr in
    let fig2 =
      [ gql Derive "DERIVE veg_change;"
          ~expect:
            (Fired
               [ { cls = "ndvi_map"; root = old_red; recipe = ndvi (pair old_year) };
                 { cls = "ndvi_map"; root = new_red; recipe = ndvi (pair yr) };
                 { cls = "veg_change"; root = new_red;
                   recipe =
                     Apply ("img_subtract", [ ndvi (pair yr); ndvi (pair old_year) ]) } ]) ]
    in
    (* a re-calibrated NIR channel (gain within 5%): the new NDVI map and
       the vegetation change go stale *)
    let _, new_nir = pair yr in
    let spec =
      match Hashtbl.find specs new_nir with
      | Avhrr a -> Avhrr { a with gain = 0.95 +. (0.001 *. float (Random.State.int rng 100)) }
      | s -> s
    in
    Hashtbl.replace specs new_nir spec;
    let correct =
      [ Update { target = new_nir; cls = "avhrr"; spec };
        gql Query "SHOW STALE;" ~expect:(Stale 2);
        gql Refresh "REFRESH ALL;"
          ~expect:
            (Refreshed
               [ { cls = "ndvi_map"; root = new_red; recipe = ndvi (pair yr) };
                 { cls = "veg_change"; root = new_red;
                   recipe =
                     Apply ("img_subtract", [ ndvi (pair yr); ndvi (pair old_year) ]) } ]) ]
    in
    let retire_year =
      [ delete "veg_change" new_red; delete "ndvi_map" old_red;
        delete "ndvi_map" new_red ]
      @ List.map (fun h -> gql Write (Printf.sprintf "DELETE FROM avhrr @h%d;" h)) old_year
    in
    cur_scene := scene;
    cur_year := yr;
    List.iter (Hashtbl.remove specs) (old_scene @ old_year);
    scene_ops @ fig5 @ retire_scene @ fig3 @ lookups @ yr_ops @ fig2 @ correct
    @ retire_year
  in
  let probe_date () = ymd_of_day (16 * (!scene_no - 1)) in
  { base_cls = "landsat"; derived_cls = "land_cover";
    first_process = "p20"; setup; next_round; probe_date; epoch = 1000;
    pooled = [ Derive ] }

(* ------------------------------------------------------------------ *)
(* Registry of workloads                                               *)
(* ------------------------------------------------------------------ *)

(* database size per workload: base objects, pipelines, scene side *)
let full_size = function
  | "catalog" -> Some 2000
  | "derive-refresh" -> Some 500
  | "raster" -> Some 128
  | _ -> None

let make name ~seed ~size =
  match name with
  | "catalog" -> catalog ~seed ~size
  | "derive-refresh" -> derive_refresh ~seed ~size
  | _ -> raster ~seed ~size
