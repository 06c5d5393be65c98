module Sexp = Gaea_adt.Sexp
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

let ( let* ) r f = Result.bind r f

let iatom i = Sexp.atom (string_of_int i)

let parse_int = function
  | Sexp.Atom a ->
    (match int_of_string_opt a with
     | Some i -> Ok i
     | None -> Gaea_error.err ("not an int: " ^ a))
  | Sexp.List _ -> Gaea_error.err "expected int atom"

let atom_of = function
  | Sexp.Atom a -> Ok a
  | Sexp.List _ -> Gaea_error.err "expected atom"

let value_of_sexp s =
  Result.map_error (fun e -> Gaea_error.Parse_error e) (Value.of_sexp s)

let map_m = Gaea_error.map_m

(* --- schema --------------------------------------------------------- *)

let class_to_sexp (c : Schema.t) =
  Sexp.list
    [ Sexp.atom "class";
      Sexp.atom c.Schema.c_name;
      Sexp.list
        (List.map
           (fun a ->
             Sexp.list
               [ Sexp.atom a.Schema.a_name;
                 Sexp.atom (Vtype.to_string a.Schema.a_type) ])
           c.Schema.attributes);
      Sexp.atom (Option.value ~default:"-" c.Schema.spatial_attr);
      Sexp.atom (Option.value ~default:"-" c.Schema.temporal_attr);
      Sexp.atom (Option.value ~default:"-" (Schema.derived_by c));
      Sexp.atom c.Schema.c_doc ]

let class_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "class"; Sexp.Atom name; Sexp.List attrs; Sexp.Atom sp;
        Sexp.Atom tp; Sexp.Atom der; Sexp.Atom doc ] ->
    let* attributes =
      map_m
        (function
          | Sexp.List [ Sexp.Atom n; Sexp.Atom ty ] ->
            (match Vtype.of_string ty with
             | Some ty -> Ok (n, ty)
             | None -> Gaea_error.err ("unknown type " ^ ty))
          | _ -> Gaea_error.err "malformed attribute")
        attrs
    in
    let opt = function "-" -> None | s -> Some s in
    Schema.define ~name ~doc ~attributes ?spatial:(opt sp) ?temporal:(opt tp)
      ?derived_by:(opt der) ()
  | _ -> Gaea_error.err "malformed class"

(* --- template ------------------------------------------------------- *)

let rec expr_to_sexp = function
  | Template.Const v -> Sexp.list [ Sexp.atom "const"; Value.to_sexp v ]
  | Template.Attr_of (a, attr) ->
    Sexp.list [ Sexp.atom "attr"; Sexp.atom a; Sexp.atom attr ]
  | Template.Param p -> Sexp.list [ Sexp.atom "param"; Sexp.atom p ]
  | Template.Anyof e -> Sexp.list [ Sexp.atom "anyof"; expr_to_sexp e ]
  | Template.Apply (op, args) ->
    Sexp.list (Sexp.atom "apply" :: Sexp.atom op :: List.map expr_to_sexp args)

let rec expr_of_sexp = function
  | Sexp.List [ Sexp.Atom "const"; v ] ->
    Result.map (fun v -> Template.Const v) (value_of_sexp v)
  | Sexp.List [ Sexp.Atom "attr"; Sexp.Atom a; Sexp.Atom attr ] ->
    Ok (Template.Attr_of (a, attr))
  | Sexp.List [ Sexp.Atom "param"; Sexp.Atom p ] -> Ok (Template.Param p)
  | Sexp.List [ Sexp.Atom "anyof"; e ] ->
    Result.map (fun e -> Template.Anyof e) (expr_of_sexp e)
  | Sexp.List (Sexp.Atom "apply" :: Sexp.Atom op :: args) ->
    Result.map (fun args -> Template.Apply (op, args)) (map_m expr_of_sexp args)
  | _ -> Gaea_error.err "malformed expression"

let assertion_to_sexp = function
  | Template.Expr_true e -> Sexp.list [ Sexp.atom "expr"; expr_to_sexp e ]
  | Template.Common (a, attr) ->
    Sexp.list [ Sexp.atom "common"; Sexp.atom a; Sexp.atom attr ]
  | Template.Card_eq (a, n) ->
    Sexp.list [ Sexp.atom "card-eq"; Sexp.atom a; iatom n ]
  | Template.Card_ge (a, n) ->
    Sexp.list [ Sexp.atom "card-ge"; Sexp.atom a; iatom n ]

let assertion_of_sexp = function
  | Sexp.List [ Sexp.Atom "expr"; e ] ->
    Result.map (fun e -> Template.Expr_true e) (expr_of_sexp e)
  | Sexp.List [ Sexp.Atom "common"; Sexp.Atom a; Sexp.Atom attr ] ->
    Ok (Template.Common (a, attr))
  (* the earlier save format named the rule, not the attribute; these
     are the attributes it printed for them *)
  | Sexp.List [ Sexp.Atom "common-space"; Sexp.Atom a ] ->
    Ok (Template.Common (a, "spatialextent"))
  | Sexp.List [ Sexp.Atom "common-time"; Sexp.Atom a ] ->
    Ok (Template.Common (a, "timestamp"))
  | Sexp.List [ Sexp.Atom "card-eq"; Sexp.Atom a; n ] ->
    Result.map (fun n -> Template.Card_eq (a, n)) (parse_int n)
  | Sexp.List [ Sexp.Atom "card-ge"; Sexp.Atom a; n ] ->
    Result.map (fun n -> Template.Card_ge (a, n)) (parse_int n)
  | _ -> Gaea_error.err "malformed assertion"

let template_to_sexp (t : Template.t) =
  Sexp.list
    [ Sexp.atom "template";
      Sexp.list (List.map assertion_to_sexp t.Template.assertions);
      Sexp.list
        (List.map
           (fun m ->
             Sexp.list [ Sexp.atom m.Template.target; expr_to_sexp m.Template.rhs ])
           t.Template.mappings) ]

let template_of_sexp = function
  | Sexp.List [ Sexp.Atom "template"; Sexp.List assertions; Sexp.List mappings ] ->
    let* assertions = map_m assertion_of_sexp assertions in
    let* mappings =
      map_m
        (function
          | Sexp.List [ Sexp.Atom target; rhs ] ->
            Result.map (fun rhs -> { Template.target; rhs }) (expr_of_sexp rhs)
          | _ -> Gaea_error.err "malformed mapping")
        mappings
    in
    Ok (Template.make ~assertions ~mappings)
  | _ -> Gaea_error.err "malformed template"

(* --- process -------------------------------------------------------- *)

let arg_to_sexp (a : Process.arg_spec) =
  Sexp.list
    [ Sexp.atom a.Process.arg_name;
      Sexp.atom a.Process.arg_class;
      Sexp.atom (if a.Process.setof then "setof" else "scalar");
      iatom a.Process.card_min;
      (match a.Process.card_max with
       | Some m -> iatom m
       | None -> Sexp.atom "-") ]

let arg_of_sexp = function
  | Sexp.List [ Sexp.Atom name; Sexp.Atom cls; Sexp.Atom kind; cmin; cmax ] ->
    let* card_min = parse_int cmin in
    let* card_max =
      match cmax with
      | Sexp.Atom "-" -> Ok None
      | s -> Result.map Option.some (parse_int s)
    in
    if kind = "scalar" then Ok (Process.scalar_arg name cls)
    else Ok (Process.setof_arg ~card_min ?card_max name cls)
  | _ -> Gaea_error.err "malformed argument"

let process_to_sexp (p : Process.t) =
  let kind =
    match p.Process.kind with
    | Process.Primitive t -> Sexp.list [ Sexp.atom "primitive"; template_to_sexp t ]
    | Process.Compound steps ->
      Sexp.list
        (Sexp.atom "compound"
         :: List.map
              (fun s ->
                Sexp.list
                  (Sexp.atom s.Process.step_process
                   :: List.map
                        (fun (arg, input) ->
                          match input with
                          | Process.From_arg a ->
                            Sexp.list [ Sexp.atom arg; Sexp.atom "arg"; Sexp.atom a ]
                          | Process.From_step i ->
                            Sexp.list [ Sexp.atom arg; Sexp.atom "step"; iatom i ])
                        s.Process.step_inputs))
              steps)
  in
  Sexp.list
    [ Sexp.atom "process";
      Sexp.atom p.Process.proc_name;
      iatom p.Process.version;
      Sexp.atom p.Process.output_class;
      Sexp.list (List.map arg_to_sexp p.Process.args);
      Sexp.list
        (List.map
           (fun (n, v) -> Sexp.list [ Sexp.atom n; Value.to_sexp v ])
           p.Process.params);
      kind;
      Sexp.atom p.Process.doc;
      (match p.Process.derived_from with
       | Some (n, v) -> Sexp.list [ Sexp.atom n; iatom v ]
       | None -> Sexp.atom "-") ]

let process_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "process"; Sexp.Atom name; version; Sexp.Atom output;
        Sexp.List args; Sexp.List params; kind; Sexp.Atom doc; derived_from ]
    ->
    let* version = parse_int version in
    let* args = map_m arg_of_sexp args in
    let* params =
      map_m
        (function
          | Sexp.List [ Sexp.Atom n; v ] ->
            Result.map (fun v -> (n, v)) (value_of_sexp v)
          | _ -> Gaea_error.err "malformed parameter")
        params
    in
    let* base =
      match kind with
      | Sexp.List [ Sexp.Atom "primitive"; t ] ->
        let* template = template_of_sexp t in
        Process.define_primitive ~name ~doc ~output_class:output ~args ~params
          ~template ()
      | Sexp.List (Sexp.Atom "compound" :: steps) ->
        let* steps =
          map_m
            (function
              | Sexp.List (Sexp.Atom sub :: inputs) ->
                let* step_inputs =
                  map_m
                    (function
                      | Sexp.List [ Sexp.Atom arg; Sexp.Atom "arg"; Sexp.Atom a ] ->
                        Ok (arg, Process.From_arg a)
                      | Sexp.List [ Sexp.Atom arg; Sexp.Atom "step"; i ] ->
                        Result.map
                          (fun i -> (arg, Process.From_step i))
                          (parse_int i)
                      | _ -> Gaea_error.err "malformed step input")
                    inputs
                in
                Ok { Process.step_process = sub; step_inputs }
              | _ -> Gaea_error.err "malformed step")
            steps
        in
        Process.define_compound ~name ~doc ~output_class:output ~args ~steps ()
      | _ -> Gaea_error.err "malformed process kind"
    in
    (* restore identity fields the public constructors normalize *)
    let* derived_from =
      match derived_from with
      | Sexp.Atom "-" -> Ok None
      | Sexp.List [ Sexp.Atom n; v ] ->
        Result.map (fun v -> Some (n, v)) (parse_int v)
      | _ -> Gaea_error.err "malformed derived_from"
    in
    Ok (Process.with_version ?derived_from base version)
  | _ -> Gaea_error.err "malformed process"

(* --- concepts ------------------------------------------------------- *)

let concepts_to_sexp concepts =
  let all = Concept.all concepts in
  Sexp.list
    (Sexp.atom "concepts"
     :: List.map
          (fun c ->
            Sexp.list
              [ Sexp.atom c.Concept.name;
                Sexp.list (List.map Sexp.atom c.Concept.members);
                Sexp.list
                  (List.map Sexp.atom (Concept.parents concepts c.Concept.name));
                Sexp.atom c.Concept.doc ])
          all)

let restore_concepts kernel = function
  | Sexp.List (Sexp.Atom "concepts" :: entries) ->
    let concepts = Kernel.concepts kernel in
    (* two passes: define all, then add ISA edges *)
    let* parsed =
      map_m
        (function
          | Sexp.List
              [ Sexp.Atom name; Sexp.List members; Sexp.List parents;
                Sexp.Atom doc ] ->
            let* members = map_m atom_of members in
            let* parents = map_m atom_of parents in
            Ok (name, members, parents, doc)
          | _ -> Gaea_error.err "malformed concept")
        entries
    in
    let* () =
      List.fold_left
        (fun acc (name, members, _, doc) ->
          let* () = acc in
          Result.map (fun _ -> ()) (Concept.define concepts ~name ~doc ~members ()))
        (Ok ()) parsed
    in
    List.fold_left
      (fun acc (name, _, parents, _) ->
        let* () = acc in
        List.fold_left
          (fun acc super ->
            let* () = acc in
            Concept.add_isa concepts ~sub:name ~super)
          (Ok ()) parents)
      (Ok ()) parsed
  | _ -> Gaea_error.err "malformed concepts section"

(* --- objects -------------------------------------------------------- *)

let objects_to_sexp kernel (c : Schema.t) =
  let cls = c.Schema.c_name in
  let attrs = Schema.attr_names c in
  Sexp.list
    (Sexp.atom "objects" :: Sexp.atom cls
     :: List.map
          (fun oid ->
            Sexp.list
              (iatom oid
               :: List.map
                    (fun a ->
                      Value.to_sexp
                        (Option.get (Kernel.object_attr kernel ~cls oid a)))
                    attrs))
          (Kernel.objects_of_class kernel cls))

let restore_objects kernel = function
  | Sexp.List (Sexp.Atom "objects" :: Sexp.Atom cls :: rows) ->
    (match Kernel.find_class kernel cls with
     | None -> Gaea_error.err ("objects for unknown class " ^ cls)
     | Some def ->
       let attrs = Schema.attr_names def in
       List.fold_left
         (fun acc row ->
           let* () = acc in
           match row with
           | Sexp.List (oid :: values) when List.length values = List.length attrs ->
             let* oid = parse_int oid in
             let* values = map_m value_of_sexp values in
             Kernel.insert_object_with_oid kernel ~cls oid
               (List.combine attrs values)
           | _ -> Gaea_error.err "malformed object row")
         (Ok ()) rows)
  | _ -> Gaea_error.err "malformed objects section"

(* --- reuse --------------------------------------------------------- *)

let cache_stats_to_sexp kernel =
  let st = Kernel.cache_stats kernel in
  Sexp.list
    [ Sexp.atom "cache-stats";
      iatom st.Kernel.hits;
      iatom st.Kernel.misses;
      iatom st.Kernel.invalidations ]

(* older saves add admission and eviction counts, which no longer exist *)
let restore_cache_stats kernel = function
  | Sexp.List
      ( [ Sexp.Atom "cache-stats"; h; m; i ]
      | [ Sexp.Atom "cache-stats"; h; m; i; _; _ ] ) ->
    let* hits = parse_int h in
    let* misses = parse_int m in
    let* invalidations = parse_int i in
    Kernel.restore_cache_stats kernel ~hits ~misses ~invalidations;
    Ok ()
  | _ -> Gaea_error.err "malformed cache-stats section"

let reusable_to_sexp kernel =
  Sexp.list
    (Sexp.atom "reusable"
     :: List.map
          (fun (t : Task.t) -> iatom t.Task.task_id)
          (Kernel.reusable_tasks kernel))

(* --- staleness -------------------------------------------------------- *)

let stale_to_sexp kernel =
  Sexp.list (Sexp.atom "stale" :: List.map iatom (Kernel.stale_objects kernel))

let restore_stale kernel oids =
  let* oids = map_m parse_int oids in
  Kernel.restore_stale kernel oids;
  Ok oids

(* --- OID allocator --------------------------------------------------- *)

(* Deleted objects leave no row behind, so the allocator's high-water
   mark is saved: a loaded kernel must not hand out their OIDs again. *)
let oids_to_sexp kernel =
  let last = Kernel.last_oid kernel in
  Sexp.list [ Sexp.atom "oids"; iatom last ]

(* --- references ------------------------------------------------------ *)

(* A hand-edited or damaged save can name objects that are not there.
   DELETE keeps the lineage of what it removes, so a task may name a
   deleted object, but only one allocated within the saved (oids N),
   which in turn covers every stored object (older saves without the
   section are not bounded).  A stale mark names a stored object.  An
   object is the output of one derivation, which REFRESH records again
   under the same process and inputs. *)
let check_references kernel ~high ~stale =
  let fail where e = Error (Gaea_error.Context (where, e)) in
  let stored oid = Kernel.class_of_object kernel oid <> None in
  let present where ~bound oids =
    let missing o = o < 1 || (o > bound && not (stored o)) in
    match List.find_opt missing oids with
    | Some oid -> fail where (Gaea_error.Unknown_object oid)
    | None -> Ok ()
  in
  let producers = Hashtbl.create 64 in
  let produce where (task : Task.t) oid =
    match Hashtbl.find_opt producers oid with
    | Some (prev : Task.t)
      when prev.Task.process <> task.Task.process
           || prev.Task.inputs <> task.Task.inputs ->
      fail where
        (Gaea_error.Invalid
           (Printf.sprintf "object %d is already the output of task #%d" oid
              prev.Task.task_id))
    | _ -> Ok (Hashtbl.replace producers oid task)
  in
  let* () =
    let last = Kernel.last_oid kernel in
    if last <= high then Ok ()
    else
      fail "oids"
        (Gaea_error.Invalid
           (Printf.sprintf "object %d is past the saved mark %d" last high))
  in
  let* _ =
    map_m
      (fun (task : Task.t) ->
        let where = Printf.sprintf "task #%d %s" task.Task.task_id in
        let* () =
          present (where "inputs") ~bound:high (Task.input_oids task)
        in
        let* () = present (where "outputs") ~bound:high task.Task.outputs in
        map_m (produce (where "outputs") task) task.Task.outputs)
      (Kernel.tasks kernel)
  in
  present "stale" ~bound:0 stale

(* --- whole kernel ---------------------------------------------------- *)

let save kernel =
  let buf = Buffer.create 8192 in
  let emit s =
    Buffer.add_string buf (Sexp.to_string s);
    Buffer.add_char buf '\n'
  in
  List.iter (fun c -> emit (class_to_sexp c)) (Kernel.classes kernel);
  emit (oids_to_sexp kernel);
  emit (concepts_to_sexp (Kernel.concepts kernel));
  List.iter
    (fun p -> emit (process_to_sexp p))
    (Kernel.all_process_versions kernel);
  List.iter (fun c -> emit (objects_to_sexp kernel c)) (Kernel.classes kernel);
  List.iter
    (fun task -> emit (Task.to_sexp task))
    (Kernel.tasks kernel);
  emit (reusable_to_sexp kernel);
  emit (stale_to_sexp kernel);
  emit (cache_stats_to_sexp kernel);
  Buffer.contents buf

let load text =
  let* sexps =
    match Sexp.of_string_many text with
    | Ok sexps -> Ok sexps
    | Error e -> Error (Gaea_error.Parse_error e)
  in
  let kernel = Kernel.create () in
  let high = ref max_int and stale = ref [] in
  (* compound processes reference their primitive sub-processes, so
     restore processes primitives-first regardless of file order *)
  let* parsed_processes =
    map_m process_of_sexp
      (List.filter
         (function Sexp.List (Sexp.Atom "process" :: _) -> true | _ -> false)
         sexps)
  in
  let primitives, compounds =
    List.partition Process.is_primitive parsed_processes
  in
  let* () =
    List.fold_left
      (fun acc sexp ->
        let* () = acc in
        match sexp with
        | Sexp.List (Sexp.Atom "class" :: _) ->
          let* c = class_of_sexp sexp in
          Kernel.define_class kernel c
        | Sexp.List (Sexp.Atom "concepts" :: _) -> restore_concepts kernel sexp
        | _ -> Ok ())
      (Ok ()) sexps
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        Kernel.define_process kernel p)
      (Ok ()) (primitives @ compounds)
  in
  let* () =
    List.fold_left
      (fun acc sexp ->
        let* () = acc in
        match sexp with
        | Sexp.List (Sexp.Atom "objects" :: _) -> restore_objects kernel sexp
        | Sexp.List (Sexp.Atom "task" :: _) ->
          let* task = Task.of_sexp sexp in
          Kernel.restore_task kernel task
        | Sexp.List (Sexp.Atom "cache-stats" :: _) ->
          (* counters survive the round trip; saves predating the
             section simply restore to zero *)
          restore_cache_stats kernel sexp
        | Sexp.List (Sexp.Atom "stale" :: oids) ->
          (* absent from older saves, which load with no stale objects *)
          let* oids = restore_stale kernel oids in
          stale := oids;
          Ok ()
        | Sexp.List [ Sexp.Atom "oids"; last ] ->
          (* absent from older saves, which allocate after the highest
             stored OID *)
          let* last = parse_int last in
          Kernel.advance_oids kernel last;
          high := last;
          Ok ()
        | Sexp.List (Sexp.Atom "reusable" :: ids) ->
          (* after the tasks it names; absent from older saves, which
             load with nothing reusable *)
          let* ids = map_m parse_int ids in
          Kernel.restore_reusable kernel ids
        | Sexp.List (Sexp.Atom ("class" | "concepts" | "process") :: _) -> Ok ()
        | _ -> Gaea_error.err "unknown section")
      (Ok ()) sexps
  in
  let* () = check_references kernel ~high:!high ~stale:!stale in
  Ok kernel

(* Write a temporary file beside the target, fsync it, then rename it
   over the target: a crash mid-save leaves the previous file intact. *)
let save_to_file kernel path =
  let data = save kernel in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let write () =
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o666 tmp
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc data;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  in
  let fail msg =
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Gaea_error.Io_error msg)
  in
  match write () with
  | () -> Ok ()
  | exception Sys_error msg -> fail msg
  | exception Unix.Unix_error (e, fn, _) -> fail (fn ^ ": " ^ Unix.error_message e)

let load_from_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> load (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error (Gaea_error.Io_error e)
