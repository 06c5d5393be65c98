module Gaea_error = Gaea_core.Gaea_error
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype
module Registry = Gaea_adt.Registry
module Operator = Gaea_adt.Operator
module Kernel = Gaea_core.Kernel
module Schema = Gaea_core.Schema
module Concept = Gaea_core.Concept
module Process = Gaea_core.Process
module Template = Gaea_core.Template
module Task = Gaea_core.Task
module Derivation = Gaea_core.Derivation
module Lineage = Gaea_core.Lineage
module Experiment = Gaea_core.Experiment
module Events = Gaea_core.Events
module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple
module Vorder = Gaea_storage.Vorder
module Oid = Gaea_storage.Oid
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box
module Dot = Gaea_petri.Dot
module Backchain = Gaea_petri.Backchain
module Net = Gaea_petri.Net

type t = {
  kernel : Kernel.t;
  experiments : Experiment.manager;
  mutable current_experiment : string option;
}

type response =
  | Message of string
  | Rows of {
      columns : string list;
      rows : (Oid.t * (string * Value.t) list) list;
    }

let create ?kernel () =
  { kernel = Option.value kernel ~default:(Kernel.create ());
    experiments = Experiment.create_manager ();
    current_experiment = None }

let kernel t = t.kernel
let experiments t = t.experiments

let ( let* ) r f = Result.bind r f

(* evaluate an expression with no argument bindings (INSERT values) *)
let eval_standalone t expr = Template.eval_closed (Kernel.registry t.kernel) expr

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let compare_matches cmp c =
  match cmp with
  | Ast.C_eq -> c = 0
  | Ast.C_neq -> c <> 0
  | Ast.C_lt -> c < 0
  | Ast.C_le -> c <= 0
  | Ast.C_gt -> c > 0
  | Ast.C_ge -> c >= 0

let pred_attr = function
  | Ast.P_compare (a, _, _) | Ast.P_overlaps (a, _) | Ast.P_at (a, _) -> a

(* A predicate compiled against one class's tuple layout: the attribute
   resolved once per statement, the test reading the stored tuple. *)
let compile_predicate desc pred =
  match Tuple.attr_index desc (pred_attr pred) with
  | None -> fun _ -> false
  | Some i ->
    (match pred with
     | Ast.P_compare (_, cmp, lv) ->
       fun tuple ->
         let v = Tuple.get tuple i in
         (match cmp with
          | Ast.C_eq when not (Vorder.orderable (Value.type_of v)) ->
            Value.equal v lv
          | Ast.C_neq when not (Vorder.orderable (Value.type_of v)) ->
            not (Value.equal v lv)
          | _ ->
            let c = Vorder.order v lv in
            c <> Vorder.unordered && compare_matches cmp c)
     | Ast.P_overlaps (_, window) ->
       fun tuple ->
         (match Tuple.get tuple i with
          | Value.VBox b -> Box.overlaps b window
          | _ -> false)
     | Ast.P_at (_, target) ->
       fun tuple ->
         (match Tuple.get tuple i with
          | Value.VAbstime tv -> Abstime.in_day_window ~at:target tv
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

(* In a projection and in ORDER BY, [oid] names the row's OID. *)
let is_oid a = a = "oid"

(* Every attribute the statement names must belong to some source
   class; a concept member lacking it shows [-] in its rows. *)
let check_attrs t (s : Ast.select) classes =
  let has attr cls =
    match Kernel.find_class t.kernel cls with
    | Some def -> Schema.attribute def attr <> None
    | None -> false
  in
  let named =
    List.filter (fun a -> not (is_oid a)) s.Ast.projection
    @ List.map pred_attr s.Ast.where_
    @ (match s.Ast.order_by with
       | Some (a, _) when not (is_oid a) -> [ a ]
       | _ -> [])
  in
  match
    List.find_opt (fun attr -> not (List.exists (has attr) classes)) named
  with
  | Some attr ->
    Error (Gaea_error.Unknown_attribute { source = s.Ast.source; attr })
  | None -> Ok ()

(* The sort key of a row lacking the ORDER BY attribute (a concept
   member without it): told apart by address, it sorts after every key. *)
let no_key = Value.VString "no key"

(* ORDER BY's comparison, allocating nothing: keys [Vorder] cannot
   order tie *)
let compare_keys dir a b =
  let c =
    if a == no_key then if b == no_key then 0 else 1
    else if b == no_key then -1
    else
      let c = Vorder.order a b in
      if c = Vorder.unordered then 0 else c
  in
  match dir with
  | Ast.Asc -> c
  | Ast.Desc -> -c

let rec passes tests tuple =
  match tests with
  | [] -> true
  | test :: rest -> test tuple && passes rest tuple

(* Hand each row to [take] until it answers false *)
let rec each take = function
  | [] -> ()
  | (oid, tuple) :: rest -> if take oid tuple then each take rest

let rec each_of_seq take rows =
  match rows () with
  | Seq.Nil -> ()
  | Seq.Cons ((oid, tuple), rest) -> if take oid tuple then each_of_seq take rest

let[@tail_mod_cons] rec firsts n = function
  | (_, row) :: rest when n > 0 -> row :: firsts (n - 1) rest
  | _ -> []

let execute_select t (s : Ast.select) =
  let* plan = Optimizer.plan_select t.kernel s in
  let* () = check_attrs t s plan.Plan.classes in
  let first = List.hd plan.Plan.classes in
  let rest = List.tl plan.Plan.classes in
  (* the projected attributes; the OID column is always shown first *)
  let projected =
    match s.Ast.projection with
    | [] -> None
    | cols -> Some (List.filter (fun a -> not (is_oid a)) cols)
  in
  let limit = Option.value s.Ast.limit ~default:max_int in
  (* Matches in reverse result order: without ORDER BY the rows, the
     walk stopping at the [limit]-th; with it each row beside its sort
     key (the stored ORDER BY attribute, or the OID). *)
  let rows = ref [] and keyed = ref [] and taken = ref 0 in
  (* a class's rows, from [walk], against [preds] *)
  let visit cls preds walk =
    match Kernel.class_table t.kernel cls with
    | Some tab when !taken < limit ->
      let desc = Table.descriptor tab in
      let tests = List.map (compile_predicate desc) preds in
      let columns =
        (match projected with
         | None -> List.map fst (Tuple.attrs desc)
         | Some cols -> cols)
        |> List.filter_map (fun a ->
               Option.map (fun i -> (a, i)) (Tuple.attr_index desc a))
      in
      let row oid tuple =
        (oid, List.map (fun (a, i) -> (a, Tuple.get tuple i)) columns)
      in
      let take =
        match s.Ast.order_by with
        | None ->
          fun oid tuple ->
            if passes tests tuple then begin
              rows := row oid tuple :: !rows;
              incr taken
            end;
            !taken < limit
        | Some (attr, _) ->
          let key =
            if is_oid attr then fun oid _ -> Value.int oid
            else
              match Tuple.attr_index desc attr with
              | Some i -> fun _ tuple -> Tuple.get tuple i
              | None -> fun _ _ -> no_key
          in
          fun oid tuple ->
            if passes tests tuple then
              keyed := (key oid tuple, row oid tuple) :: !keyed;
            true
      in
      walk tab take
    | _ -> ()
  in
  (* the first class along its access path, then the other concept
     members, scanned with all predicates *)
  visit first plan.Plan.residual (fun tab take ->
      match plan.Plan.path with
      | Plan.Index_eq (attr, v) -> each take (Table.lookup_eq tab attr v)
      | Plan.Index_range (attr, lo, hi) ->
        each take (Table.lookup_range tab attr ?lo ?hi ())
      | Plan.Full_scan -> each_of_seq take (Table.to_seq tab));
  List.iter
    (fun cls ->
      visit cls s.Ast.where_ (fun tab take ->
          each_of_seq take (Table.to_seq tab)))
    rest;
  let rows =
    match s.Ast.order_by with
    | None -> List.rev !rows
    | Some (_, dir) ->
      firsts limit
        (List.stable_sort
           (fun (a, _) (b, _) -> compare_keys dir a b)
           (List.rev !keyed))
  in
  let columns =
    match projected with
    | None ->
      (match Kernel.find_class t.kernel first with
       | Some def -> Schema.attr_names def
       | None -> [])
    | Some cols -> cols
  in
  Ok (Rows { columns; rows })

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let record_tasks_in_experiment t tasks =
  match t.current_experiment with
  | None -> ()
  | Some e ->
    List.iter
      (fun task ->
        ignore
          (Experiment.record_task t.experiments ~experiment:e
             task.Task.task_id))
      tasks

(* "00" "01" ... "99": two digits per division *)
let two_digits =
  String.init 200 (fun i ->
      Char.chr (Char.code '0' + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* [digits n d p] is the digit count of [n >= p / 10], [p = 10^d];
   OCaml 5 ints have at most 19 digits *)
let rec digits n d p = if d = 19 || n < p then d else digits n (d + 1) (p * 10)

(* the length of [string_of_int n]; OIDs mostly have four digits or
   fewer, which three comparisons settle *)
let decimal_length n =
  if n < 0 then String.length (string_of_int n)
  else if n < 10_000 then
    if n < 100 then if n < 10 then 1 else 2 else if n < 1000 then 3 else 4
  else digits n 5 100_000

(* the digits of [n >= 0] written backwards, ending just before
   [stop]; returns where they start *)
let write_digits b stop n =
  let n = ref n and stop = ref stop in
  while !n >= 100 do
    let q = !n / 100 in
    let r = 2 * (!n - (q * 100)) in
    Bytes.unsafe_set b (!stop - 1) (String.unsafe_get two_digits (r + 1));
    Bytes.unsafe_set b (!stop - 2) (String.unsafe_get two_digits r);
    stop := !stop - 2;
    n := q
  done;
  if !n >= 10 then begin
    Bytes.unsafe_set b (!stop - 1) (String.unsafe_get two_digits ((2 * !n) + 1));
    Bytes.unsafe_set b (!stop - 2) (String.unsafe_get two_digits (2 * !n));
    !stop - 2
  end
  else begin
    Bytes.unsafe_set b (!stop - 1) (Char.unsafe_chr (Char.code '0' + !n));
    !stop - 1
  end

(* [string_of_int n] into [b], ending just before [stop]; returns where
   it starts *)
let write_int_back b stop n =
  if n >= 0 then write_digits b stop n
  else begin
    let s = string_of_int n in
    Bytes.blit_string s 0 b (stop - String.length s) (String.length s);
    stop - String.length s
  end

(* [string_of_int n] into [b] at [pos]; returns the end *)
let write_int b pos n =
  let stop = pos + decimal_length n in
  ignore (write_int_back b stop n);
  stop

(* A reply of strings and ints, sized exactly and written once *)
type piece =
  | Str of string
  | Int of int

let render pieces =
  let b =
    Bytes.create
      (List.fold_left
         (fun n -> function
           | Str s -> n + String.length s
           | Int i -> n + decimal_length i)
         0 pieces)
  in
  ignore
    (List.fold_left
       (fun pos -> function
         | Str s ->
           Bytes.blit_string s 0 b pos (String.length s);
           pos + String.length s
         | Int i -> write_int b pos i)
       0 pieces);
  Bytes.unsafe_to_string b

(* the number of [oids] and the length of ", <oid>" for each of them *)
let rec listed_length count len = function
  | [] -> (count, len)
  | oid :: rest ->
    listed_length (count + 1) (len + 2 + decimal_length oid) rest

(* [string_of_int n] into [b] at [pos] without measuring it: written
   backwards into the 20 bytes of [scratch] (enough for [min_int]), then
   across; returns the end *)
let copy_int scratch b pos n =
  let from = write_int_back scratch 20 n in
  Bytes.blit scratch from b pos (20 - from);
  pos + 20 - from

let rec write_listed scratch b pos = function
  | [] -> pos
  | oid :: rest ->
    Bytes.unsafe_set b pos ',';
    Bytes.unsafe_set b (pos + 1) ' ';
    write_listed scratch b (copy_int scratch b (pos + 2) oid) rest

let outcome_message outcome =
  (* a DERIVE may return thousands of objects: size the reply exactly,
     then write it once *)
  let head = "objects: [" and close = "]\n" in
  let objects = outcome.Derivation.objects in
  let count, listed =
    match objects with
    | [] -> (0, 0)
    | first :: rest -> listed_length 1 (decimal_length first) rest
  in
  let trace =
    String.concat "\n"
      (List.map
         (function
           | Derivation.Retrieved_direct (cls, oids) ->
             (* a retrieval's trace lists the reply's own objects *)
             Printf.sprintf "retrieved %d stored object(s) of %s"
               (if oids == objects then count else List.length oids)
               cls
           | Derivation.Interpolated (cls, oid) ->
             Printf.sprintf "interpolated object %d of %s" oid cls
           | Derivation.Fired (p, v, id) ->
             render
               [ Str "fired "; Str p; Str " v"; Int v; Str " (task #"; Int id;
                 Str ")" ])
         outcome.Derivation.trace)
  in
  let b =
    Bytes.create
      (String.length head + listed + String.length close + String.length trace)
  in
  Bytes.blit_string head 0 b 0 (String.length head);
  let pos =
    match objects with
    | [] -> String.length head
    | first :: rest ->
      let scratch = Bytes.create 20 in
      write_listed scratch b (copy_int scratch b (String.length head) first) rest
  in
  Bytes.blit_string close 0 b pos (String.length close);
  Bytes.blit_string trace 0 b (pos + String.length close) (String.length trace);
  Bytes.unsafe_to_string b

let render_refresh (r : Kernel.refresh_report) =
  let skipped =
    match r.Kernel.skip_reasons with
    | [] -> ""
    | rs ->
      "\nskipped:\n"
      ^ String.concat "\n"
          (List.map (fun (oid, why) -> Printf.sprintf "  #%d: %s" oid why) rs)
  in
  render
    [ Str "refreshed "; Int r.Kernel.refreshed; Str " object(s) (";
      Int (List.length r.Kernel.tasks); Str " task(s)), ";
      Int r.Kernel.remaining; Str " left stale"; Str skipped ]

let execute t stmt =
  match stmt with
  | Ast.Define_class { name; attrs; spatial; temporal; derived_by } ->
    let* typed_attrs =
      List.fold_left
        (fun acc (a, tyname) ->
          let* acc = acc in
          match Vtype.of_string tyname with
          | Some ty -> Ok ((a, ty) :: acc)
          | None -> Gaea_error.err (Printf.sprintf "unknown type %s" tyname))
        (Ok []) attrs
    in
    let* def =
      Schema.define ~name ~attributes:(List.rev typed_attrs) ?spatial
        ?temporal ?derived_by ()
    in
    let* () = Kernel.define_class t.kernel def in
    Ok (Message (Printf.sprintf "class %s defined" name))
  | Ast.Define_concept { name; members; isa } ->
    let concepts = Kernel.concepts t.kernel in
    let* _ = Concept.define concepts ~name ~members () in
    let* () =
      match isa with
      | Some super -> Concept.add_isa concepts ~sub:name ~super
      | None -> Ok ()
    in
    Ok (Message (Printf.sprintf "concept %s defined" name))
  | Ast.Define_process { name; output; args; params; assertions; mappings; steps }
    ->
    let* proc =
      if steps <> [] then
        Process.define_compound ~name ~output_class:output ~args ~steps ()
      else
        Process.define_primitive ~name ~output_class:output ~args ~params
          ~template:(Template.make ~assertions ~mappings) ()
    in
    (* re-defining an existing name never overwrites (paper Section 3):
       the new definition is installed as the next version *)
    let proc =
      match Kernel.find_process t.kernel name with
      | Some prev ->
        Process.with_version ~derived_from:(Process.key prev) proc
          (prev.Process.version + 1)
      | None -> proc
    in
    let* () = Kernel.define_process t.kernel proc in
    Ok (Message (Printf.sprintf "process %s v%d defined" name proc.Process.version))
  | Ast.Insert { cls; values } ->
    let* pairs =
      List.fold_left
        (fun acc (attr, e) ->
          let* acc = acc in
          let* v = eval_standalone t e in
          Ok ((attr, v) :: acc))
        (Ok []) values
    in
    let* oid = Kernel.insert_object t.kernel ~cls (List.rev pairs) in
    Ok
      (Message (render [ Str "object "; Int oid; Str " inserted into "; Str cls ]))
  | Ast.Delete { cls; oid } ->
    let* () = Kernel.delete_object t.kernel ~cls oid in
    Ok
      (Message (render [ Str "object "; Int oid; Str " deleted from "; Str cls ]))
  | Ast.Select s -> execute_select t s
  | Ast.Derive { cls; at; need } ->
    (* DERIVE on a concept resolves through the high-level layer: pick
       the member class with the cheapest materialization of this
       request (Section 2.1.5: "the user will select and query
       reproducible or precomputed instances") *)
    let* cls =
      match Kernel.find_class t.kernel cls with
      | Some _ -> Ok cls
      | None ->
        let concepts = Kernel.concepts t.kernel in
        if Concept.mem concepts cls then begin
          let members = Concept.classes_of concepts cls in
          let scored =
            List.filter_map
              (fun c ->
                let plan = Optimizer.plan_materialize t.kernel ?need ?at c in
                match plan with
                | Plan.Impossible _ -> None
                | p -> Some (c, Plan.materialize_cost ~pixels_per_object:1. p))
              members
          in
          match List.sort (fun (_, a) (_, b) -> Float.compare a b) scored with
          | (best, _) :: _ -> Ok best
          | [] ->
            Gaea_error.err
              (Printf.sprintf
                 "no class realizing concept %s is derivable from current data"
                 cls)
        end
        else Gaea_error.err (Printf.sprintf "unknown class or concept %s" cls)
    in
    let* outcome =
      match at with
      | Some at -> Derivation.request_at t.kernel ~cls ~at ()
      | None -> Derivation.request t.kernel ?need cls
    in
    record_tasks_in_experiment t outcome.Derivation.new_tasks;
    Ok (Message (outcome_message outcome))
  | Ast.Show_lineage oid ->
    (match Kernel.class_of_object t.kernel oid with
     | None -> Gaea_error.err (Printf.sprintf "no object %d" oid)
     | Some _ -> Ok (Message (Lineage.explain t.kernel oid)))
  | Ast.Show_classes ->
    Ok
      (Message
         (String.concat "\n"
            (List.map
               (fun c -> Format.asprintf "%a" Schema.pp c)
               (Kernel.classes t.kernel))))
  | Ast.Show_processes ->
    Ok
      (Message
         (String.concat "\n"
            (List.map
               (fun p -> Format.asprintf "%a" Process.pp p)
               (Kernel.processes t.kernel))))
  | Ast.Show_versions name ->
    (match Kernel.process_versions t.kernel name with
     | [] -> Gaea_error.err (Printf.sprintf "unknown process %s" name)
     | vs ->
       Ok
         (Message
            (String.concat "\n"
               (List.map (fun p -> Format.asprintf "%a" Process.pp p) vs))))
  | Ast.Show_concepts ->
    let concepts = Kernel.concepts t.kernel in
    Ok
      (Message
         (String.concat "\n"
            (List.map
               (fun c ->
                 Printf.sprintf "%s -> {%s}%s" c.Concept.name
                   (String.concat ", " c.Concept.members)
                   (match Concept.parents concepts c.Concept.name with
                    | [] -> ""
                    | ps -> " ISA " ^ String.concat ", " ps))
               (Concept.all concepts))))
  | Ast.Show_tasks ->
    Ok
      (Message
         (String.concat "\n"
            (List.map
               (fun task -> Format.asprintf "%a" Task.pp task)
               (Kernel.tasks t.kernel))))
  | Ast.Show_operators ty ->
    let reg = Kernel.registry t.kernel in
    let ops =
      match ty with
      | None -> Registry.all_operators reg
      | Some tyname ->
        (match Vtype.of_string tyname with
         | Some vt -> Registry.operators_for_type reg vt
         | None -> [])
    in
    Ok
      (Message
         (String.concat "\n"
            (List.map (fun o -> Format.asprintf "%a" Operator.pp o) ops)))
  | Ast.Show_plan cls ->
    let mplan = Optimizer.plan_materialize t.kernel cls in
    let detail =
      match Derivation.derivation_plan t.kernel cls with
      | Some p when mplan <> Plan.Stored 0 ->
        let net = Kernel.derivation_net t.kernel in
        "\n"
        ^ Format.asprintf "%a"
            (Backchain.pp ~place_name:(Net.place_name net)
               ~transition_name:(fun tr ->
                 match Kernel.find_process t.kernel (Net.transition_name net tr) with
                 | Some p -> Printf.sprintf "%s v%d" p.Process.proc_name p.Process.version
                 | None -> "?"))
            p
      | _ -> ""
    in
    Ok
      (Message
         (Format.asprintf "%a%s" Plan.pp_materialize_plan mplan detail))
  | Ast.Show_net ->
    Ok
      (Message
         (Dot.to_dot ~name:"gaea-derivation"
            ~tokens:(Kernel.tokens t.kernel)
            (Kernel.derivation_net t.kernel)))
  | Ast.Show_events ->
    let entries = Kernel.event_log t.kernel in
    let lines =
      List.map
        (fun (seq, ev) ->
          Printf.sprintf "%6d  %s" seq (Kernel.Events.event_to_string ev))
        entries
    in
    Ok
      (Message
         (Printf.sprintf "event log (%d retained of %d emitted):\n%s"
            (List.length entries)
            (Events.seen (Kernel.bus t.kernel))
            (String.concat "\n" lines)))
  | Ast.Verify_object oid ->
    let* ok = Lineage.verify_object t.kernel oid in
    Ok
      (Message
         (if ok then Printf.sprintf "object %d reproduces exactly" oid
          else Printf.sprintf "object %d DOES NOT reproduce" oid))
  | Ast.Verify_task id ->
    (match Kernel.find_task t.kernel id with
     | None -> Gaea_error.err (Printf.sprintf "no task #%d" id)
     | Some task ->
       let* ok = Lineage.verify_task t.kernel task in
       Ok
         (Message
            (if ok then Printf.sprintf "task #%d reproduces exactly" id
             else Printf.sprintf "task #%d DOES NOT reproduce" id)))
  | Ast.Compare (a, b) ->
    Ok (Message (Lineage.compare_derivations t.kernel a b))
  | Ast.Begin_experiment name ->
    let* () =
      match Experiment.find t.experiments name with
      | Some _ -> Ok () (* resume *)
      | None -> Experiment.begin_experiment t.experiments ~name ()
    in
    t.current_experiment <- Some name;
    Ok (Message (Printf.sprintf "experiment %s active" name))
  | Ast.Note { experiment; text } ->
    let* () = Experiment.add_note t.experiments ~experiment text in
    Ok (Message "noted")
  | Ast.Reproduce name ->
    let* r = Experiment.reproduce t.experiments t.kernel ~experiment:name in
    Ok
      (Message
         (Printf.sprintf "%d/%d task(s) reproduce exactly%s"
            r.Experiment.reproduced r.Experiment.total
            (match r.Experiment.failures with
             | [] -> ""
             | fs ->
               "\nfailures:\n"
               ^ String.concat "\n"
                   (List.map
                      (fun (id, why) -> Printf.sprintf "  #%d: %s" id why)
                      fs))))
  | Ast.Check_process name -> (
    match Kernel.find_process t.kernel name with
    | None -> Error (Gaea_error.Unknown_process { name; version = None })
    | Some p ->
      Ok
        (Message
           (Gaea_analysis.Diagnostic.render
              (Gaea_analysis.Analysis.check_process t.kernel p))))
  | Ast.Check_all ->
    Ok
      (Message
         (Gaea_analysis.Diagnostic.render
            (Gaea_analysis.Analysis.check_kernel t.kernel)))
  | Ast.Show_stale ->
    let stale = Kernel.stale_objects t.kernel in
    let line oid =
      let cls =
        Option.value ~default:"?" (Kernel.class_of_object t.kernel oid)
      in
      Str "\n  #" :: Int oid :: Str " " :: Str cls :: Str ", derived by "
      :: (match Kernel.task_producing t.kernel oid with
          | Some task ->
            [ Str task.Task.process; Str " v"; Int task.Task.process_version;
              Str " (task #"; Int task.Task.task_id; Str ")" ]
          | None -> [ Str "?" ])
    in
    Ok
      (Message
         (render
            (Int (List.length stale) :: Str " stale object(s)"
             ::
             (if stale = [] then []
              else Str ":" :: List.concat_map line stale))))
  | Ast.Show_cache ->
    let st = Kernel.cache_stats t.kernel in
    Ok
      (Message
         (Printf.sprintf
            "reuse index: %d entry(ies)\nhits %d, misses %d, invalidations %d"
            st.Kernel.entries st.Kernel.hits st.Kernel.misses
            st.Kernel.invalidations))
  | Ast.Refresh_all ->
    let r = Kernel.refresh_stale t.kernel in
    Ok (Message (render_refresh r))
  | Ast.Refresh_object { cls; oid } ->
    (match Kernel.class_of_object t.kernel oid with
     | None -> Error (Gaea_error.Unknown_object oid)
     | Some actual when actual <> cls ->
       Error (Gaea_error.Wrong_class { oid; cls })
     | Some _ ->
       if not (Kernel.object_stale t.kernel oid) then
         Ok (Message (Printf.sprintf "object %d of %s is fresh" oid cls))
       else begin
         let r = Kernel.refresh_stale ~only:[ oid ] t.kernel in
         Ok (Message (render_refresh r))
       end)

let format_response = function
  | Message m -> m
  | Rows { columns; rows } ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "oid";
    List.iter (fun c -> Buffer.add_string buf (" | " ^ c)) columns;
    Buffer.add_char buf '\n';
    List.iter
      (fun (oid, pairs) ->
        Buffer.add_string buf (string_of_int oid);
        List.iter
          (fun col ->
            Buffer.add_string buf " | ";
            Buffer.add_string buf
              (match List.assoc_opt col pairs with
               | Some v -> Value.to_display v
               | None -> "-"))
          columns;
        Buffer.add_char buf '\n')
      rows;
    Buffer.add_string buf (Printf.sprintf "(%d row(s))" (List.length rows));
    Buffer.contents buf
