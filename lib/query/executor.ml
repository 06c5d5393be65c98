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

(* ------------------------------------------------------------------ *)
(* AST -> core conversions                                             *)
(* ------------------------------------------------------------------ *)

let rec expr_to_template : Ast.expr -> Template.expr = function
  | Ast.E_lit l -> Template.Const (Optimizer.literal_value l)
  | Ast.E_attr (arg, attr) -> Template.Attr_of (arg, attr)
  | Ast.E_param p -> Template.Param p
  | Ast.E_anyof e -> Template.Anyof (expr_to_template e)
  | Ast.E_apply (op, args) ->
    Template.Apply (op, List.map expr_to_template args)

let assertion_to_template : Ast.assertion_syntax -> Template.assertion =
  function
  | Ast.A_expr e -> Template.Expr_true (expr_to_template e)
  | Ast.A_card_eq (arg, n) -> Template.Card_eq (arg, n)
  | Ast.A_card_ge (arg, n) -> Template.Card_ge (arg, n)
  | Ast.A_common_space arg -> Template.Common_space arg
  | Ast.A_common_time arg -> Template.Common_time arg

(* evaluate an expression with no argument bindings (INSERT values) *)
let eval_standalone t expr =
  let reg = Kernel.registry t.kernel in
  let env =
    { Template.arg_objects = (fun _ -> None);
      attr_value = (fun a _ _ -> Gaea_error.err ("no argument " ^ a ^ " in this context"));
      spatial_attr = (fun _ -> None);
      temporal_attr = (fun _ -> None);
      param = (fun _ -> None);
      apply =
        (fun op args ->
          match Registry.apply reg op args with
          | Ok v -> Ok v
          | Error e -> Error (Gaea_error.Eval_error e));
      arity =
        (fun op ->
          Option.map
            (fun o ->
              match (Operator.signature o).Operator.variadic with
              | Some _ -> `Variadic
              | None ->
                `Fixed (List.length (Operator.signature o).Operator.params))
            (Registry.find_operator reg op)) }
  in
  Template.eval env (expr_to_template expr)

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

(* A predicate compiled against one class's tuple layout: the literal
   converted and the attribute resolved once per statement, the test
   reading the stored tuple. *)
let compile_predicate desc pred =
  match Tuple.attr_index desc (pred_attr pred) with
  | None -> fun _ -> false
  | Some i ->
    (match pred with
     | Ast.P_compare (_, cmp, lit) ->
       let lv = Optimizer.literal_value lit in
       fun tuple ->
         let v = Tuple.get tuple i in
         (match cmp with
          | Ast.C_eq when not (Vorder.orderable (Value.type_of v)) ->
            Value.equal v lv
          | Ast.C_neq when not (Vorder.orderable (Value.type_of v)) ->
            not (Value.equal v lv)
          | _ ->
            (match Vorder.compare v lv with
             | Ok c -> compare_matches cmp c
             | Error _ -> false))
     | Ast.P_overlaps (_, lit) ->
       (match Optimizer.literal_value lit with
        | Value.VBox window ->
          fun tuple ->
            (match Tuple.get tuple i with
             | Value.VBox b -> Box.overlaps b window
             | _ -> false)
        | _ -> fun _ -> false)
     | Ast.P_at (_, lit) ->
       (match Optimizer.literal_value lit with
        | Value.VAbstime target ->
          fun tuple ->
            (match Tuple.get tuple i with
             | Value.VAbstime tv -> Abstime.in_day_window ~at:target tv
             | _ -> false)
        | _ -> fun _ -> false))

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
  (* A class's matches, produced on demand from [rows]: each a sort key
     (the stored ORDER BY attribute, or the OID) and the row, built only
     for a match. *)
  let matching cls preds rows =
    match Kernel.class_table t.kernel cls with
    | None -> Seq.empty
    | Some tab ->
      let desc = Table.descriptor tab in
      let tests = List.map (compile_predicate desc) preds in
      let columns =
        (match projected with
         | None -> List.map fst (Tuple.attrs desc)
         | Some cols -> cols)
        |> List.filter_map (fun a ->
               Option.map (fun i -> (a, i)) (Tuple.attr_index desc a))
      in
      let key =
        match s.Ast.order_by with
        | Some (attr, _) when is_oid attr -> fun oid _ -> Some (Value.int oid)
        | Some (attr, _) ->
          (match Tuple.attr_index desc attr with
           | Some i -> fun _ tuple -> Some (Tuple.get tuple i)
           | None -> fun _ _ -> None)
        | None -> fun _ _ -> None
      in
      Seq.filter_map
        (fun (oid, tuple) ->
          if List.for_all (fun test -> test tuple) tests then
            Some
              ( key oid tuple,
                (oid, List.map (fun (a, i) -> (a, Tuple.get tuple i)) columns) )
          else None)
        (rows tab)
  in
  let first_rows tab =
    match plan.Plan.path with
    | Plan.Index_eq (attr, v) -> List.to_seq (Table.lookup_eq tab attr v)
    | Plan.Index_range (attr, lo, hi) ->
      List.to_seq (Table.lookup_range tab attr ?lo ?hi ())
    | Plan.Full_scan -> Table.to_seq tab
  in
  (* Matches in result order: the first class along its access path,
     then the other concept members, scanned with all predicates.
     Without ORDER BY, LIMIT n stops the walk at the n-th match. *)
  let matches =
    Seq.append
      (matching first plan.Plan.residual first_rows)
      (Seq.concat_map (fun cls -> matching cls s.Ast.where_ Table.to_seq)
         (List.to_seq rest))
  in
  let limit = max 0 (Option.value s.Ast.limit ~default:max_int) in
  let rows =
    match s.Ast.order_by with
    | None -> List.of_seq (Seq.map snd (Seq.take limit matches))
    | Some (_, dir) ->
      List.stable_sort
        (fun (a, _) (b, _) ->
          let c =
            match a, b with
            | Some x, Some y ->
              (match Vorder.compare x y with Ok c -> c | Error _ -> 0)
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> 0
          in
          match dir with
          | Ast.Asc -> c
          | Ast.Desc -> -c)
        (List.of_seq matches)
      |> List.filteri (fun i _ -> i < limit)
      |> List.map snd
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

let outcome_message outcome =
  let trace =
    List.map
      (function
        | Derivation.Retrieved_direct (cls, oids) ->
          Printf.sprintf "retrieved %d stored object(s) of %s"
            (List.length oids) cls
        | Derivation.Interpolated (cls, oid) ->
          Printf.sprintf "interpolated object %d of %s" oid cls
        | Derivation.Fired (p, v, id) ->
          Printf.sprintf "fired %s v%d (task #%d)" p v id)
      outcome.Derivation.trace
  in
  Printf.sprintf "objects: [%s]\n%s"
    (String.concat ", "
       (List.map string_of_int outcome.Derivation.objects))
    (String.concat "\n" trace)

let render_refresh (r : Kernel.refresh_report) =
  let skipped =
    match r.Kernel.skip_reasons with
    | [] -> ""
    | rs ->
      "\nskipped:\n"
      ^ String.concat "\n"
          (List.map (fun (oid, why) -> Printf.sprintf "  #%d: %s" oid why) rs)
  in
  Printf.sprintf "refreshed %d object(s) (%d task(s)), %d left stale%s"
    r.Kernel.refreshed
    (List.length r.Kernel.tasks)
    r.Kernel.remaining skipped

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
    let spec_of (a : Ast.arg_syntax) =
      if a.Ast.sa_setof then begin
        let card_min, card_max =
          match a.Ast.sa_card with
          | Some (lo, hi) -> (lo, hi)
          | None -> (1, None)
        in
        Process.setof_arg ~card_min ?card_max a.Ast.sa_name a.Ast.sa_class
      end
      else Process.scalar_arg a.Ast.sa_name a.Ast.sa_class
    in
    let* proc =
      if steps <> [] then begin
        let step_of (s : Ast.step_syntax) =
          { Process.step_process = s.Ast.ss_process;
            step_inputs =
              List.map
                (fun (an, si) ->
                  ( an,
                    match si with
                    | Ast.SI_arg a -> Process.From_arg a
                    (* surface STEP n is 1-based; the core is 0-based *)
                    | Ast.SI_step i -> Process.From_step (i - 1) ))
                s.Ast.ss_inputs }
        in
        Process.define_compound ~name ~output_class:output
          ~args:(List.map spec_of args)
          ~steps:(List.map step_of steps) ()
      end
      else begin
        let template =
          Template.make
            ~assertions:(List.map assertion_to_template assertions)
            ~mappings:
              (List.map
                 (fun (target, e) ->
                   { Template.target; rhs = expr_to_template e })
                 mappings)
        in
        Process.define_primitive ~name ~output_class:output
          ~args:(List.map spec_of args)
          ~params:
            (List.map (fun (p, l) -> (p, Optimizer.literal_value l)) params)
          ~template ()
      end
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
    Ok (Message (Printf.sprintf "object %d inserted into %s" oid cls))
  | Ast.Delete { cls; oid } ->
    let* () = Kernel.delete_object t.kernel ~cls oid in
    Ok (Message (Printf.sprintf "object %d deleted from %s" oid cls))
  | Ast.Select s -> execute_select t s
  | Ast.Derive { cls; at; need } ->
    (* DERIVE on a concept resolves through the high-level layer: pick
       the member class with the cheapest materialization (Section
       2.1.5: "the user will select and query reproducible or
       precomputed instances") *)
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
                let plan = Optimizer.plan_materialize t.kernel c in
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
      | Some lit ->
        (match Optimizer.literal_value lit with
         | Value.VAbstime target ->
           Derivation.request_at t.kernel ~cls ~at:target ()
         | _ -> Gaea_error.err "DERIVE ... AT expects a date")
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
        let view = Kernel.derivation_net t.kernel in
        "\n"
        ^ Format.asprintf "%a"
            (Backchain.pp
               ~place_name:(fun pl ->
                 Option.value ~default:"?" (view.Kernel.class_of_place pl))
               ~transition_name:(fun tr ->
                 match view.Kernel.process_of_transition tr with
                 | Some (n, v) -> Printf.sprintf "%s v%d" n v
                 | None -> "?"))
            p
      | _ -> ""
    in
    Ok
      (Message
         (Format.asprintf "%a%s" Plan.pp_materialize_plan mplan detail))
  | Ast.Show_net ->
    let view = Kernel.derivation_net t.kernel in
    Ok
      (Message
         (Dot.to_dot ~name:"gaea-derivation"
            ~tokens:(Kernel.tokens t.kernel)
            view.Kernel.net))
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
    let lines =
      List.map
        (fun oid ->
          let cls =
            Option.value ~default:"?" (Kernel.class_of_object t.kernel oid)
          in
          let by =
            match Kernel.task_producing t.kernel oid with
            | Some task ->
              Printf.sprintf "%s v%d (task #%d)" task.Task.process
                task.Task.process_version task.Task.task_id
            | None -> "?"
          in
          Printf.sprintf "  #%d %s, derived by %s" oid cls by)
        stale
    in
    Ok
      (Message
         (Printf.sprintf "%d stale object(s)%s" (List.length stale)
            (match lines with
             | [] -> ""
             | _ -> ":\n" ^ String.concat "\n" lines)))
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
