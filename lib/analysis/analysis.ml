module Vtype = Gaea_adt.Vtype
module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Operator = Gaea_adt.Operator
module Kernel = Gaea_core.Kernel
module Schema = Gaea_core.Schema
module Process = Gaea_core.Process
module Template = Gaea_core.Template
module Concept = Gaea_core.Concept
module Task = Gaea_core.Task

(* ------------------------------------------------------------------ *)
(* Diagnostic catalogue                                                *)
(* ------------------------------------------------------------------ *)

let codes =
  [
    ("GA001", Diagnostic.Error, "mapping target not in the output class");
    ("GA002", Diagnostic.Error, "output attribute never mapped");
    ("GA003", Diagnostic.Error, "reference to an undeclared argument");
    ("GA004", Diagnostic.Error, "argument class has no such attribute");
    ("GA005", Diagnostic.Error, "unknown operator");
    ("GA006", Diagnostic.Error, "operator arity mismatch");
    ("GA007", Diagnostic.Error, "operator or mapping type mismatch");
    ("GA008", Diagnostic.Error, "unbound process parameter");
    ("GA009", Diagnostic.Error, "common() on an attribute that is not an extent");
    ("GA010", Diagnostic.Warning, "duplicate mapping target");
    ("GA011", Diagnostic.Error, "contradictory cardinality constraints");
    ("GA012", Diagnostic.Error, "cardinality assertion on a scalar argument");
    ("GA013", Diagnostic.Error, "unknown input or output class");
    ("GA020", Diagnostic.Error, "compound expansion recurses");
    ("GA021", Diagnostic.Error, "unknown sub-process");
    ("GA022", Diagnostic.Error, "step input class incompatible");
    ("GA023", Diagnostic.Warning, "dead step: output never consumed");
    ("GA024", Diagnostic.Error, "step argument binding incomplete or unknown");
    ("GA025", Diagnostic.Error, "step cardinality unsatisfiable");
    ("GA026", Diagnostic.Error, "final step class differs from the output");
    ("GA027", Diagnostic.Info, "derivation-net transition can never fire");
    ("GA028", Diagnostic.Info, "derived class unreachable in the net");
    ("GA030", Diagnostic.Warning, "task references a superseded version");
    ("GA031", Diagnostic.Warning, "live object derived by a superseded version");
    ("GA032", Diagnostic.Warning, "class DERIVED BY an unknown process");
    ("GA033", Diagnostic.Info, "derived object stale w.r.t. its task inputs");
  ]

let describe code =
  List.find_map
    (fun (c, _, d) -> if c = code then Some d else None)
    codes

(* ------------------------------------------------------------------ *)
(* Inferred types                                                      *)
(* ------------------------------------------------------------------ *)

(* The lattice avoiding false positives on SETOF arguments: a SETOF
   argument whose cardinality range straddles 1 evaluates to either a
   bare value (one object bound) or a VSet (several), so neither shape
   can be ruled out statically. *)
type ity =
  | Known of Vtype.t
  | Set_or_one of Vtype.t  (* Setof t or t, depending on the binding *)
  | Unknown  (* a reported error upstream; suppress follow-on checks *)

let ity_to_string = function
  | Known t -> Vtype.to_string t
  | Set_or_one t ->
    Printf.sprintf "%s or setof %s" (Vtype.to_string t) (Vtype.to_string t)
  | Unknown -> "?"

(* Can this inferred shape put a set on the operator's argument list
   (and hence be spliced by a variadic operator)? *)
let may_be_set = function
  | Known (Vtype.Setof _) | Set_or_one _ | Unknown -> true
  | Known _ -> false

(* ------------------------------------------------------------------ *)
(* Per-process checking context                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  kernel : Kernel.t;
  proc : Process.t;
  mutable acc : Diagnostic.t list;
}

let emit ctx ~code ~severity ?element message =
  ctx.acc <-
    Diagnostic.make ~code ~severity ~proc:ctx.proc.Process.proc_name
      ~version:ctx.proc.Process.version ?element message
    :: ctx.acc

let error ctx ~code ?element msg =
  emit ctx ~code ~severity:Diagnostic.Error ?element msg

let warning ctx ~code ?element msg =
  emit ctx ~code ~severity:Diagnostic.Warning ?element msg

(* ------------------------------------------------------------------ *)
(* Pass 1: template well-formedness                                    *)
(* ------------------------------------------------------------------ *)

(* The static shape of [arg.attr]: what a compiled template's attribute
   read produces for each possible binding the cardinality bounds
   allow. *)
let attr_shape (spec : Process.arg_spec) ty =
  if (not spec.Process.setof) || spec.Process.card_max = Some 1 then Known ty
  else if spec.Process.card_min >= 2 then Known (Vtype.Setof ty)
  else Set_or_one ty

(* [widen] mirrors the storage layer's Int -> Float coercion on insert
   (Tuple.of_array): mapping targets accept it, operator arguments do
   not (Operator.check_args is strict). *)
let fits ?(widen = false) ~expected t =
  Vtype.matches ~expected ~actual:t
  || (widen && expected = Vtype.Float && t = Vtype.Int)

let check_ity ?widen ctx ~element ~expected ity ~what =
  match ity with
  | Unknown -> ()
  | Known t ->
    if not (fits ?widen ~expected t) then
      error ctx ~code:"GA007" ~element
        (Printf.sprintf "%s: expected %s, got %s" what
           (Vtype.to_string expected) (Vtype.to_string t))
  | Set_or_one t ->
    if
      not
        (fits ?widen ~expected t
        || Vtype.matches ~expected ~actual:(Vtype.Setof t))
    then
      error ctx ~code:"GA007" ~element
        (Printf.sprintf "%s: expected %s, got %s" what
           (Vtype.to_string expected) (ity_to_string (Set_or_one t)))

let rec infer ctx ~element (expr : Template.expr) =
  match expr with
  | Template.Const v -> Known (Value.type_of v)
  | Template.Param name -> (
    match Process.param ctx.proc name with
    | Some v -> Known (Value.type_of v)
    | None ->
      error ctx ~code:"GA008" ~element
        (Printf.sprintf "parameter $%s is not bound by the process" name);
      Unknown)
  | Template.Attr_of (arg, attr) -> (
    match Process.arg ctx.proc arg with
    | None ->
      error ctx ~code:"GA003" ~element
        (Printf.sprintf "%s.%s references undeclared argument %s" arg attr
           arg);
      Unknown
    | Some spec -> (
      match Kernel.find_class ctx.kernel spec.Process.arg_class with
      | None -> Unknown (* GA013 already reported for the class *)
      | Some sch -> (
        match Schema.attr_type sch attr with
        | None ->
          error ctx ~code:"GA004" ~element
            (Printf.sprintf "class %s (argument %s) has no attribute %s"
               spec.Process.arg_class arg attr);
          Unknown
        | Some ty -> attr_shape spec ty)))
  | Template.Anyof e -> (
    match infer ctx ~element e with
    | Known (Vtype.Setof t) -> Known t
    | Set_or_one t -> Known t
    | (Known _ | Unknown) as i -> i (* ANYOF of a non-set is identity *))
  | Template.Apply (opname, args) -> (
    let itys = List.map (infer ctx ~element) args in
    match Registry.find_operator (Kernel.registry ctx.kernel) opname with
    | None ->
      error ctx ~code:"GA005" ~element
        (Printf.sprintf "unknown operator %s" opname);
      Unknown
    | Some op ->
      let sg = Operator.signature op in
      let n_fixed = List.length sg.Operator.params in
      (match sg.Operator.variadic with
       | None ->
         (* fixed signature: sets are passed through unspliced, so the
            written arity is the runtime arity *)
         if List.length itys <> n_fixed then
           error ctx ~code:"GA006" ~element
             (Printf.sprintf "%s expects %d argument(s), got %d" opname
                n_fixed (List.length itys))
         else
           List.iteri
             (fun i (expected, ity) ->
               check_ity ctx ~element ~expected ity
                 ~what:(Printf.sprintf "%s argument %d" opname (i + 1)))
             (List.combine sg.Operator.params itys)
       | Some velem ->
         let splice_possible = List.exists may_be_set itys in
         (* Operator.check_args only rejects fewer than the fixed
            prefix for variadic operators *)
         if (not splice_possible) && List.length itys < n_fixed then
           error ctx ~code:"GA006" ~element
             (Printf.sprintf "%s expects at least %d argument(s), got %d"
                opname n_fixed (List.length itys))
         else if not splice_possible then begin
           (* positions are stable: fixed prefix, then variadic tail *)
           List.iteri
             (fun i ity ->
               let expected =
                 if i < n_fixed then List.nth sg.Operator.params i else velem
               in
               check_ity ctx ~element ~expected ity
                 ~what:(Printf.sprintf "%s argument %d" opname (i + 1)))
             itys
         end
         else
           (* a set argument splices into individual values, shifting
              every later position: only check that each argument can
              land somewhere in the signature *)
           List.iteri
             (fun i ity ->
               match ity with
               | Unknown | Set_or_one _ -> ()
               | Known t ->
                 let elem =
                   match t with Vtype.Setof e -> e | other -> other
                 in
                 let fits =
                   List.exists
                     (fun p -> Vtype.matches ~expected:p ~actual:t)
                     sg.Operator.params
                   || Vtype.matches ~expected:velem ~actual:t
                   || Vtype.matches ~expected:velem ~actual:elem
                 in
                 if not fits then
                   error ctx ~code:"GA007" ~element
                     (Printf.sprintf
                        "%s argument %d: %s fits no position of %s" opname
                        (i + 1) (Vtype.to_string t)
                        (Operator.signature_to_string sg))
             )
             itys);
      (match sg.Operator.returns with
       | Vtype.Any -> Unknown
       | t -> Known t))

let check_template ctx (tmpl : Template.t) =
  let p = ctx.proc in
  let out_schema = Kernel.find_class ctx.kernel p.Process.output_class in
  let targets = List.map (fun m -> m.Template.target) tmpl.Template.mappings in
  (* mapping targets exist in the output class, exactly once each *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (m : Template.mapping) ->
      let element = "MAP " ^ m.Template.target in
      (if Hashtbl.mem seen m.Template.target then
         warning ctx ~code:"GA010" ~element
           (Printf.sprintf "attribute %s is mapped more than once"
              m.Template.target)
       else Hashtbl.add seen m.Template.target ());
      match out_schema with
      | None -> ()
      | Some sch -> (
        match Schema.attr_type sch m.Template.target with
        | None ->
          error ctx ~code:"GA001" ~element
            (Printf.sprintf "output class %s has no attribute %s"
               p.Process.output_class m.Template.target)
        | Some ta ->
          let ity = infer ctx ~element m.Template.rhs in
          check_ity ~widen:true ctx ~element ~expected:ta ity
            ~what:(Printf.sprintf "mapping of %s" m.Template.target)))
    tmpl.Template.mappings;
  (* every output attribute is mapped — the deriver refuses otherwise *)
  (match out_schema with
   | None -> ()
   | Some sch ->
     List.iter
       (fun a ->
         if not (List.mem a targets) then
           error ctx ~code:"GA002"
             ~element:("attribute " ^ a)
             (Printf.sprintf "output attribute %s of %s is never mapped" a
                p.Process.output_class))
       (Schema.attr_names sch));
  (* assertions *)
  let declared a = Process.arg p a <> None in
  let require_declared ~element a =
    if not (declared a) then
      error ctx ~code:"GA003" ~element
        (Printf.sprintf "assertion references undeclared argument %s" a)
  in
  List.iter
    (fun (a : Template.assertion) ->
      let element = "ASSERT " ^ Template.assertion_to_string a in
      match a with
      | Template.Expr_true e -> (
        match infer ctx ~element e with
        | Known Vtype.Bool | Unknown | Set_or_one Vtype.Bool -> ()
        | other ->
          error ctx ~code:"GA007" ~element
            (Printf.sprintf "assertion must be bool, got %s"
               (ity_to_string other)))
      | Template.Card_eq (arg, _) | Template.Card_ge (arg, _) ->
        require_declared ~element arg
      | Template.Common (arg, attr) ->
        require_declared ~element arg;
        (match Process.arg p arg with
         | None -> ()
         | Some spec -> (
           match Kernel.find_class ctx.kernel spec.Process.arg_class with
           | None -> ()
           | Some sch ->
             if
               sch.Schema.spatial_attr <> Some attr
               && sch.Schema.temporal_attr <> Some attr
             then
               error ctx ~code:"GA009" ~element
                 (Printf.sprintf
                    "%s is neither the spatial nor the temporal extent of \
                     class %s"
                    attr spec.Process.arg_class))))
    tmpl.Template.assertions

(* ------------------------------------------------------------------ *)
(* Pass 2: cardinality satisfiability                                  *)
(* ------------------------------------------------------------------ *)

let check_cardinalities ctx (tmpl : Template.t) =
  let p = ctx.proc in
  List.iter
    (fun (spec : Process.arg_spec) ->
      let name = spec.Process.arg_name in
      if not spec.Process.setof then
        (* a scalar argument always binds exactly one object *)
        List.iter
          (fun (a : Template.assertion) ->
            match a with
            | Template.Card_eq (arg, n) when arg = name && n <> 1 ->
              error ctx ~code:"GA012"
                ~element:("ASSERT " ^ Template.assertion_to_string a)
                (Printf.sprintf
                   "argument %s is scalar (always 1 object), card = %d \
                    can never hold"
                   name n)
            | Template.Card_ge (arg, n) when arg = name && n > 1 ->
              error ctx ~code:"GA012"
                ~element:("ASSERT " ^ Template.assertion_to_string a)
                (Printf.sprintf
                   "argument %s is scalar (always 1 object), card >= %d \
                    can never hold"
                   name n)
            | _ -> ())
          tmpl.Template.assertions
      else begin
        (* intersect the declared [card_min, card_max] with every
           assertion, reporting at the assertion that empties it *)
        let lo = ref spec.Process.card_min in
        let hi = ref spec.Process.card_max in
        let emitted = ref false in
        let range () =
          match !hi with
          | None -> Printf.sprintf "[%d, inf)" !lo
          | Some h -> Printf.sprintf "[%d, %d]" !lo h
        in
        let narrow (a : Template.assertion) nlo nhi =
          let before = range () in
          lo := max !lo nlo;
          (match nhi with
           | Some h ->
             hi := Some (match !hi with None -> h | Some h0 -> min h0 h)
           | None -> ());
          match !hi with
          | Some h when !lo > h && not !emitted ->
            emitted := true;
            error ctx ~code:"GA011"
              ~element:("ASSERT " ^ Template.assertion_to_string a)
              (Printf.sprintf
                 "cardinality of %s was %s; this assertion leaves no \
                  satisfiable count"
                 name before)
          | _ -> ()
        in
        List.iter
          (fun (a : Template.assertion) ->
            match a with
            | Template.Card_eq (arg, n) when arg = name ->
              narrow a n (Some n)
            | Template.Card_ge (arg, n) when arg = name -> narrow a n None
            | _ -> ())
          tmpl.Template.assertions
      end)
    p.Process.args

(* ------------------------------------------------------------------ *)
(* Pass 3: compound nets                                               *)
(* ------------------------------------------------------------------ *)

(* Are two classes bridged by the high-level layer?  True when they
   share a concept or their concepts are related through the ISA
   DAG — mismatches across such classes downgrade to warnings. *)
let classes_related k c1 c2 =
  c1 = c2
  ||
  let concepts = Kernel.concepts k in
  let cs1 = Concept.concepts_of_class concepts c1 in
  let cs2 = Concept.concepts_of_class concepts c2 in
  List.exists
    (fun x ->
      List.exists
        (fun y ->
          x = y
          || List.mem x (Concept.ancestors concepts y)
          || List.mem y (Concept.ancestors concepts x))
        cs2)
    cs1

let check_recursion ctx =
  let p = ctx.proc in
  let emitted = ref false in
  let visited = Hashtbl.create 8 in
  (* expansion resolves sub-process names to their latest versions, so
     the call graph is over names *)
  let rec visit path steps =
    List.iter
      (fun (s : Process.step) ->
        let sub = s.Process.step_process in
        if List.mem sub path then begin
          if not !emitted then begin
            emitted := true;
            error ctx ~code:"GA020"
              ~element:("step calling " ^ sub)
              (Printf.sprintf "expansion never terminates: %s"
                 (String.concat " -> " (List.rev (sub :: path))))
          end
        end
        else if not (Hashtbl.mem visited sub) then begin
          Hashtbl.add visited sub ();
          match Kernel.find_process ctx.kernel sub with
          | Some q when Process.is_compound q ->
            visit (sub :: path) (Process.steps q)
          | Some _ | None -> ()
        end)
      steps
  in
  visit [ p.Process.proc_name ] (Process.steps p)

let check_compound ctx =
  let p = ctx.proc in
  let steps = Process.steps p in
  let n = List.length steps in
  check_recursion ctx;
  List.iteri
    (fun i (s : Process.step) ->
      (* step numbering is 1-based everywhere a user sees it, matching
         the STEP n surface syntax *)
      let element =
        Printf.sprintf "step %d (%s)" (i + 1) s.Process.step_process
      in
      match Kernel.find_process ctx.kernel s.Process.step_process with
      | None ->
        error ctx ~code:"GA021" ~element
          (Printf.sprintf "sub-process %s is not defined"
             s.Process.step_process)
      | Some sub ->
        (* every argument of the sub-process must be bound *)
        List.iter
          (fun (a : Process.arg_spec) ->
            if not (List.mem_assoc a.Process.arg_name s.Process.step_inputs)
            then
              error ctx ~code:"GA024" ~element
                (Printf.sprintf "argument %s of %s is not bound"
                   a.Process.arg_name sub.Process.proc_name))
          sub.Process.args;
        List.iter
          (fun (an, input) ->
            match Process.arg sub an with
            | None ->
              error ctx ~code:"GA024" ~element
                (Printf.sprintf "%s has no argument %s"
                   sub.Process.proc_name an)
            | Some sa -> (
              let source =
                match input with
                | Process.From_arg a -> (
                  match Process.arg p a with
                  | None ->
                    error ctx ~code:"GA024" ~element
                      (Printf.sprintf
                         "binding of %s references unknown compound \
                          argument %s"
                         an a);
                    None
                  | Some ca ->
                    Some
                      ( ca.Process.arg_class,
                        Some (ca.Process.card_min, ca.Process.card_max) ))
                | Process.From_step j ->
                  if j < 0 || j >= i then begin
                    error ctx ~code:"GA024" ~element
                      (Printf.sprintf
                         "binding of %s references step %d (must be an \
                          earlier step)"
                         an (j + 1));
                    None
                  end
                  else
                    (* the producing step's output count is a run-time
                       quantity; only the class is checked *)
                    Option.map
                      (fun (q : Process.t) -> (q.Process.output_class, None))
                      (Kernel.find_process ctx.kernel
                         (List.nth steps j).Process.step_process)
              in
              match source with
              | None -> ()
              | Some (cls, card) ->
                (if cls <> sa.Process.arg_class then
                   let related =
                     classes_related ctx.kernel cls sa.Process.arg_class
                   in
                   let msg =
                     Printf.sprintf
                       "argument %s of %s expects class %s, gets %s%s" an
                       sub.Process.proc_name sa.Process.arg_class cls
                       (if related then
                          " (related through the concept hierarchy)"
                        else "")
                   in
                   if related then warning ctx ~code:"GA022" ~element msg
                   else error ctx ~code:"GA022" ~element msg);
                (match card with
                 | None -> ()
                 | Some (cmin, cmax) ->
                   let disjoint =
                     (match sa.Process.card_max with
                      | Some m -> cmin > m
                      | None -> false)
                     ||
                     (match cmax with
                      | Some m -> m < sa.Process.card_min
                      | None -> false)
                   in
                   if disjoint then
                     error ctx ~code:"GA025" ~element
                       (Printf.sprintf
                          "argument %s of %s wants %s objects but the \
                           compound argument supplies %s"
                          an sub.Process.proc_name
                          (match sa.Process.card_max with
                           | Some m ->
                             Printf.sprintf "%d..%d" sa.Process.card_min m
                           | None ->
                             Printf.sprintf ">= %d" sa.Process.card_min)
                          (match cmax with
                           | Some m -> Printf.sprintf "%d..%d" cmin m
                           | None -> Printf.sprintf ">= %d" cmin)))))
          s.Process.step_inputs;
        (* dead step: output neither consumed later nor the final one *)
        if i < n - 1 then begin
          let consumed =
            List.exists
              (fun (s' : Process.step) ->
                List.exists
                  (fun (_, inp) -> inp = Process.From_step i)
                  s'.Process.step_inputs)
              steps
          in
          if not consumed then
            warning ctx ~code:"GA023" ~element
              (Printf.sprintf
                 "output of step %d is never consumed and is not the \
                  final output"
                 (i + 1))
        end;
        (* the last step delivers the compound's output *)
        if i = n - 1 && sub.Process.output_class <> p.Process.output_class
        then begin
          let related =
            classes_related ctx.kernel sub.Process.output_class
              p.Process.output_class
          in
          let msg =
            Printf.sprintf
              "final step produces class %s, the compound is declared to \
               output %s%s"
              sub.Process.output_class p.Process.output_class
              (if related then " (related through the concept hierarchy)"
               else "")
          in
          if related then warning ctx ~code:"GA026" ~element msg
          else error ctx ~code:"GA026" ~element msg
        end)
    steps

(* ------------------------------------------------------------------ *)
(* check_process                                                       *)
(* ------------------------------------------------------------------ *)

let check_process kernel (p : Process.t) =
  let ctx = { kernel; proc = p; acc = [] } in
  (* class resolution first: later passes skip what GA013 covers *)
  List.iter
    (fun cls ->
      if Kernel.find_class kernel cls = None then
        error ctx ~code:"GA013" ~element:("class " ^ cls)
          (Printf.sprintf "class %s is not defined" cls))
    (List.sort_uniq compare
       (p.Process.output_class
       :: List.map (fun a -> a.Process.arg_class) p.Process.args));
  (match Process.template p with
   | Some tmpl ->
     check_template ctx tmpl;
     check_cardinalities ctx tmpl
   | None -> check_compound ctx);
  Diagnostic.sort ctx.acc

(* ------------------------------------------------------------------ *)
(* Kernel-wide passes                                                  *)
(* ------------------------------------------------------------------ *)

let kernel_diag ~code ~severity ?proc ?version ?element message =
  Diagnostic.make ~code ~severity ?proc ?version ?element message

let check_classes k =
  List.filter_map
    (fun (sch : Schema.t) ->
      match Schema.derived_by sch with
      | Some proc when Kernel.find_process k proc = None ->
        Some
          (kernel_diag ~code:"GA032" ~severity:Diagnostic.Warning
             ~element:("class " ^ sch.Schema.c_name)
             (Printf.sprintf "class %s is DERIVED BY unknown process %s"
                sch.Schema.c_name proc))
      | _ -> None)
    (Kernel.classes k)

let version_lints k reversioned =
  let superseded name version =
    List.find_map
      (fun (n, latest) ->
        if String.equal n name && latest > version then Some latest
        else None)
      reversioned
  in
  let task_lints =
    List.filter_map
      (fun (t : Task.t) ->
        match superseded t.Task.process t.Task.process_version with
        | Some latest ->
          Some
            (kernel_diag ~code:"GA030" ~severity:Diagnostic.Warning
               ~proc:t.Task.process ~version:t.Task.process_version
               ~element:(Printf.sprintf "task %d" t.Task.task_id)
               (Printf.sprintf
                  "task %d ran %s v%d, superseded by v%d — derived data \
                   may be stale"
                  t.Task.task_id t.Task.process t.Task.process_version
                  latest))
        | None -> None)
      (Kernel.tasks k)
  in
  (* live derived objects whose provenance points at an old version *)
  let object_lints =
    List.concat_map
      (fun (sch : Schema.t) ->
        if not (Schema.is_derived sch) then []
        else
          List.filter_map
            (fun oid ->
              match Kernel.task_producing k oid with
              | None -> None
              | Some t -> (
                match superseded t.Task.process t.Task.process_version with
                | Some latest ->
                  Some
                    (kernel_diag ~code:"GA031" ~severity:Diagnostic.Warning
                       ~proc:t.Task.process ~version:t.Task.process_version
                       ~element:
                         (Printf.sprintf "object %d of class %s" oid
                            sch.Schema.c_name)
                       (Printf.sprintf
                          "object %d was derived by %s v%d, superseded by \
                           v%d"
                          oid t.Task.process t.Task.process_version latest))
                | None -> None))
            (Kernel.objects_of_class k sch.Schema.c_name))
      (Kernel.classes k)
  in
  task_lints @ object_lints

(* GA030/GA031 need a task that ran an older version than its
   process's latest, so only a process with two or more versions can
   raise them: without one, neither the task log nor the derived
   objects are read. *)
let check_versions k =
  (* (name, latest version) of each process with an older version *)
  let reversioned =
    List.filter_map
      (fun (p : Process.t) ->
        match Kernel.process_versions k p.Process.proc_name with
        | _ :: _ :: _ -> Some (p.Process.proc_name, p.Process.version)
        | _ -> None)
      (Kernel.processes k)
  in
  if reversioned = [] then [] else version_lints k reversioned

let check_net k =
  let net = Kernel.derivation_net k in
  let report = Gaea_petri.Analysis.analyze net (Kernel.tokens k) in
  let dead =
    List.filter_map
      (fun tr ->
        match Kernel.find_process k (Gaea_petri.Net.transition_name net tr) with
        | None -> None
        | Some { Process.proc_name = name; version; _ } ->
          Some
            (kernel_diag ~code:"GA027" ~severity:Diagnostic.Info ~proc:name
               ~version
               (Printf.sprintf
                  "no firing sequence from the current data can run %s v%d"
                  name version)))
      report.Gaea_petri.Analysis.dead_transitions
  in
  let underivable =
    List.filter_map
      (fun place ->
        let cls = Gaea_petri.Net.place_name net place in
        match Kernel.find_class k cls with
        | Some sch when Schema.is_derived sch ->
          Some
            (kernel_diag ~code:"GA028" ~severity:Diagnostic.Info
               ~element:("class " ^ cls)
               (Printf.sprintf
                  "derived class %s cannot be reached from the current data"
                  cls))
        | _ -> None)
      report.Gaea_petri.Analysis.underivable_places
  in
  dead @ underivable

(* GA033 shares the refresh subsystem's staleness definition verbatim:
   whatever [Kernel.stale_objects] reports is what REFRESH would
   recompute — the analyzer never re-derives its own notion. *)
let check_stale k =
  List.map
    (fun oid ->
      let cls = Option.value ~default:"?" (Kernel.class_of_object k oid) in
      match Kernel.task_producing k oid with
      | Some (t : Task.t) ->
        kernel_diag ~code:"GA033" ~severity:Diagnostic.Info
          ~proc:t.Task.process ~version:t.Task.process_version
          ~element:(Printf.sprintf "object %d of class %s" oid cls)
          (Printf.sprintf
             "object %d is stale: inputs of task %d changed since %s v%d ran \
              — REFRESH %s %d to recompute"
             oid t.Task.task_id t.Task.process t.Task.process_version cls oid)
      | None ->
        kernel_diag ~code:"GA033" ~severity:Diagnostic.Info
          ~element:(Printf.sprintf "object %d of class %s" oid cls)
          (Printf.sprintf "object %d is stale w.r.t. its recorded inputs" oid))
    (Kernel.stale_objects k)

let check_kernel k =
  let per_process =
    List.concat_map (fun p -> check_process k p) (Kernel.processes k)
  in
  Diagnostic.sort
    (per_process @ check_classes k @ check_versions k @ check_net k
     @ check_stale k)
