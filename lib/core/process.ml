module Value = Gaea_adt.Value

type arg_spec = {
  arg_name : string;
  arg_class : string;
  setof : bool;
  card_min : int;
  card_max : int option;
}

type step_input =
  | From_arg of string
  | From_step of int

type step = {
  step_process : string;
  step_inputs : (string * step_input) list;
}

type kind =
  | Primitive of Template.t
  | Compound of step list

type t = {
  proc_name : string;
  version : int;
  output_class : string;
  args : arg_spec list;
  params : (string * Value.t) list;
  kind : kind;
  doc : string;
  derived_from : (string * int) option;
}

let scalar_arg name cls =
  { arg_name = name; arg_class = cls; setof = false; card_min = 1;
    card_max = Some 1 }

let setof_arg ?(card_min = 1) ?card_max name cls =
  { arg_name = name; arg_class = cls; setof = true; card_min; card_max }

let validate_args name args =
  if args = [] then Gaea_error.err (name ^ ": a process needs at least one argument")
  else
    let rec check seen = function
      | [] -> Ok ()
      | a :: rest ->
        if a.arg_name = "" then Gaea_error.err (name ^ ": empty argument name")
        else if List.mem a.arg_name seen then
          Gaea_error.err (Printf.sprintf "%s: duplicate argument %s" name a.arg_name)
        else if a.card_min < 1 then
          Gaea_error.err (Printf.sprintf "%s: %s: card_min < 1" name a.arg_name)
        else if
          match a.card_max with
          | Some m -> m < a.card_min
          | None -> false
        then Gaea_error.err (Printf.sprintf "%s: %s: card_max < card_min" name a.arg_name)
        else if (not a.setof) && a.card_min <> 1 then
          Gaea_error.err
            (Printf.sprintf "%s: %s: scalar argument with cardinality" name
               a.arg_name)
        else check (a.arg_name :: seen) rest
    in
    check [] args

let ( let* ) r f = Result.bind r f

(* every referenced template parameter must be bound *)
let check_params name params template =
  let unbound =
    List.filter
      (fun p -> not (List.mem_assoc p params))
      (Template.free_params template)
  in
  if unbound = [] then Ok ()
  else
    Gaea_error.err
      (Printf.sprintf "%s: unbound parameter(s): %s" name
         (String.concat ", " unbound))

let define_primitive ~name ?(doc = "") ~output_class ~args ?(params = [])
    ~template () =
  if name = "" then Gaea_error.err "process: empty name"
  else
    let* () = validate_args name args in
    let* () = check_params name params template in
    let declared = List.map (fun a -> a.arg_name) args in
    let unknown =
      List.filter
        (fun a -> not (List.mem a declared))
        (Template.referenced_args template)
    in
    if unknown <> [] then
      Gaea_error.err
        (Printf.sprintf "%s: template references undeclared argument(s): %s"
           name
           (String.concat ", " unknown))
    else
      Ok
        { proc_name = name; version = 1; output_class; args; params;
          kind = Primitive template; doc; derived_from = None }

let define_compound ~name ?(doc = "") ~output_class ~args ~steps () =
  if name = "" then Gaea_error.err "process: empty name"
  else
    let* () = validate_args name args in
    if steps = [] then Gaea_error.err (name ^ ": compound process with no steps")
    else begin
      let declared = List.map (fun a -> a.arg_name) args in
      let rec check i = function
        | [] -> Ok ()
        | s :: rest ->
          let rec check_inputs = function
            | [] -> Ok ()
            | (_, From_arg a) :: tl ->
              if List.mem a declared then check_inputs tl
              else
                Gaea_error.err
                  (Printf.sprintf "%s: step %d references unknown argument %s"
                     name i a)
            | (_, From_step j) :: tl ->
              if j >= 0 && j < i then check_inputs tl
              else
                Gaea_error.err
                  (Printf.sprintf
                     "%s: step %d references step %d (must be earlier)" name i
                     j)
          in
          let* () = check_inputs s.step_inputs in
          check (i + 1) rest
      in
      let* () = check 0 steps in
      Ok
        { proc_name = name; version = 1; output_class; args; params = [];
          kind = Compound steps; doc; derived_from = None }
    end

let edit t ~name ?doc ?params ?template ?output_class () =
  let* kind =
    match template, t.kind with
    | None, k -> Ok k
    | Some tmpl, Primitive _ -> Ok (Primitive tmpl)
    | Some _, Compound _ ->
      Gaea_error.err (t.proc_name ^ ": cannot attach a template to a compound process")
  in
  let params = Option.value params ~default:t.params in
  let* () =
    match kind with
    | Primitive tmpl -> check_params name params tmpl
    | Compound _ -> Ok ()
  in
  Ok
    { proc_name = name;
      version = (if name = t.proc_name then t.version + 1 else 1);
      output_class = Option.value output_class ~default:t.output_class;
      args = t.args;
      params;
      kind;
      doc = Option.value doc ~default:t.doc;
      derived_from = Some (t.proc_name, t.version) }

let with_version ?derived_from t version =
  { t with
    version;
    derived_from =
      (match derived_from with
       | Some _ -> derived_from
       | None -> t.derived_from) }

let is_primitive t =
  match t.kind with
  | Primitive _ -> true
  | Compound _ -> false

let is_compound t = not (is_primitive t)

let template t =
  match t.kind with
  | Primitive tmpl -> Some tmpl
  | Compound _ -> None

let steps t =
  match t.kind with
  | Compound s -> s
  | Primitive _ -> []

let param t name = List.assoc_opt name t.params
let arg t name = List.find_opt (fun a -> a.arg_name = name) t.args
let key t = (t.proc_name, t.version)

let pp fmt t =
  Format.fprintf fmt "@[<v 2>DEFINE %s PROCESS %s (v%d)"
    (if is_primitive t then "PRIMITIVE" else "COMPOUND")
    t.proc_name t.version;
  Format.fprintf fmt "@ OUTPUT %s" t.output_class;
  List.iter
    (fun a ->
      Format.fprintf fmt "@ ARGUMENT ( %s %s%s%s )" a.arg_name
        (if a.setof then "SETOF " else "")
        a.arg_class
        (match a.card_min, a.card_max with
         | 1, Some 1 -> ""
         | n, Some m when n = m -> Printf.sprintf " [card = %d]" n
         | n, Some m -> Printf.sprintf " [card %d..%d]" n m
         | n, None -> Printf.sprintf " [card >= %d]" n))
    t.args;
  List.iter
    (fun (p, v) ->
      Format.fprintf fmt "@ PARAMETER %s = %s" p (Value.to_display v))
    t.params;
  (match t.kind with
   | Primitive tmpl ->
     Format.fprintf fmt "@ %a" (Template.pp ~output_class:t.output_class) tmpl
   | Compound cs ->
     Format.fprintf fmt "@ @[<v 2>STEPS:";
     (* steps are numbered from 1 in all user-facing output, matching
        the GaeaQL STEP n syntax (From_step stays 0-based internally) *)
     List.iteri
       (fun i s ->
         Format.fprintf fmt "@ %d: %s(%s)" (i + 1) s.step_process
           (String.concat ", "
              (List.map
                 (fun (arg, input) ->
                   Printf.sprintf "%s <- %s" arg
                     (match input with
                      | From_arg a -> a
                      | From_step j -> Printf.sprintf "step %d" (j + 1)))
                 s.step_inputs)))
       cs;
     Format.fprintf fmt "@]");
  (match t.derived_from with
   | Some (n, v) -> Format.fprintf fmt "@ EDITED FROM %s (v%d)" n v
   | None -> ());
  Format.fprintf fmt "@]"
