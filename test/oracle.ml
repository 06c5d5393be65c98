(* The reference template interpreter for the compiled-firing property
   in test_core: a template evaluated by name against an environment of
   closures, every attribute read resolving the argument, its class's
   table and the attribute's column again.  The deriver ran exactly this
   before process versions were compiled; a compiled firing must return
   what it returns, error text included. *)

open Gaea_core
module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Oid = Gaea_storage.Oid

let ( let* ) r f = Result.bind r f

type env = {
  arg_objects : string -> Value.t list option;
  attr_value : string -> int -> string -> (Value.t, Gaea_error.t) result;
  spatial_attr : string -> string option;
  temporal_attr : string -> string option;
  param : string -> Value.t option;
  apply : string -> Value.t list -> (Value.t, Gaea_error.t) result;
  arity : string -> [ `Fixed of int | `Variadic ] option;
}

(* arg.attr per bound object, in binding order *)
let attr_values env arg attr =
  match env.arg_objects arg with
  | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
  | Some objs ->
    Gaea_error.map_m
      (fun i -> env.attr_value arg i attr)
      (List.init (List.length objs) Fun.id)

let eval_attr_of env arg attr =
  match env.arg_objects arg with
  | Some [ _ ] -> env.attr_value arg 0 attr
  | _ ->
    let* values = attr_values env arg attr in
    Ok (Value.set values)

let rec eval env = function
  | Template.Const v -> Ok v
  | Template.Param name ->
    (match env.param name with
     | Some v -> Ok v
     | None -> Gaea_error.err (Printf.sprintf "unbound parameter %s" name))
  | Template.Attr_of (arg, attr) -> eval_attr_of env arg attr
  | Template.Anyof e ->
    let* v = eval env e in
    (match v with
     | Value.VSet (x :: _) -> Ok x
     | Value.VSet [] -> Gaea_error.err "ANYOF: empty set"
     | other -> Ok other)
  | Template.Apply (opname, args) ->
    let* values = Gaea_error.map_m (eval env) args in
    let values =
      match
        if List.exists (function Value.VSet _ -> true | _ -> false) values
        then env.arity opname
        else None
      with
      | Some `Variadic ->
        List.concat_map
          (function Value.VSet items -> items | v -> [ v ])
          values
      | Some (`Fixed _) | None -> values
    in
    env.apply opname values

let check_assertion env = function
  | Template.Expr_true e ->
    let* v = eval env e in
    (match v with
     | Value.VBool true -> Ok ()
     | Value.VBool false -> Gaea_error.err "assertion evaluated to false"
     | other ->
       Gaea_error.err
         (Printf.sprintf "assertion evaluated to non-boolean %s"
            (Value.to_display other)))
  | Template.Card_eq (arg, n) ->
    (match env.arg_objects arg with
     | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
     | Some objs ->
       let c = List.length objs in
       if c = n then Ok ()
       else
         Gaea_error.err
           (Printf.sprintf "card(%s) = %d, requires exactly %d" arg c n))
  | Template.Card_ge (arg, n) ->
    (match env.arg_objects arg with
     | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
     | Some objs ->
       let c = List.length objs in
       if c >= n then Ok ()
       else
         Gaea_error.err
           (Printf.sprintf "card(%s) = %d, requires at least %d" arg c n))
  | Template.Common (arg, attr) ->
    let rule =
      if env.spatial_attr arg = Some attr then
        Some ("common_boxes", "extents do not overlap")
      else if env.temporal_attr arg = Some attr then
        Some ("common_times", "timestamps disagree")
      else None
    in
    (match rule with
     | None ->
       Gaea_error.err
         (Printf.sprintf
            "common(%s.%s): %s is neither the spatial nor the temporal \
             extent of %s"
            arg attr attr arg)
     | Some (op, why) ->
       let* values = attr_values env arg attr in
       let* result = env.apply op [ Value.set values ] in
       (match result with
        | Value.VBool true -> Ok ()
        | _ ->
          Gaea_error.err
            (Printf.sprintf "common(%s.%s) violated: %s" arg attr why)))

let check_assertions env (t : Template.t) =
  List.fold_left
    (fun acc a ->
      let* () = acc in
      check_assertion env a)
    (Ok ()) t.Template.assertions

let eval_mappings env (t : Template.t) =
  let rec go = function
    | [] -> Ok []
    | (m : Template.mapping) :: rest ->
      (match eval env m.Template.rhs with
       | Ok v -> Result.map (List.cons (m.Template.target, v)) (go rest)
       | Error e -> Error (Gaea_error.Context ("mapping " ^ m.Template.target, e)))
  in
  go t.Template.mappings

let make_env k (p : Process.t) (inputs : (string * Oid.t list) list) =
  let arg_class name =
    Option.map (fun a -> a.Process.arg_class) (Process.arg p name)
  in
  let extent name pick =
    Option.bind (arg_class name) (fun cls ->
        Option.bind (Kernel.find_class k cls) pick)
  in
  let registry = Kernel.registry k in
  { arg_objects =
      (fun name ->
        Option.map (List.map Value.int) (List.assoc_opt name inputs));
    attr_value =
      (fun name i attr ->
        match List.assoc_opt name inputs, arg_class name with
        | Some oids, Some cls when i >= 0 && i < List.length oids ->
          let oid = List.nth oids i in
          (match Kernel.object_attr k ~cls oid attr with
           | Some v -> Ok v
           | None ->
             Gaea_error.err
               (Printf.sprintf "object %d of class %s has no attribute %s" oid
                  cls attr))
        | _ ->
          Gaea_error.err (Printf.sprintf "bad argument reference %s[%d]" name i));
    spatial_attr = (fun name -> extent name (fun d -> d.Schema.spatial_attr));
    temporal_attr = (fun name -> extent name (fun d -> d.Schema.temporal_attr));
    param = Process.param p;
    apply =
      (fun op args ->
        Result.map_error
          (fun e -> Gaea_error.Eval_error e)
          (Registry.apply registry op args));
    arity = Registry.arity registry }

let check_cards (p : Process.t) inputs =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Error (Gaea_error.Arity_mismatch (p.Process.proc_name ^ ": " ^ m)))
      fmt
  in
  Gaea_error.map_m
    (fun spec ->
      let name = spec.Process.arg_name in
      match List.assoc_opt name inputs, spec.Process.card_max with
      | None, _ -> fail "argument %s not bound" name
      | Some oids, _ when List.length oids < spec.Process.card_min ->
        fail "%s needs at least %d object(s), got %d" name spec.Process.card_min
          (List.length oids)
      | Some oids, Some m when List.length oids > m ->
        fail "%s takes at most %d object(s), got %d" name m (List.length oids)
      | Some _, _ -> Ok ())
    p.Process.args
  |> Result.map ignore

(* what [Kernel.recompute_task] returns for a primitive task *)
let eval_primitive k (p : Process.t) inputs =
  match Process.template p with
  | None ->
    Error (Gaea_error.Invalid (p.Process.proc_name ^ ": not a primitive process"))
  | Some tmpl ->
    let* () = check_cards p inputs in
    let env = make_env k p inputs in
    let* () = check_assertions env tmpl in
    let* pairs = eval_mappings env tmpl in
    (match Kernel.find_class k p.Process.output_class with
     | None ->
       Gaea_error.err
         (Printf.sprintf "%s: unknown output class %s" p.Process.proc_name
            p.Process.output_class)
     | Some def ->
       let missing =
         List.filter
           (fun a -> not (List.mem_assoc a pairs))
           (Schema.attr_names def)
       in
       if missing <> [] then
         Gaea_error.err
           (Printf.sprintf "%s: mappings missing for attribute(s) %s"
              p.Process.proc_name (String.concat ", " missing))
       else Ok pairs)
