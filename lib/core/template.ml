module Value = Gaea_adt.Value

type expr =
  | Const of Value.t
  | Attr_of of string * string
  | Param of string
  | Anyof of expr
  | Apply of string * expr list

type assertion =
  | Expr_true of expr
  | Common of string * string
  | Card_eq of string * int
  | Card_ge of string * int

type mapping = {
  target : string;
  rhs : expr;
}

type t = {
  assertions : assertion list;
  mappings : mapping list;
}

let make ~assertions ~mappings = { assertions; mappings }

type env = {
  arg_objects : string -> Value.t list option;
  attr_value : string -> int -> string -> (Value.t, Gaea_error.t) result;
  spatial_attr : string -> string option;
  temporal_attr : string -> string option;
  param : string -> Value.t option;
  apply : string -> Value.t list -> (Value.t, Gaea_error.t) result;
  arity : string -> [ `Fixed of int | `Variadic ] option;
}

let ( let* ) r f = Result.bind r f

(* arg.attr per bound object, in binding order. *)
let attr_values env arg attr =
  match env.arg_objects arg with
  | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
  | Some objs ->
    Gaea_error.map_m
      (fun i -> env.attr_value arg i attr)
      (List.init (List.length objs) Fun.id)

(* arg.attr: scalar args give the attribute value directly, SETOF args a
   VSet of per-object attribute values. *)
let eval_attr_of env arg attr =
  match env.arg_objects arg with
  | Some [ _ ] -> env.attr_value arg 0 attr
  | _ ->
    let* values = attr_values env arg attr in
    Ok (Value.set values)

let rec eval env = function
  | Const v -> Ok v
  | Param name ->
    (match env.param name with
     | Some v -> Ok v
     | None -> Gaea_error.err (Printf.sprintf "unbound parameter %s" name))
  | Attr_of (arg, attr) -> eval_attr_of env arg attr
  | Anyof e ->
    let* v = eval env e in
    (match v with
     | Value.VSet (x :: _) -> Ok x
     | Value.VSet [] -> Gaea_error.err "ANYOF: empty set"
     | other -> Ok other)
  | Apply (opname, args) ->
    let* values = Gaea_error.map_m (eval env) args in
    (* Splice sets through variadic operators: composite(bands) where
       bands is SETOF image becomes composite(b1, b2, b3). *)
    let values =
      match
        if List.exists (function Value.VSet _ -> true | _ -> false) values
        then env.arity opname
        else None
      with
      | Some `Variadic ->
        List.concat_map
          (function
            | Value.VSet items -> items
            | v -> [ v ])
          values
      | Some (`Fixed _) | None -> values
    in
    env.apply opname values

let check_assertion env a =
  match a with
  | Expr_true e ->
    let* v = eval env e in
    (match v with
     | Value.VBool true -> Ok ()
     | Value.VBool false ->
       Gaea_error.err "assertion evaluated to false"
     | other ->
       Gaea_error.err
         (Printf.sprintf "assertion evaluated to non-boolean %s"
            (Value.to_display other)))
  | Card_eq (arg, n) ->
    (match env.arg_objects arg with
     | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
     | Some objs ->
       let c = List.length objs in
       if c = n then Ok ()
       else Gaea_error.err (Printf.sprintf "card(%s) = %d, requires exactly %d" arg c n))
  | Card_ge (arg, n) ->
    (match env.arg_objects arg with
     | None -> Gaea_error.err (Printf.sprintf "unbound argument %s" arg)
     | Some objs ->
       let c = List.length objs in
       if c >= n then Ok ()
       else Gaea_error.err (Printf.sprintf "card(%s) = %d, requires at least %d" arg c n))
  | Common (arg, attr) ->
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

let check_assertions env t =
  List.fold_left
    (fun acc a ->
      let* () = acc in
      match check_assertion env a with
      | Ok () -> Ok ()
      | Error e -> Error e)
    (Ok ()) t.assertions

let eval_mappings env t =
  let rec go = function
    | [] -> Ok []
    | m :: rest ->
      (match eval env m.rhs with
       | Ok v -> Result.map (List.cons (m.target, v)) (go rest)
       | Error e -> Error (Gaea_error.Context ("mapping " ^ m.target, e)))
  in
  go t.mappings

let rec expr_to_string = function
  | Const v -> Value.to_display v
  | Attr_of (arg, attr) -> Printf.sprintf "%s.%s" arg attr
  | Param p -> Printf.sprintf "$%s" p
  | Anyof e -> Printf.sprintf "ANYOF %s" (expr_to_string e)
  | Apply (op, args) ->
    Printf.sprintf "%s(%s)" op
      (String.concat ", " (List.map expr_to_string args))

let assertion_to_string = function
  | Expr_true e -> expr_to_string e
  | Common (arg, attr) -> Printf.sprintf "common(%s.%s)" arg attr
  | Card_eq (arg, n) -> Printf.sprintf "card(%s) = %d" arg n
  | Card_ge (arg, n) -> Printf.sprintf "card(%s) >= %d" arg n

let pp ~output_class fmt t =
  Format.fprintf fmt "@[<v 2>TEMPLATE {";
  Format.fprintf fmt "@ @[<v 2>ASSERTIONS:";
  List.iter
    (fun a -> Format.fprintf fmt "@ %s;" (assertion_to_string a))
    t.assertions;
  Format.fprintf fmt "@]@ @[<v 2>MAPPINGS:";
  List.iter
    (fun m ->
      Format.fprintf fmt "@ %s.%s = %s;" output_class m.target
        (expr_to_string m.rhs))
    t.mappings;
  Format.fprintf fmt "@]@]@ }"

let rec expr_params acc = function
  | Const _ -> acc
  | Attr_of _ -> acc
  | Param p -> p :: acc
  | Anyof e -> expr_params acc e
  | Apply (_, args) -> List.fold_left expr_params acc args

let free_params t =
  let from_assertions =
    List.fold_left
      (fun acc -> function
        | Expr_true e -> expr_params acc e
        | Common _ | Card_eq _ | Card_ge _ -> acc)
      [] t.assertions
  in
  let all =
    List.fold_left
      (fun acc m -> expr_params acc m.rhs)
      from_assertions t.mappings
  in
  List.sort_uniq compare all

let rec expr_args acc = function
  | Const _ | Param _ -> acc
  | Attr_of (arg, _) -> arg :: acc
  | Anyof e -> expr_args acc e
  | Apply (_, args) -> List.fold_left expr_args acc args

let referenced_args t =
  let from_assertions =
    List.fold_left
      (fun acc -> function
        | Expr_true e -> expr_args acc e
        | Common (a, _) | Card_eq (a, _) | Card_ge (a, _) ->
          a :: acc)
      [] t.assertions
  in
  let all =
    List.fold_left (fun acc m -> expr_args acc m.rhs) from_assertions t.mappings
  in
  List.sort_uniq compare all
