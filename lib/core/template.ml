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

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

module Operator = Gaea_adt.Operator
module Registry = Gaea_adt.Registry
module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple
module Oid = Gaea_storage.Oid

type scope_arg = {
  arg : string;
  cls : string option;
  table : Table.t option;
  spatial : string option;
  temporal : string option;
}

(* [arg.attr] resolved: the argument's slot and the attribute's column
   in its class's tuples, [-1] when the class has no such attribute *)
type read = {
  slot : int;
  attr : string;
  pos : int;
}

type node =
  | K of Value.t  (* a constant or a bound parameter *)
  | Fail of Gaea_error.t  (* a name that did not resolve, when reached *)
  | Read of read
  | Pick of node  (* ANYOF *)
  | Call of {
      op : (Operator.t, Gaea_error.t) result;
      splice : bool;  (* variadic: a set argument is spliced *)
      args : node list;
    }

(* the assertions: an expression that must hold, a cardinality, a
   common() on an extent with its rule, or one that can only fail *)
type guard =
  | Holds of node
  | Card of { c_slot : int; n : int; exactly : bool }
  | Shared of {
      values : read;
      rule : (Operator.t, Gaea_error.t) result;
      violated : Gaea_error.t;
    }
  | Refuted of Gaea_error.t

type program = {
  slots : scope_arg array;
  guards : guard list;
  targets : string array;
  mapped : node array;
  complete : bool;
}

let invalid m = Gaea_error.Invalid m
let unbound_arg arg = invalid ("unbound argument " ^ arg)

(* what names resolve against; [resolved] turns false at the first
   operator the registry lacks *)
type scope = {
  registry : Registry.t;
  args : scope_arg array;
  bound : (string * Value.t) list;
  mutable resolved : bool;
}

let slot_of sc arg =
  let rec find i =
    if i = Array.length sc.args then None
    else if sc.args.(i).arg = arg then Some i
    else find (i + 1)
  in
  find 0

let read sc slot attr =
  let pos =
    match sc.args.(slot).table with
    | Some tab ->
      Option.value ~default:(-1) (Tuple.attr_index (Table.descriptor tab) attr)
    | None -> -1
  in
  { slot; attr; pos }

let operator sc name =
  match Registry.find_operator sc.registry name with
  | Some op -> Ok op
  | None ->
    sc.resolved <- false;
    Error (Gaea_error.Eval_error (Printf.sprintf "unknown operator %s" name))

let rec node sc = function
  | Const v -> K v
  | Param p ->
    (match List.assoc_opt p sc.bound with
     | Some v -> K v
     | None -> Fail (invalid (Printf.sprintf "unbound parameter %s" p)))
  | Attr_of (arg, attr) ->
    (match slot_of sc arg with
     | Some i -> Read (read sc i attr)
     | None -> Fail (unbound_arg arg))
  | Anyof e -> Pick (node sc e)
  | Apply (name, args) ->
    let op = operator sc name in
    let splice =
      match op with
      | Ok o -> (Operator.signature o).Operator.variadic <> None
      | Error _ -> false
    in
    Call { op; splice; args = List.map (node sc) args }

let guard sc = function
  | Expr_true e -> Holds (node sc e)
  | (Card_eq (arg, n) | Card_ge (arg, n)) as a ->
    (match slot_of sc arg with
     | Some c_slot ->
       let exactly = match a with Card_eq _ -> true | _ -> false in
       Card { c_slot; n; exactly }
     | None -> Refuted (unbound_arg arg))
  | Common (arg, attr) ->
    let slot = slot_of sc arg in
    let rule =
      match Option.map (fun i -> sc.args.(i)) slot with
      | Some s when s.spatial = Some attr ->
        Some ("common_boxes", "extents do not overlap")
      | Some s when s.temporal = Some attr ->
        Some ("common_times", "timestamps disagree")
      | _ -> None
    in
    (match rule, slot with
     | Some (op, why), Some i ->
       Shared
         { values = read sc i attr;
           rule = operator sc op;
           violated =
             invalid
               (Printf.sprintf "common(%s.%s) violated: %s" arg attr why) }
     | _ ->
       Refuted
         (invalid
            (Printf.sprintf
               "common(%s.%s): %s is neither the spatial nor the temporal \
                extent of %s"
               arg attr attr arg)))

let compile registry ~scope ~params t =
  let sc =
    { registry; args = Array.of_list scope; bound = params; resolved = true }
  in
  let guards = List.map (guard sc) t.assertions in
  let mapped = Array.of_list (List.map (fun m -> node sc m.rhs) t.mappings) in
  { slots = sc.args;
    guards;
    targets = Array.of_list (List.map (fun m -> m.target) t.mappings);
    mapped;
    complete =
      sc.resolved
      && Array.for_all (fun s -> s.cls = None || s.table <> None) sc.args }

let complete p = p.complete
let targets p = p.targets

let layout p desc =
  let positions = Array.make (Tuple.arity desc) (-1) in
  let extra = ref [] in
  Array.iteri
    (fun j target ->
      match Tuple.attr_index desc target with
      | None -> extra := target :: !extra
      | Some i -> if positions.(i) < 0 then positions.(i) <- j)
    p.targets;
  let missing =
    List.filter_map
      (fun i ->
        if positions.(i) < 0 then Some (Tuple.attr_name desc i) else None)
      (List.init (Array.length positions) Fun.id)
  in
  (positions, missing, List.rev !extra)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

exception Failed of Gaea_error.t

let fail e = raise_notrace (Failed e)
let failed m = fail (invalid m)

let bind p inputs =
  let bound = Array.make (Array.length p.slots) None in
  for i = 0 to Array.length bound - 1 do
    bound.(i) <- List.assoc_opt p.slots.(i).arg inputs
  done;
  bound

let objects slots inputs slot =
  match inputs.(slot) with
  | Some oids -> oids
  | None -> fail (unbound_arg slots.(slot).arg)

(* the [i]-th object of the argument in [s], at column [r.pos] *)
let read_one s r i oid =
  match s.cls with
  | None -> failed (Printf.sprintf "bad argument reference %s[%d]" s.arg i)
  | Some cls ->
    let tuple =
      match s.table with
      | Some tab when r.pos >= 0 -> Table.get tab oid
      | _ -> None
    in
    (match tuple with
     | Some tu -> Tuple.get tu r.pos
     | None ->
       failed
         (Printf.sprintf "object %d of class %s has no attribute %s" oid cls
            r.attr))

let read_all slots inputs r =
  List.mapi (read_one slots.(r.slot) r) (objects slots inputs r.slot)

let is_set = function Value.VSet _ -> true | _ -> false

let apply op values =
  match op with
  | Error e -> fail e
  | Ok op ->
    (match Operator.apply op values with
     | Ok v -> v
     | Error m -> fail (Gaea_error.Eval_error m))

let rec eval slots inputs = function
  | K v -> v
  | Fail e -> fail e
  | Read r ->
    (* a scalar argument gives the value, a SETOF one the set *)
    (match inputs.(r.slot) with
     | Some [ oid ] -> read_one slots.(r.slot) r 0 oid
     | _ -> Value.set (read_all slots inputs r))
  | Pick n ->
    (match eval slots inputs n with
     | Value.VSet (x :: _) -> x
     | Value.VSet [] -> failed "ANYOF: empty set"
     | other -> other)
  | Call { op; splice; args } ->
    let values = eval_list slots inputs args in
    (* composite(bands) where bands is SETOF image becomes
       composite(b1, b2, b3) *)
    let values =
      if splice && List.exists is_set values then
        List.concat_map
          (function Value.VSet items -> items | v -> [ v ])
          values
      else values
    in
    apply op values

and eval_list slots inputs = function
  | [] -> []
  | n :: rest ->
    let v = eval slots inputs n in
    v :: eval_list slots inputs rest

let guard slots inputs = function
  | Holds n ->
    (match eval slots inputs n with
     | Value.VBool true -> ()
     | Value.VBool false -> failed "assertion evaluated to false"
     | other ->
       failed
         (Printf.sprintf "assertion evaluated to non-boolean %s"
            (Value.to_display other)))
  | Card { c_slot; n; exactly } ->
    let c = List.length (objects slots inputs c_slot) in
    let arg = slots.(c_slot).arg in
    if exactly && c <> n then
      failed (Printf.sprintf "card(%s) = %d, requires exactly %d" arg c n)
    else if (not exactly) && c < n then
      failed (Printf.sprintf "card(%s) = %d, requires at least %d" arg c n)
  | Shared { values; rule; violated } ->
    (match apply rule [ Value.set (read_all slots inputs values) ] with
     | Value.VBool true -> ()
     | _ -> fail violated)
  | Refuted e -> fail e

let check p inputs =
  match List.iter (guard p.slots inputs) p.guards with
  | () -> Ok ()
  | exception Failed e -> Error e

let rec run_from p inputs values i =
  if i = Array.length values then Ok values
  else
    match eval p.slots inputs p.mapped.(i) with
    | v ->
      values.(i) <- v;
      run_from p inputs values (i + 1)
    | exception Failed e ->
      Error (Gaea_error.Context ("mapping " ^ p.targets.(i), e))

let run p inputs =
  run_from p inputs (Array.make (Array.length p.mapped) (Value.VBool false)) 0

let eval_closed registry e =
  let sc = { registry; args = [||]; bound = []; resolved = true } in
  match eval [||] [||] (node sc e) with
  | v -> Ok v
  | exception Failed e -> Error e

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
