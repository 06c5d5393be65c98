type t =
  | Unknown_class of string
  | Unknown_process of { name : string; version : int option }
  | Unknown_object of int
  | Wrong_class of { oid : int; cls : string }
  | Unknown_concept of string
  | Unknown_task of int
  | Unknown_attribute of { source : string; attr : string }
  | Duplicate of { kind : string; name : string }
  | Arity_mismatch of string
  | Assertion_failed of string
  | Type_error of string
  | Eval_error of string
  | Parse_error of string
  | Storage_error of string
  | Io_error of string
  | Not_derivable of string
  | Invalid of string
  | Context of string * t

let rec to_string = function
  | Unknown_class c -> Printf.sprintf "unknown class %s" c
  | Unknown_process { name; version = None } ->
    Printf.sprintf "unknown process %s" name
  | Unknown_process { name; version = Some v } ->
    Printf.sprintf "unknown process %s v%d" name v
  | Unknown_object oid -> Printf.sprintf "no object %d" oid
  | Wrong_class { oid; cls } ->
    Printf.sprintf "object %d is not of class %s" oid cls
  | Unknown_concept c -> Printf.sprintf "unknown concept %s" c
  | Unknown_task id -> Printf.sprintf "no task #%d" id
  | Unknown_attribute { source; attr } ->
    Printf.sprintf "%s has no attribute %s" source attr
  | Duplicate { kind; name } -> Printf.sprintf "%s %s already defined" kind name
  | Arity_mismatch m
  | Assertion_failed m
  | Type_error m
  | Eval_error m
  | Parse_error m
  | Storage_error m
  | Io_error m
  | Not_derivable m
  | Invalid m -> m
  | Context (where, e) -> Printf.sprintf "%s: %s" where (to_string e)

let err m = Error (Invalid m)

let map_m f items =
  List.fold_left
    (fun acc x -> Result.bind acc (fun acc -> Result.map (fun y -> y :: acc) (f x)))
    (Ok []) items
  |> Result.map List.rev
