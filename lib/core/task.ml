module Sexp = Gaea_adt.Sexp
module Value = Gaea_adt.Value

type t = {
  task_id : int;
  process : string;
  process_version : int;
  inputs : (string * Gaea_storage.Oid.t list) list;
  params : (string * Value.t) list;
  outputs : Gaea_storage.Oid.t list;
  output_class : string;
  clock : int;
}

let input_oids t =
  match t.inputs with
  | [ (_, (([] | [ _ ]) as oids)) ] -> oids
  | inputs -> List.concat_map snd inputs |> List.sort_uniq Int.compare

let iatom i = Sexp.atom (string_of_int i)

let to_sexp t =
  Sexp.list
    [ Sexp.atom "task";
      iatom t.task_id;
      Sexp.atom t.process;
      iatom t.process_version;
      Sexp.list
        (List.map
           (fun (arg, oids) ->
             Sexp.list (Sexp.atom arg :: List.map iatom oids))
           t.inputs);
      Sexp.list
        (List.map
           (fun (p, v) -> Sexp.list [ Sexp.atom p; Value.to_sexp v ])
           t.params);
      Sexp.list (List.map iatom t.outputs);
      Sexp.atom t.output_class;
      iatom t.clock ]

let ( let* ) r f = Result.bind r f

let parse_int = function
  | Sexp.Atom a ->
    (match int_of_string_opt a with
     | Some i -> Ok i
     | None -> Gaea_error.err ("task: not an int: " ^ a))
  | Sexp.List _ -> Gaea_error.err "task: expected int atom"

let of_sexp = function
  | Sexp.List
      [ Sexp.Atom "task"; id; Sexp.Atom process; version; Sexp.List inputs;
        Sexp.List params; Sexp.List outputs; Sexp.Atom output_class; clock ]
    ->
    let* task_id = parse_int id in
    let* process_version = parse_int version in
    let* inputs =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          match s with
          | Sexp.List (Sexp.Atom arg :: oids) ->
            let* oids =
              List.fold_left
                (fun acc o ->
                  let* acc = acc in
                  let* i = parse_int o in
                  Ok (i :: acc))
                (Ok []) oids
            in
            Ok ((arg, List.rev oids) :: acc)
          | _ -> Gaea_error.err "task: malformed input binding")
        (Ok []) inputs
    in
    let* params =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          match s with
          | Sexp.List [ Sexp.Atom p; v ] ->
            let* value =
              Result.map_error
                (fun e -> Gaea_error.Parse_error e)
                (Value.of_sexp v)
            in
            Ok ((p, value) :: acc)
          | _ -> Gaea_error.err "task: malformed parameter")
        (Ok []) params
    in
    let* outputs =
      List.fold_left
        (fun acc o ->
          let* acc = acc in
          let* i = parse_int o in
          Ok (i :: acc))
        (Ok []) outputs
    in
    let* clock = parse_int clock in
    Ok
      { task_id; process; process_version; inputs = List.rev inputs;
        params = List.rev params; outputs = List.rev outputs; output_class;
        clock }
  | _ -> Gaea_error.err "task: malformed sexp"

let pp fmt t =
  Format.fprintf fmt "@[<h>task #%d: %s v%d (%s) -> %s {%s} @@%d@]" t.task_id
    t.process t.process_version
    (String.concat "; "
       (List.map
          (fun (arg, oids) ->
            Printf.sprintf "%s=[%s]" arg
              (String.concat "," (List.map string_of_int oids)))
          t.inputs))
    t.output_class
    (String.concat "," (List.map string_of_int t.outputs))
    t.clock
