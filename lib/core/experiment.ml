type t = {
  e_name : string;
  e_doc : string;
  concepts : string list;
  task_ids : int list;
  notes : string list;
}

(* Stored with [task_ids] newest first, so recording a task is a cons;
   [find] and [all] hand out the chronological view. *)
type manager = (string, t) Hashtbl.t

let view e = { e with task_ids = List.rev e.task_ids }

let create_manager () = Hashtbl.create 16

let begin_experiment m ~name ?(doc = "") ?(concepts = []) () =
  if name = "" then Gaea_error.err "experiment: empty name"
  else if Hashtbl.mem m name then
    Gaea_error.err (Printf.sprintf "experiment %s already exists" name)
  else begin
    Hashtbl.add m name
      { e_name = name; e_doc = doc; concepts; task_ids = []; notes = [] };
    Ok ()
  end

let update m name f =
  match Hashtbl.find_opt m name with
  | None -> Gaea_error.err (Printf.sprintf "unknown experiment %s" name)
  | Some e ->
    Hashtbl.replace m name (f e);
    Ok ()

let record_task m ~experiment id =
  update m experiment (fun e -> { e with task_ids = id :: e.task_ids })

let add_note m ~experiment note =
  update m experiment (fun e -> { e with notes = note :: e.notes })

let find m name = Option.map view (Hashtbl.find_opt m name)

let all m =
  Hashtbl.fold (fun _ e acc -> view e :: acc) m []
  |> List.sort (fun a b -> compare a.e_name b.e_name)

type reproduction = {
  total : int;
  reproduced : int;
  failures : (int * string) list;
}

let reproduce m k ~experiment =
  match find m experiment with
  | None -> Gaea_error.err (Printf.sprintf "unknown experiment %s" experiment)
  | Some e ->
    let total = List.length e.task_ids in
    let reproduced, failures =
      List.fold_left
        (fun (ok, fails) id ->
          match Kernel.find_task k id with
          | None -> (ok, (id, "task not found") :: fails)
          | Some task ->
            (match Lineage.verify_task k task with
             | Ok true -> (ok + 1, fails)
             | Ok false -> (ok, (id, "outputs differ") :: fails)
             | Error msg -> (ok, (id, Gaea_error.to_string msg) :: fails)))
        (0, []) e.task_ids
    in
    Ok { total; reproduced; failures = List.rev failures }
