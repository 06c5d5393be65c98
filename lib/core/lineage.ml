module Value = Gaea_adt.Value

module IntSet = Set.Make (Int)

let ancestors k oid =
  let visited = ref IntSet.empty in
  let rec go oid =
    match Kernel.task_producing k oid with
    | None -> ()
    | Some task ->
      List.iter
        (fun input ->
          if not (IntSet.mem input !visited) then begin
            visited := IntSet.add input !visited;
            go input
          end)
        (Task.input_oids task)
  in
  go oid;
  IntSet.elements (IntSet.remove oid !visited)

let descendants k oid =
  let visited = ref IntSet.empty in
  let rec go oid =
    List.iter
      (fun task ->
        List.iter
          (fun out ->
            if not (IntSet.mem out !visited) then begin
              visited := IntSet.add out !visited;
              go out
            end)
          task.Task.outputs)
      (Kernel.tasks_using k oid)
  in
  go oid;
  IntSet.elements (IntSet.remove oid !visited)

let base_inputs k oid =
  let all = oid :: ancestors k oid in
  List.filter (fun o -> Kernel.task_producing k o = None) all
  |> List.filter (fun o -> o <> oid || Kernel.task_producing k oid = None)
  |> List.sort_uniq Int.compare

(* Canonical signature: structure + processes + parameters, no OIDs.
   Base objects are summarized by class name. *)
let derivation_signature k oid =
  let buf = Buffer.create 128 in
  let rec walk oid =
    match Kernel.task_producing k oid with
    | None ->
      Buffer.add_string buf
        (Printf.sprintf "base<%s>"
           (Option.value ~default:"?" (Kernel.class_of_object k oid)))
    | Some task ->
      Buffer.add_string buf
        (Printf.sprintf "%s.v%d" task.Task.process task.Task.process_version);
      let params =
        List.sort compare
          (List.map
             (fun (p, v) -> Printf.sprintf "%s=%s" p (Value.to_display v))
             task.Task.params)
      in
      if params <> [] then
        Buffer.add_string buf ("{" ^ String.concat "," params ^ "}");
      Buffer.add_char buf '(';
      List.iteri
        (fun i (arg, oids) ->
          if i > 0 then Buffer.add_char buf ';';
          Buffer.add_string buf (arg ^ ":");
          List.iteri
            (fun j input ->
              if j > 0 then Buffer.add_char buf ',';
              walk input)
            oids)
        task.Task.inputs;
      Buffer.add_char buf ')'
  in
  walk oid;
  Buffer.contents buf

let same_derivation k a b =
  String.equal (derivation_signature k a) (derivation_signature k b)

let compare_derivations k a b =
  let sa = derivation_signature k a and sb = derivation_signature k b in
  if String.equal sa sb then
    Printf.sprintf
      "objects %d and %d share the same derivation:\n  %s" a b sa
  else
    Printf.sprintf
      "objects %d and %d were derived differently:\n  object %d: %s\n  \
       object %d: %s"
      a b a sa b sb

let explain k oid =
  let buf = Buffer.create 256 in
  let rec walk indent oid =
    match Kernel.task_producing k oid with
    | None ->
      Buffer.add_string buf
        (Printf.sprintf "%sobject %d : %s (base data)\n" indent oid
           (Option.value ~default:"?" (Kernel.class_of_object k oid)))
    | Some task ->
      Buffer.add_string buf
        (Printf.sprintf "%sobject %d : %s <- %s v%d%s\n" indent oid
           (Option.value ~default:"?" (Kernel.class_of_object k oid))
           task.Task.process task.Task.process_version
           (match task.Task.params with
            | [] -> ""
            | ps ->
              " ["
              ^ String.concat ", "
                  (List.map
                     (fun (p, v) ->
                       Printf.sprintf "%s=%s" p (Value.to_display v))
                     ps)
              ^ "]"));
      List.iter
        (fun (arg, oids) ->
          Buffer.add_string buf (Printf.sprintf "%s  %s:\n" indent arg);
          List.iter (walk (indent ^ "    ")) oids)
        task.Task.inputs
  in
  walk "" oid;
  Buffer.contents buf

let verify_task k task =
  match Derivation.recompute k task with
  | Error _ as e -> e |> Result.map (fun _ -> false)
  | Ok pairs ->
    (match task.Task.outputs with
     | [ oid ] ->
       let cls = task.Task.output_class in
       let all_equal =
         List.for_all
           (fun (attr, recomputed) ->
             match Kernel.object_attr k ~cls oid attr with
             | Some stored -> Value.equal stored recomputed
             | None -> false)
           pairs
       in
       Ok all_equal
     | [] -> Gaea_error.err "task has no outputs"
     | _ -> Gaea_error.err "multi-output tasks not supported")

let verify_object k oid =
  match Kernel.task_producing k oid with
  | None -> Ok true
  | Some task -> verify_task k task

let is_acyclic k =
  (* DFS over producer edges; a cycle would mean an object among its own
     ancestors *)
  let state = Hashtbl.create 64 in
  (* 0 visiting, 1 done *)
  let rec visit oid =
    match Hashtbl.find_opt state oid with
    | Some 1 -> true
    | Some _ -> false
    | None ->
      Hashtbl.add state oid 0;
      let ok =
        match Kernel.task_producing k oid with
        | None -> true
        | Some task -> List.for_all visit (Task.input_oids task)
      in
      Hashtbl.replace state oid 1;
      ok
  in
  List.for_all
    (fun task -> List.for_all visit task.Task.outputs)
    (Kernel.tasks k)
