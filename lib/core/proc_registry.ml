type t = {
  procs : (string, Process.t list) Hashtbl.t; (* name -> versions ascending *)
  catalog : Catalog.t;
  bus : Events.bus;
}

let create ~catalog ~bus = { procs = Hashtbl.create 32; catalog; bus }

let versions t name = Option.value ~default:[] (Hashtbl.find_opt t.procs name)

let find t ?version name =
  let vs = versions t name in
  match version with
  | Some v -> List.find_opt (fun p -> p.Process.version = v) vs
  | None ->
    (match List.rev vs with
     | latest :: _ -> Some latest
     | [] -> None)

let define t (p : Process.t) =
  let name = p.Process.proc_name in
  let vs = versions t name in
  if List.exists (fun q -> q.Process.version = p.Process.version) vs then
    Error
      (Gaea_error.Duplicate
         { kind = "process";
           name = Printf.sprintf "%s v%d" name p.Process.version })
  else begin
    let unknown_classes =
      List.filter
        (fun c -> not (Catalog.mem t.catalog c))
        (p.Process.output_class
         :: List.map (fun a -> a.Process.arg_class) p.Process.args)
      |> List.sort_uniq compare
    in
    if unknown_classes <> [] then
      Gaea_error.err
        (Printf.sprintf "process %s: unknown class(es) %s" name
           (String.concat ", " unknown_classes))
    else begin
      let unknown_subs =
        List.filter
          (fun s -> versions t s.Process.step_process = [])
          (Process.steps p)
      in
      if unknown_subs <> [] then
        Gaea_error.err
          (Printf.sprintf "process %s: unknown sub-process(es) %s" name
             (String.concat ", "
                (List.map (fun s -> s.Process.step_process) unknown_subs)))
      else begin
        Hashtbl.replace t.procs name
          (List.sort
             (fun a b -> Int.compare a.Process.version b.Process.version)
             (p :: vs));
        Events.emit t.bus
          (if vs = [] then
             Events.Process_defined { name; version = p.Process.version }
           else Events.Process_versioned { name; version = p.Process.version });
        Ok ()
      end
    end
  end

let latest_version t name =
  match List.rev (versions t name) with
  | p :: _ -> Some p.Process.version
  | [] -> None

let latest t =
  Hashtbl.fold
    (fun name _ acc ->
      match find t name with
      | Some p -> p :: acc
      | None -> acc)
    t.procs []
  |> List.sort (fun a b -> compare a.Process.proc_name b.Process.proc_name)

let all_versions t =
  Hashtbl.fold (fun _ vs acc -> vs @ acc) t.procs []
  |> List.sort (fun a b -> compare (Process.key a) (Process.key b))
