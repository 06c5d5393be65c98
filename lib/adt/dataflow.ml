type source =
  | From_input of int
  | From_const of Value.t
  | From_node of int

type node = {
  id : int;
  op : string;
  args : source list;
}

type t = {
  name : string;
  doc : string;
  input_types : Vtype.t list;
  returns : Vtype.t;
  nodes : node list;
  output : source;
}

let node id op args = { id; op; args }

let validate ~name ~input_types ~nodes ~output =
  let n_inputs = List.length input_types in
  let ids = List.map (fun n -> n.id) nodes in
  let id_set = Hashtbl.create 16 in
  let dup =
    List.exists
      (fun id ->
        if id < 0 then true
        else if Hashtbl.mem id_set id then true
        else begin
          Hashtbl.add id_set id ();
          false
        end)
      ids
  in
  if dup then Error (name ^ ": duplicate or negative node id")
  else begin
    let check_source where = function
      | From_input i ->
        if i < 0 || i >= n_inputs then
          Error (Printf.sprintf "%s: %s references input %d of %d" name where i n_inputs)
        else Ok ()
      | From_node id ->
        if not (Hashtbl.mem id_set id) then
          Error (Printf.sprintf "%s: %s references unknown node %d" name where id)
        else Ok ()
      | From_const _ -> Ok ()
    in
    let rec check_all = function
      | [] -> check_source "output" output
      | n :: rest ->
        let rec check_args = function
          | [] -> Ok ()
          | s :: tl ->
            (match check_source (Printf.sprintf "node %d (%s)" n.id n.op) s with
             | Error _ as e -> e
             | Ok () -> check_args tl)
        in
        (match check_args n.args with
         | Error _ as e -> e
         | Ok () -> check_all rest)
    in
    match check_all nodes with
    | Error _ as e -> e
    | Ok () ->
      (* cycle check via DFS over node dependencies *)
      let by_id = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.add by_id n.id n) nodes;
      let state = Hashtbl.create 16 in
      (* 0 = visiting, 1 = done *)
      let rec visit id =
        match Hashtbl.find_opt state id with
        | Some 1 -> Ok ()
        | Some _ -> Error (Printf.sprintf "%s: cycle through node %d" name id)
        | None ->
          Hashtbl.add state id 0;
          let n = Hashtbl.find by_id id in
          let rec deps = function
            | [] ->
              Hashtbl.replace state id 1;
              Ok ()
            | From_node d :: tl ->
              (match visit d with Error _ as e -> e | Ok () -> deps tl)
            | (From_input _ | From_const _) :: tl -> deps tl
          in
          deps n.args
      in
      let rec visit_all = function
        | [] -> Ok ()
        | n :: rest ->
          (match visit n.id with Error _ as e -> e | Ok () -> visit_all rest)
      in
      visit_all nodes
  end

let make ~name ?(doc = "") ~input_types ~returns ~nodes output =
  match validate ~name ~input_types ~nodes ~output with
  | Error _ as e -> e
  | Ok () -> Ok { name; doc; input_types; returns; nodes; output }

let topo_order t =
  let by_id = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.add by_id n.id n) t.nodes;
  let done_ = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem done_ id) then begin
      Hashtbl.add done_ id ();
      let n = Hashtbl.find by_id id in
      List.iter
        (function
          | From_node d -> visit d
          | From_input _ | From_const _ -> ())
        n.args;
      order := n :: !order
    end
  in
  (* visit in declaration order for determinism *)
  List.iter (fun n -> visit n.id) t.nodes;
  List.rev !order

(* Operator.apply has checked the inputs against [t.input_types]. *)
let execute ~lookup t inputs =
  let inputs = Array.of_list inputs in
  let results : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let resolve = function
    | From_input i -> Ok inputs.(i)
    | From_const v -> Ok v
    | From_node id ->
      (match Hashtbl.find_opt results id with
       | Some v -> Ok v
       | None -> Error (Printf.sprintf "%s: node %d not computed" t.name id))
  in
  let rec run = function
    | [] -> resolve t.output
    | n :: rest ->
      (match lookup n.op with
       | None ->
         Error (Printf.sprintf "%s: unknown operator %s" t.name n.op)
       | Some op ->
         let rec gather acc = function
           | [] -> Ok (List.rev acc)
           | s :: tl ->
             (match resolve s with
              | Error _ as e -> e
              | Ok v -> gather (v :: acc) tl)
         in
         (match gather [] n.args with
          | Error _ as e -> e
          | Ok args ->
            (match Operator.apply op args with
             | Error e ->
               Error (Printf.sprintf "%s: node %d: %s" t.name n.id e)
             | Ok v ->
               Hashtbl.replace results n.id v;
               run rest)))
  in
  run (topo_order t)

let to_operator ~lookup t =
  Operator.make ~name:t.name ~doc:(t.doc ^ " [compound]")
    ~params:t.input_types ~returns:t.returns
    (fun args -> execute ~lookup t args)

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "compound operator %s : (%s) -> %s\n" t.name
       (String.concat ", " (List.map Vtype.to_string t.input_types))
       (Vtype.to_string t.returns));
  let src_str = function
    | From_input i -> Printf.sprintf "in%d" i
    | From_const v -> Value.to_display v
    | From_node id -> Printf.sprintf "n%d" id
  in
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d := %s(%s)\n" n.id n.op
           (String.concat ", " (List.map src_str n.args))))
    (topo_order t);
  Buffer.add_string buf (Printf.sprintf "  output := %s" (src_str t.output));
  Buffer.contents buf
