type concept = {
  name : string;
  members : string list;
  doc : string;
}

type t = {
  concepts : (string, concept) Hashtbl.t;
  (* isa edges: sub -> supers, super -> subs *)
  up : (string, string list) Hashtbl.t;
  down : (string, string list) Hashtbl.t;
}

let create () =
  { concepts = Hashtbl.create 32;
    up = Hashtbl.create 32;
    down = Hashtbl.create 32 }

let normalize members = List.sort_uniq compare members

let define t ~name ?(doc = "") ?(members = []) () =
  if name = "" then Gaea_error.err "concept: empty name"
  else if Hashtbl.mem t.concepts name then
    Gaea_error.err (Printf.sprintf "concept %s already defined" name)
  else begin
    let c = { name; members = normalize members; doc } in
    Hashtbl.add t.concepts name c;
    Ok c
  end

let find t name = Hashtbl.find_opt t.concepts name
let mem t name = Hashtbl.mem t.concepts name

let edges tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

let reachable tbl start =
  let visited = Hashtbl.create 16 in
  let rec go name =
    List.iter
      (fun next ->
        if not (Hashtbl.mem visited next) then begin
          Hashtbl.add visited next ();
          go next
        end)
      (edges tbl name)
  in
  go start;
  Hashtbl.fold (fun k () acc -> k :: acc) visited [] |> List.sort compare

let add_isa t ~sub ~super =
  if not (mem t sub) then Gaea_error.err (Printf.sprintf "unknown concept %s" sub)
  else if not (mem t super) then
    Gaea_error.err (Printf.sprintf "unknown concept %s" super)
  else if sub = super then Gaea_error.err "ISA self-loop"
  else if List.mem super (edges t.up sub) then
    Gaea_error.err (Printf.sprintf "%s ISA %s already present" sub super)
  else if List.mem sub (reachable t.up super) then
    Gaea_error.err
      (Printf.sprintf "%s ISA %s would create a cycle in the hierarchy" sub
         super)
  else begin
    Hashtbl.replace t.up sub (super :: edges t.up sub);
    Hashtbl.replace t.down super (sub :: edges t.down super);
    Ok ()
  end

let all t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.concepts []
  |> List.sort (fun a b -> compare a.name b.name)

let parents t name = List.sort compare (edges t.up name)
let ancestors t name = reachable t.up name
let descendants t name = reachable t.down name

let classes_of t name =
  if not (mem t name) then []
  else begin
    let nodes = name :: descendants t name in
    List.concat_map
      (fun n -> match find t n with Some c -> c.members | None -> [])
      nodes
    |> List.sort_uniq compare
  end

let concepts_of_class t cls =
  Hashtbl.fold
    (fun name c acc -> if List.mem cls c.members then name :: acc else acc)
    t.concepts []
  |> List.sort compare
