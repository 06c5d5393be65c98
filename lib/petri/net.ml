type place = int
type transition = int
type token = int

type guard = (place * token list) list -> bool

type transition_info = {
  t_id : transition;
  t_name : string;
  inputs : (place * int) list;
  outputs : place list;
  guard : guard option;
}

type tokens = {
  count : place -> int;
  first : place -> int -> token list;
}

type t = {
  mutable next_place : int;
  mutable next_transition : int;
  place_names : (place, string) Hashtbl.t;
  trans : (transition, transition_info) Hashtbl.t;
  (* indexes *)
  producers : (place, transition list) Hashtbl.t;
  consumers : (place, transition list) Hashtbl.t;
}

let create () =
  { next_place = 0;
    next_transition = 0;
    place_names = Hashtbl.create 64;
    trans = Hashtbl.create 64;
    producers = Hashtbl.create 64;
    consumers = Hashtbl.create 64 }

let add_place t ~name =
  let id = t.next_place in
  t.next_place <- id + 1;
  Hashtbl.add t.place_names id name;
  id

let mem_place t p = Hashtbl.mem t.place_names p

let add_index tbl key v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: cur)

let add_transition t ~name ~inputs ~outputs ?guard () =
  if inputs = [] then Error (name ^ ": transition needs at least one input")
  else if outputs = [] then
    Error (name ^ ": transition needs at least one output")
  else if List.exists (fun (_, k) -> k < 1) inputs then
    Error (name ^ ": thresholds must be >= 1")
  else if
    List.exists (fun (p, _) -> not (mem_place t p)) inputs
    || List.exists (fun p -> not (mem_place t p)) outputs
  then Error (name ^ ": unknown place")
  else begin
    let id = t.next_transition in
    t.next_transition <- id + 1;
    let info = { t_id = id; t_name = name; inputs; outputs; guard } in
    Hashtbl.add t.trans id info;
    List.iter (fun (p, _) -> add_index t.consumers p id) inputs;
    List.iter (fun p -> add_index t.producers p id) outputs;
    Ok id
  end

let place_name t p =
  Option.value ~default:"?" (Hashtbl.find_opt t.place_names p)

let transition_info t id = Hashtbl.find_opt t.trans id

let transition_name t id =
  match transition_info t id with
  | Some i -> i.t_name
  | None -> "?"

let places t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.place_names []
  |> List.sort Int.compare

let transitions t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.trans []
  |> List.sort (fun a b -> Int.compare a.t_id b.t_id)

let lookup_index t tbl p =
  Option.value ~default:[] (Hashtbl.find_opt tbl p)
  |> List.filter_map (transition_info t)
  |> List.sort (fun a b -> Int.compare a.t_id b.t_id)

let producers_of t p = lookup_index t t.producers p
let consumers_of t p = lookup_index t t.consumers p

let n_places t = Hashtbl.length t.place_names
let n_transitions t = Hashtbl.length t.trans
