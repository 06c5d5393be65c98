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

type frontier = { size : int; lowest : int -> token list }

type tokens = {
  count : place -> int;
  first : place -> int -> token list;
  unfired : transition -> frontier option;
}

(* what planning reads, built on the first read after an addition *)
type compiled = {
  names : string array;
  infos : transition_info array;
  producers : transition_info list array;  (* by place, ascending t_id *)
  place_list : place list;
  transition_list : transition_info list;
  acyclic : bool;
}

type t = {
  mutable n_places : int;
  mutable rev_places : string list;  (* newest first; ids count up from 0 *)
  mutable rev_transitions : transition_info list;
  place_ids : (string, place) Hashtbl.t;
  mutable compiled : compiled option;
}

let create () =
  { n_places = 0; rev_places = []; rev_transitions = [];
    place_ids = Hashtbl.create 64; compiled = None }

let add_place t ~name =
  let id = t.n_places in
  t.n_places <- id + 1;
  t.rev_places <- name :: t.rev_places;
  Hashtbl.replace t.place_ids name id;
  t.compiled <- None;
  id

let mem_place t p = p >= 0 && p < t.n_places
let n_places t = t.n_places
let n_transitions t =
  match t.rev_transitions with [] -> 0 | newest :: _ -> newest.t_id + 1

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
    let id = n_transitions t in
    t.rev_transitions <-
      { t_id = id; t_name = name; inputs; outputs; guard } :: t.rev_transitions;
    t.compiled <- None;
    Ok id
  end

(* a cycle in the place graph (p -> q when a transition reads p and
   writes q), searched backwards along each place's producers *)
let has_cycle producers =
  let state = Array.make (Array.length producers) `Unseen in
  let rec visit p =
    match state.(p) with
    | `On_path -> true
    | `Done -> false
    | `Unseen ->
      state.(p) <- `On_path;
      let cyc =
        List.exists
          (fun info -> List.exists (fun (q, _) -> visit q) info.inputs)
          producers.(p)
      in
      state.(p) <- `Done;
      cyc
  in
  List.exists visit (List.init (Array.length producers) Fun.id)

let compile t =
  match t.compiled with
  | Some c -> c
  | None ->
    let transition_list = List.rev t.rev_transitions in
    let producers = Array.make t.n_places [] in
    List.iter
      (fun info ->
        List.iter (fun p -> producers.(p) <- info :: producers.(p)) info.outputs)
      t.rev_transitions;
    let c =
      { names = Array.of_list (List.rev t.rev_places);
        infos = Array.of_list transition_list;
        producers;
        place_list = List.init t.n_places Fun.id;
        transition_list;
        acyclic = not (has_cycle producers) }
    in
    t.compiled <- Some c;
    c

let place_name t p = if mem_place t p then (compile t).names.(p) else "?"
let find_place t name = Hashtbl.find_opt t.place_ids name

let transition_info t id =
  let c = compile t in
  if id >= 0 && id < Array.length c.infos then Some c.infos.(id) else None

let transition_name t id =
  match transition_info t id with Some i -> i.t_name | None -> "?"

let places t = (compile t).place_list
let transitions t = (compile t).transition_list
let producers_of t p = if mem_place t p then (compile t).producers.(p) else []
let acyclic t = (compile t).acyclic
