type report = {
  n_places : int;
  n_transitions : int;
  dead_transitions : Net.transition list;
  underivable_places : Net.place list;
  cyclic : bool;
  max_fan_in : int;
  max_depth : int;
}

let has_cycle net = not (Net.acyclic net)

let derivation_depth net =
  (* longest chain in the acyclic condensation; memoized DFS that treats
     back-edges as depth 0 so cyclic nets still terminate *)
  let memo = Array.make (Net.n_places net) (-1) in
  let visiting = Array.make (Net.n_places net) false in
  let rec place_depth p =
    if memo.(p) >= 0 then memo.(p)
    else if visiting.(p) then 0
    else begin
      visiting.(p) <- true;
      let d =
        List.fold_left
          (fun acc info ->
            let input_depth =
              List.fold_left
                (fun a (q, _) -> Stdlib.max a (place_depth q))
                0 info.Net.inputs
            in
            Stdlib.max acc (1 + input_depth))
          0 (Net.producers_of net p)
      in
      visiting.(p) <- false;
      memo.(p) <- d;
      d
    end
  in
  List.fold_left (fun acc p -> Stdlib.max acc (place_depth p)) 0 (Net.places net)

let analyze net tokens =
  let info = Reachability.analyze net tokens in
  let transitions = Net.transitions net in
  { n_places = Net.n_places net;
    n_transitions = Net.n_transitions net;
    dead_transitions =
      List.filter_map
        (fun t -> if info.Reachability.fireable t.Net.t_id then None else Some t.Net.t_id)
        transitions;
    underivable_places =
      List.filter (fun p -> not (info.Reachability.derivable p)) (Net.places net);
    cyclic = has_cycle net;
    max_fan_in =
      List.fold_left
        (fun acc t -> Stdlib.max acc (List.length t.Net.inputs))
        0 transitions;
    max_depth = derivation_depth net }

let pp_report ?(place_name = string_of_int)
    ?(transition_name = string_of_int) fmt r =
  Format.fprintf fmt
    "@[<v>places: %d@ transitions: %d@ cyclic: %b@ max fan-in: %d@ max \
     depth: %d@ dead transitions: [%s]@ underivable places: [%s]@]"
    r.n_places r.n_transitions r.cyclic r.max_fan_in r.max_depth
    (String.concat ", " (List.map transition_name r.dead_transitions))
    (String.concat ", " (List.map place_name r.underivable_places))
