type report = {
  n_places : int;
  n_transitions : int;
  dead_transitions : Net.transition list;
  underivable_places : Net.place list;
  cyclic : bool;
  max_fan_in : int;
  max_depth : int;
}

(* Cycle detection over the place graph: edge p -> q when some
   transition has p among inputs and q among outputs. *)
let has_cycle net =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun info ->
      List.iter
        (fun (p, _) ->
          List.iter
            (fun q ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt adj p) in
              Hashtbl.replace adj p (q :: cur))
            info.Net.outputs)
        info.Net.inputs)
    (Net.transitions net);
  let state = Hashtbl.create 64 in
  (* 0 visiting, 1 done *)
  let rec visit p =
    match Hashtbl.find_opt state p with
    | Some 1 -> false
    | Some _ -> true
    | None ->
      Hashtbl.add state p 0;
      let cyc =
        List.exists visit (Option.value ~default:[] (Hashtbl.find_opt adj p))
      in
      Hashtbl.replace state p 1;
      cyc
  in
  List.exists visit (Net.places net)

let derivation_depth net =
  (* longest chain in the acyclic condensation; memoized DFS that treats
     back-edges as depth 0 so cyclic nets still terminate *)
  let memo = Hashtbl.create 64 in
  let visiting = Hashtbl.create 64 in
  let rec place_depth p =
    match Hashtbl.find_opt memo p with
    | Some d -> d
    | None ->
      if Hashtbl.mem visiting p then 0
      else begin
        Hashtbl.add visiting p ();
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
        Hashtbl.remove visiting p;
        Hashtbl.replace memo p d;
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
