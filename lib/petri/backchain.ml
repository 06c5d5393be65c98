type source =
  | Existing of Net.token
  | Derived of step

and step = {
  transition : Net.transition;
  step_inputs : (Net.place * source list) list;
}

type plan = {
  goal : Net.place;
  sources : source list;
}

module IntSet = Set.Make (Int)

(* Plans share sub-derivation nodes physically: the deficit firings of
   one transition reference the same input-source list, so cost and
   execute deduplicate by physical identity — a shared sub-derivation is
   fired (and counted) once. *)
let cost plan =
  let seen = ref [] in
  let rec go src =
    match src with
    | Existing _ -> 0
    | Derived s ->
      if List.memq src !seen then 0
      else begin
        seen := src :: !seen;
        1
        + List.fold_left
            (fun acc (_, srcs) ->
              acc + List.fold_left (fun a x -> a + go x) 0 srcs)
            0 s.step_inputs
      end
  in
  List.fold_left (fun acc s -> acc + go s) 0 plan.sources

let rec source_depth = function
  | Existing _ -> 0
  | Derived s ->
    1
    + List.fold_left
        (fun acc (_, srcs) ->
          List.fold_left (fun a src -> Stdlib.max a (source_depth src)) acc srcs)
        0 s.step_inputs

let depth plan =
  List.fold_left (fun acc s -> Stdlib.max acc (source_depth s)) 0 plan.sources

(* Search: for (place, need) return the sources, or None.

   Distinct derived objects require distinct input combinations: firing
   a process twice on the same inputs only duplicates data.  To supply
   n tokens from one producer, the plan gathers enough input tokens that
   n distinct combinations exist (per input arc with threshold k it asks
   for the least k' with enough combinations), recursively.  A deficit
   may also be covered by several producers.  The reachability fixpoint
   (an upper bound on distinct-token supply) prunes impossible goals
   early.  [visiting] prevents derivation cycles along the current
   path; retrieval of stored tokens at a visited place stays allowed
   (the paper's P5 derives a concept from itself using a stored sibling
   object). *)
let search ?(need = 1) net (tokens : Net.tokens) goal =
  if need < 1 then invalid_arg "Backchain.search: need < 1";
  if not (Net.mem_place net goal) then None
  else begin
    let info = Reachability.analyze net tokens in
    let potential p = info.Reachability.potential_count p in
    (* acyclic nets never engage the cycle guard, so both successes and
       failures are path-independent and memoizable; in cyclic nets only
       successes are (a finished plan is grounded in stored tokens and
       valid anywhere) *)
    let acyclic = not (Analysis.has_cycle net) in
    let memo : (int * int, (source list * int) option) Hashtbl.t =
      Hashtbl.create 64
    in
    (* failure subsumption for cyclic nets: a failure recorded under
       visiting set V and demand n also rules out any demand >= n under
       any visiting superset of V *)
    let failures : (int, (int * IntSet.t) list) Hashtbl.t = Hashtbl.create 64 in
    let failed_before visiting place need =
      List.exists
        (fun (n, v) -> need >= n && IntSet.subset v visiting)
        (Option.value ~default:[] (Hashtbl.find_opt failures place))
    in
    let record_failure visiting place need =
      let cur = Option.value ~default:[] (Hashtbl.find_opt failures place) in
      Hashtbl.replace failures place ((need, visiting) :: cur)
    in
    (* least m >= k with C(m, k) >= n, within the place's potential *)
    let enough_for ~threshold ~n ~limit =
      let rec grow m =
        if m > limit then None
        else if Reachability.combinations m threshold >= n then Some m
        else grow (m + 1)
      in
      grow threshold
    in
    (* fuel bounds pathological exploration on dense cyclic nets *)
    let fuel = ref 200_000 in
    let rec place_sources visiting place need =
      match Hashtbl.find_opt memo (place, need) with
      | Some (Some r) -> Some r
      | Some None when acyclic -> None
      | _ ->
        if (not acyclic) && failed_before visiting place need then None
        else (
          match place_sources_uncached visiting place need with
          | Some r ->
            Hashtbl.replace memo (place, need) (Some r);
            Some r
          | None ->
            if acyclic then Hashtbl.replace memo (place, need) None
            else record_failure visiting place need;
            None)

    and place_sources_uncached visiting place need =
      decr fuel;
      if !fuel <= 0 then None
      else begin
        (* at most [need] stored tokens: all of them when fewer *)
        let available = tokens.Net.first place need in
        let n_avail = List.length available in
        if n_avail >= need then
          Some (List.map (fun tok -> Existing tok) available, 0)
        else if IntSet.mem place visiting then None
        else if potential place < need then None
        else begin
          let deficit = need - n_avail in
          let retrieved = List.map (fun tok -> Existing tok) available in
          let visiting' = IntSet.add place visiting in
          let producers = Net.producers_of net place in
          (* try to obtain [n] distinct tokens from one producer *)
          let from_producer tinfo n =
            (* per input arc, gather enough tokens for n distinct
               combinations overall; combination counts multiply across
               arcs, so when one arc cannot supply the whole remaining
               factor (its place's potential is too small) it
               contributes its maximum and later arcs make up the rest *)
            let rec choose_arcs acc combos = function
              | [] -> if combos >= n then Some (List.rev acc) else None
              | (p, k) :: rest ->
                let limit = potential p in
                if limit < k then None
                else begin
                  let target = (n + combos - 1) / Stdlib.max combos 1 in
                  let m =
                    match enough_for ~threshold:k ~n:target ~limit with
                    | Some m -> m
                    | None -> limit (* cap: take everything this arc has *)
                  in
                  choose_arcs ((p, k, m) :: acc)
                    (Stdlib.min Reachability.cap
                       (combos * Reachability.combinations m k))
                    rest
                end
            in
            match choose_arcs [] 1 tinfo.Net.inputs with
            | None -> None
            | Some arcs ->
              let rec gather acc acc_cost = function
                | [] -> Some (List.rev acc, acc_cost)
                | (p, _k, m) :: rest ->
                  (match place_sources visiting' p m with
                   | None -> None
                   | Some (srcs, c) -> gather ((p, srcs) :: acc) (acc_cost + c) rest)
              in
              (match gather [] 0 arcs with
               | None -> None
               | Some (step_inputs, input_cost) ->
                 let derived =
                   List.init n (fun _ ->
                       Derived { transition = tinfo.Net.t_id; step_inputs })
                 in
                 Some (derived, input_cost + n))
          in
          (* cover the deficit: whole-deficit from the cheapest producer,
             else distribute across producers greedily *)
          let candidates =
            List.filter_map
              (fun tinfo ->
                Option.map (fun r -> (tinfo, r)) (from_producer tinfo deficit))
              producers
          in
          match
            List.sort
              (fun (_, (_, c1)) (_, (_, c2)) -> Int.compare c1 c2)
              candidates
          with
          | (_, (derived, c)) :: _ -> Some (retrieved @ derived, c)
          | [] ->
            (* multi-producer cover: take each producer's maximum, the
               product of its arcs' combination counts, as reachability
               counts it *)
            let rec cover remaining acc_sources acc_cost = function
              | [] -> None
              | tinfo :: rest ->
                let max_here =
                  List.fold_left
                    (fun acc (p, k) ->
                      Stdlib.min Reachability.cap
                        (acc * Reachability.combinations (potential p) k))
                    1 tinfo.Net.inputs
                  |> Stdlib.min remaining
                in
                let rec try_take take =
                  if take <= 0 then None
                  else
                    match from_producer tinfo take with
                    | Some r -> Some (take, r)
                    | None -> try_take (take - 1)
                in
                (match try_take max_here with
                 | None -> cover remaining acc_sources acc_cost rest
                 | Some (take, (derived, c)) ->
                   let acc_sources = acc_sources @ derived in
                   let acc_cost = acc_cost + c in
                   if take >= remaining then Some (acc_sources, acc_cost)
                   else cover (remaining - take) acc_sources acc_cost rest)
            in
            (match cover deficit [] 0 producers with
             | None -> None
             | Some (derived, c) -> Some (retrieved @ derived, c))
        end
      end
    in
    match place_sources IntSet.empty goal need with
    | None -> None
    | Some (sources, _) -> Some { goal; sources }
  end

let retrieved_tokens plan =
  let module PT = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let rec walk_source place acc = function
    | Existing tok -> PT.add (place, tok) acc
    | Derived s ->
      List.fold_left
        (fun acc (p, srcs) ->
          List.fold_left (fun acc src -> walk_source p acc src) acc srcs)
        acc s.step_inputs
  in
  let set =
    List.fold_left
      (fun acc src -> walk_source plan.goal acc src)
      PT.empty plan.sources
  in
  PT.elements set

let execute net marking plan ~fresh =
  let ( let* ) r f = Result.bind r f in
  (* shared Derived nodes realize (fire) exactly once *)
  let realized = ref [] in
  let rec realize m fired place = function
    | Existing tok ->
      if Marking.mem m place tok then Ok (m, tok, fired)
      else
        Error
          (Printf.sprintf "token %d not present at place %d" tok place)
    | Derived s as src ->
      (match List.assq_opt src !realized with
       | Some tok -> Ok (m, tok, fired)
       | None ->
         (* realize all inputs first *)
         let* m, binding, fired =
           List.fold_left
             (fun acc (p, srcs) ->
               let* m, binding, fired = acc in
               let* m, toks, fired =
                 List.fold_left
                   (fun acc src ->
                     let* m, toks, fired = acc in
                     let* m, tok, fired = realize m fired p src in
                     Ok (m, tok :: toks, fired))
                   (Ok (m, [], fired))
                   srcs
               in
               Ok (m, (p, List.rev toks) :: binding, fired))
             (Ok (m, [], fired))
             s.step_inputs
         in
         let binding = List.rev binding in
         let* m, produced =
           Firing.fire_with net m s.transition binding ~fresh
         in
         (match List.assoc_opt place produced with
          | Some tok ->
            realized := (src, tok) :: !realized;
            Ok (m, tok, s.transition :: fired)
          | None ->
            Error
              (Printf.sprintf "transition %d did not produce at place %d"
                 s.transition place)))
  in
  let* m, tokens_rev, fired_rev =
    List.fold_left
      (fun acc src ->
        let* m, toks, fired = acc in
        let* m, tok, fired = realize m fired plan.goal src in
        Ok (m, tok :: toks, fired))
      (Ok (marking, [], []))
      plan.sources
  in
  Ok (m, List.rev tokens_rev, List.rev fired_rev)

let pp ?(place_name = string_of_int) ?(transition_name = string_of_int) fmt
    plan =
  let rec pp_source indent fmt = function
    | Existing tok -> Format.fprintf fmt "%sretrieve token %d" indent tok
    | Derived s ->
      Format.fprintf fmt "%sfire %s" indent (transition_name s.transition);
      List.iter
        (fun (p, srcs) ->
          Format.fprintf fmt "@ %s  from %s:" indent (place_name p);
          List.iter
            (fun src ->
              Format.fprintf fmt "@ %a" (pp_source (indent ^ "    ")) src)
            srcs)
        s.step_inputs
  in
  Format.fprintf fmt "@[<v>plan for %s (%d token(s), cost %d):"
    (place_name plan.goal) (List.length plan.sources) (cost plan);
  List.iter (fun src -> Format.fprintf fmt "@ %a" (pp_source "  ") src) plan.sources;
  Format.fprintf fmt "@]"
