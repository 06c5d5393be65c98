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

(* the distinct input combinations of [info] when its arc from [q] can
   draw [limit info q] tokens, capped *)
let combos limit info =
  List.fold_left
    (fun acc (q, k) ->
      Stdlib.min Reachability.cap (acc * Reachability.combinations (limit info q) k))
    1 info.Net.inputs

(* What the search prunes with: [unfired info], a transition's frontier
   (only one with a single input arc of threshold 1 has one), asked
   once; [potential p], an upper bound on the distinct tokens place [p]
   can hold; and [arc_limit info p], the most an input arc of [info] can
   draw from [p]: its frontier plus the tokens [p] can gain, or [p]'s
   potential.  On an acyclic net a place's potential is computed when
   first asked for, once; a cyclic net keeps the reachability fixpoint
   over every stored token, which also bounds what a place can gain. *)
let bounds net (tokens : Net.tokens) =
  let asked = Array.make (Net.n_transitions net) None in
  let unfired info =
    match info.Net.inputs, asked.(info.Net.t_id) with
    | [ (_, 1) ], Some f -> f
    | [ (_, 1) ], None ->
      let f = tokens.Net.unfired info.Net.t_id in
      asked.(info.Net.t_id) <- Some f;
      f
    | _ -> None
  in
  let with_fresh fresh potential info p =
    match unfired info with
    | Some f -> Stdlib.min Reachability.cap (f.Net.size + fresh p)
    | None -> potential p
  in
  if Net.acyclic net then begin
    let stored = Array.make (Net.n_places net) (-1) in
    let derived = Array.make (Net.n_places net) (-1) in
    let rec fresh p =
      if derived.(p) < 0 then
        derived.(p) <-
          List.fold_left
            (fun acc info -> Stdlib.min Reachability.cap (acc + combos arc_limit info))
            0 (Net.producers_of net p);
      derived.(p)
    and potential p =
      if stored.(p) < 0 then stored.(p) <- tokens.Net.count p;
      Stdlib.min Reachability.cap (stored.(p) + fresh p)
    and arc_limit info p = with_fresh fresh potential info p in
    (unfired, potential, arc_limit)
  end
  else
    let p = (Reachability.analyze net tokens).Reachability.potential_count in
    (unfired, p, with_fresh p p)

let potentials net tokens = let _, potential, _ = bounds net tokens in potential

(* Search: for (place, need) return the sources, or None.

   Distinct derived objects require distinct input combinations: firing
   a process twice on the same inputs only duplicates data.  To supply
   n tokens from one producer, the plan gathers enough input tokens that
   n distinct combinations exist (per input arc with threshold k it asks
   for the least k' with enough combinations), recursively.  An arc of
   a transition with a frontier draws the frontier's lowest tokens,
   then new ones derived at its place; any other arc draws the place's
   stored tokens first.  A deficit may also be covered by several
   producers.  The potentials (upper bounds on distinct-token supply)
   prune impossible goals early.  [visiting] prevents derivation
   cycles along the current path; retrieval of stored tokens at a
   visited place stays allowed (the paper's P5 derives a concept from
   itself using a stored sibling object).

   [have]: the caller already holds the goal's first [have] stored
   tokens, so the top-level call plans only the [need - have] missing
   ones and its sources carry no [Existing] leaf for the goal. *)
let search ?(need = 1) ?have net (tokens : Net.tokens) goal =
  if need < 1 then invalid_arg "Backchain.search: need < 1";
  if Option.fold ~none:false ~some:(fun h -> h < 0 || h >= need) have then
    invalid_arg "Backchain.search: have outside [0, need)";
  if not (Net.mem_place net goal) then None
  else begin
    let unfired, potential, arc_limit = bounds net tokens in
    (* acyclic nets never engage the cycle guard, so both successes and
       failures are path-independent and memoizable; in cyclic nets only
       successes are (a finished plan is grounded in stored tokens and
       valid anywhere) *)
    let acyclic = Net.acyclic net in
    (* keyed by node and demand: a place's sources, stored ones first,
       are node [place]; the new tokens derived at it, [-1 - place] *)
    let memo : (int * int, (source list * int) option) Hashtbl.t =
      Hashtbl.create 16
    in
    (* failure subsumption for cyclic nets: a failure recorded under
       visiting set V and demand n also rules out any demand >= n under
       any visiting superset of V *)
    let failures : (int, (int * IntSet.t) list) Hashtbl.t = Hashtbl.create 16 in
    let failed_before visiting node need =
      List.exists
        (fun (n, v) -> need >= n && IntSet.subset v visiting)
        (Option.value ~default:[] (Hashtbl.find_opt failures node))
    in
    let memoized node visiting need compute =
      match Hashtbl.find_opt memo (node, need) with
      | Some (Some r) -> Some r
      | Some None when acyclic -> None
      | _ ->
        if (not acyclic) && failed_before visiting node need then None
        else (
          match compute () with
          | Some r ->
            Hashtbl.replace memo (node, need) (Some r);
            Some r
          | None ->
            if acyclic then Hashtbl.replace memo (node, need) None
            else
              Hashtbl.replace failures node
                ((need, visiting)
                :: Option.value ~default:[] (Hashtbl.find_opt failures node));
            None)
    in
    (* least m >= k with C(m, k) >= n, within the arc's limit *)
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
      memoized place visiting need (fun () ->
          draw visiting place need (tokens.Net.first place need)
            ~limit:(fun () -> potential place))

    (* [need] tokens at [place]: the [available] ones (or [have] the
       caller holds), then new ones derived there, within [limit ()] *)
    and draw ?have visiting place need available ~limit =
      decr fuel;
      let n_avail = Option.value have ~default:(List.length available) in
      let retrieved = List.map (fun tok -> Existing tok) available in
      if !fuel <= 0 then None
      else if n_avail >= need then Some (retrieved, 0)
      else if IntSet.mem place visiting || limit () < need then None
      else
        let visiting = IntSet.add place visiting and n = need - n_avail in
        Option.map
          (fun (derived, c) -> (retrieved @ derived, c))
          (memoized (-1 - place) visiting n (fun () -> derive visiting place n))

    (* [m] tokens at [p] for an input arc of [info] *)
    and arc_sources visiting info p m =
      match unfired info with
      | None -> place_sources visiting p m
      | Some f ->
        draw visiting p m (f.Net.lowest m) ~limit:(fun () -> arc_limit info p)

    (* [deficit] new tokens at [place], which [visiting] holds *)
    and derive visiting place deficit =
      let producers = Net.producers_of net place in
      (* try to obtain [n] distinct tokens from one producer *)
      let from_producer tinfo n =
        (* per input arc, gather enough tokens for n distinct
           combinations overall; combination counts multiply across
           arcs, so when one arc cannot supply the whole remaining
           factor (its limit is too small) it contributes its maximum
           and later arcs make up the rest *)
        let rec choose_arcs acc combos = function
          | [] -> if combos >= n then Some (List.rev acc) else None
          | (p, k) :: rest ->
            let limit = arc_limit tinfo p in
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
              (match arc_sources visiting tinfo p m with
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
        List.sort (fun (_, (_, c1)) (_, (_, c2)) -> Int.compare c1 c2) candidates
      with
      | (_, r) :: _ -> Some r
      | [] ->
        (* multi-producer cover: take each producer's maximum, the
           product of its arcs' combination counts, as the potentials
           count it *)
        let rec cover remaining acc_sources acc_cost = function
          | [] -> None
          | tinfo :: rest ->
            let rec try_take take =
              if take <= 0 then None
              else
                match from_producer tinfo take with
                | Some r -> Some (take, r)
                | None -> try_take (take - 1)
            in
            (match try_take (Stdlib.min remaining (combos arc_limit tinfo)) with
             | None -> cover remaining acc_sources acc_cost rest
             | Some (take, (derived, c)) ->
               let acc_sources = acc_sources @ derived in
               let acc_cost = acc_cost + c in
               if take >= remaining then Some (acc_sources, acc_cost)
               else cover (remaining - take) acc_sources acc_cost rest)
        in
        cover deficit [] 0 producers
    in
    (* nothing looks the top-level call up again, so it skips the memo,
       where a goal-less [have] plan must never stand for (goal, need) *)
    let available = if have = None then tokens.Net.first goal need else [] in
    match
      draw ?have IntSet.empty goal need available ~limit:(fun () -> potential goal)
    with
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
  let ( let* ) = Result.bind in
  (* thread the marking and the firing order through [f] over [items] *)
  let rec each f (m, fired) acc = function
    | [] -> Ok (m, List.rev acc, fired)
    | x :: rest ->
      let* m, y, fired = f (m, fired) x in
      each f (m, fired) (y :: acc) rest
  in
  (* shared Derived nodes realize (fire) exactly once *)
  let realized = ref [] in
  let rec realize place (m, fired) = function
    | Existing tok ->
      if Marking.mem m place tok then Ok (m, tok, fired)
      else Error (Printf.sprintf "token %d not present at place %d" tok place)
    | Derived s as src ->
      (match List.assq_opt src !realized with
       | Some tok -> Ok (m, tok, fired)
       | None ->
         (* realize all inputs first *)
         let* m, binding, fired =
           each
             (fun st (p, srcs) ->
               let* m, toks, fired = each (realize p) st [] srcs in
               Ok (m, (p, toks), fired))
             (m, fired) [] s.step_inputs
         in
         let* m, produced = Firing.fire_with net m s.transition binding ~fresh in
         (match List.assoc_opt place produced with
          | Some tok ->
            realized := (src, tok) :: !realized;
            Ok (m, tok, s.transition :: fired)
          | None ->
            Error
              (Printf.sprintf "transition %d did not produce at place %d"
                 s.transition place)))
  in
  let* m, tokens, fired = each (realize plan.goal) (marking, []) [] plan.sources in
  Ok (m, tokens, List.rev fired)

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
