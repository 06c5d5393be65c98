type info = {
  derivable : Net.place -> bool;
  potential_count : Net.place -> int;
  fireable : Net.transition -> bool;
  iterations : int;
}

let cap = 1_000_000

(* n choose k with saturation *)
let combinations n k =
  if k < 0 || k > n then 0
  else begin
    let k = Stdlib.min k (n - k) in
    let acc = ref 1 in
    (try
       for i = 0 to k - 1 do
         acc := !acc * (n - i) / (i + 1);
         if !acc >= cap then begin
           acc := cap;
           raise Exit
         end
       done
     with Exit -> ());
    Stdlib.min cap !acc
  end

let analyze net (tokens : Net.tokens) =
  (* the fixpoint visits each place many times; read its count once *)
  let stored = Array.of_list (List.map tokens.count (Net.places net)) in
  let counts = Array.copy stored in
  let get p = if Net.mem_place net p then counts.(p) else 0 in
  (* contribution of a transition: number of distinct input combinations *)
  let combos info =
    List.fold_left
      (fun acc (p, k) -> Stdlib.min cap (acc * combinations (get p) k))
      1 info.Net.inputs
  in
  let changed = ref true in
  let iterations = ref 0 in
  (* Widening: counts in cyclic nets can otherwise crawl to the cap one
     token per round (self-feeding places).  After [widen_after] rounds
     any still-growing count jumps straight to the cap — a sound upper
     bound, and the fixpoint then settles in O(places) more rounds. *)
  let widen_after = 64 in
  while !changed do
    incr iterations;
    changed := false;
    List.iter
      (fun p ->
        let produced =
          List.fold_left
            (fun acc info -> Stdlib.min cap (acc + combos info))
            0 (Net.producers_of net p)
        in
        let candidate = Stdlib.min cap (stored.(p) + produced) in
        let candidate =
          if candidate > get p && !iterations > widen_after then cap
          else candidate
        in
        if candidate > get p then begin
          counts.(p) <- candidate;
          changed := true
        end)
      (Net.places net)
  done;
  let fireable info = List.for_all (fun (p, k) -> get p >= k) info.Net.inputs in
  { derivable = (fun p -> get p > 0);
    potential_count = get;
    fireable =
      (fun tid -> Option.fold ~none:false ~some:fireable (Net.transition_info net tid));
    iterations = !iterations }

let closure net marking ~fresh =
  let current = ref marking in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun info ->
        let tid = info.Net.t_id in
        let has_unmarked_output =
          List.exists (fun p -> not (Marking.is_marked !current p)) info.Net.outputs
        in
        if has_unmarked_output && Firing.enabled net !current tid then
          match Firing.fire net !current tid ~fresh with
          | Ok (m, _) ->
            current := m;
            progress := true
          | Error _ -> ())
      (Net.transitions net)
  done;
  !current
