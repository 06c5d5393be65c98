module Pool = Gaea_par.Pool

type ('v, 'e) node = {
  deps : int list;
  eval : unit -> (unit -> 'v) option;
  commit : (unit -> 'v) -> (unit, 'e) result;
}

type 'e status = Committed | Failed of 'e | Poisoned

(* a look-ahead evaluation, held until its node's commit turn *)
type 'v outcome = Value of 'v | Raised of exn

let run nodes =
  let n = Array.length nodes in
  let status = Array.make n Poisoned in
  let ahead = Array.make n None in
  (* uncommitted dependencies per node, and the nodes reading each *)
  let missing = Array.map (fun node -> List.length node.deps) nodes in
  let readers = Array.make n [] in
  Array.iteri
    (fun i node ->
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg "Scheduler.run: a dependency must be an earlier node";
          readers.(d) <- i :: readers.(d))
        node.deps)
    nodes;
  (* nodes whose dependencies have all committed; pruned lazily *)
  let ready =
    ref (List.filter (fun i -> missing.(i) = 0) (List.init n Fun.id))
  in
  let look_ahead i =
    ready := List.filter (fun j -> j >= i) !ready;
    let batch =
      List.filter_map
        (fun j ->
          if Option.is_some ahead.(j) then None
          else Option.map (fun f -> (j, f)) (nodes.(j).eval ()))
        (List.sort Int.compare !ready)
    in
    let width = List.length batch in
    (* a batch narrower than the lane count leaves lanes idle while
       still paying dispatch and join *)
    if width >= 2 && width >= Pool.size () then
      let results =
        Pool.parallel_batch
          (Array.of_list
             (List.map
                (fun (_, f) () -> try Value (f ()) with e -> Raised e)
                batch))
      in
      List.iteri (fun slot (j, _) -> ahead.(j) <- Some results.(slot)) batch
  in
  let evaluated i () =
    match ahead.(i) with
    | Some (Value v) -> v
    | Some (Raised e) -> raise e
    | None ->
      (match nodes.(i).eval () with
       | Some f -> f ()
       | None -> invalid_arg "Scheduler.run: no evaluation offered")
  in
  (* a node evaluation is image-sized work, far above any calibrated
     cutoff: the only cutoff that matters is the [max_int] a one-domain
     host reports, where lanes can only time-slice one core.  Without a
     usable pool or two nodes no batch can run, so skip the look-ahead
     scan entirely *)
  let pool_usable =
    n >= 2 && Pool.size () > 1 && Pool.min_parallel_work () < max_int
  in
  for i = 0 to n - 1 do
    if
      List.exists
        (fun d -> match status.(d) with Committed -> false | _ -> true)
        nodes.(i).deps
    then
      status.(i) <- Poisoned
    else begin
      if pool_usable && Option.is_none ahead.(i) then look_ahead i;
      let result = nodes.(i).commit (evaluated i) in
      ahead.(i) <- None;
      match result with
      | Error e -> status.(i) <- Failed e
      | Ok () ->
        status.(i) <- Committed;
        List.iter
          (fun r ->
            missing.(r) <- missing.(r) - 1;
            if missing.(r) = 0 then ready := r :: !ready)
          readers.(i)
    end
  done;
  status
