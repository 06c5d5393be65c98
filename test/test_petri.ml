(* Tests for the modified-Petri-net derivation diagrams: construction,
   the Gaea firing rules, reachability, backward chaining, analysis. *)

open Gaea_petri

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let fresh_counter start =
  let n = ref start in
  fun () ->
    incr n;
    !n

(* A linear chain: base --t01--> mid --t12--> goal *)
let chain_net () =
  let net = Net.create () in
  let base = Net.add_place net ~name:"base" in
  let mid = Net.add_place net ~name:"mid" in
  let goal = Net.add_place net ~name:"goal" in
  let t01 =
    Result.get_ok
      (Net.add_transition net ~name:"t01" ~inputs:[ (base, 1) ]
         ~outputs:[ mid ] ())
  in
  let t12 =
    Result.get_ok
      (Net.add_transition net ~name:"t12" ~inputs:[ (mid, 1) ]
         ~outputs:[ goal ] ())
  in
  (net, base, mid, goal, t01, t12)

(* ------------------------------------------------------------------ *)
(* Net construction                                                    *)
(* ------------------------------------------------------------------ *)

let test_net_build () =
  let net, base, mid, goal, t01, _ = chain_net () in
  check_int "places" 3 (Net.n_places net);
  check_int "transitions" 2 (Net.n_transitions net);
  Alcotest.(check string) "name" "base" (Net.place_name net base);
  Alcotest.(check string) "tname" "t01" (Net.transition_name net t01);
  check_int "producers of mid" 1 (List.length (Net.producers_of net mid));
  check_int "producers of base" 0 (List.length (Net.producers_of net base));
  ignore goal

let test_net_validation () =
  let net = Net.create () in
  let p = Net.add_place net ~name:"p" in
  check_bool "no inputs" true
    (Result.is_error (Net.add_transition net ~name:"t" ~inputs:[] ~outputs:[ p ] ()));
  check_bool "no outputs" true
    (Result.is_error
       (Net.add_transition net ~name:"t" ~inputs:[ (p, 1) ] ~outputs:[] ()));
  check_bool "zero threshold" true
    (Result.is_error
       (Net.add_transition net ~name:"t" ~inputs:[ (p, 0) ] ~outputs:[ p ] ()));
  check_bool "unknown place" true
    (Result.is_error
       (Net.add_transition net ~name:"t" ~inputs:[ (99, 1) ] ~outputs:[ p ] ()))

(* ------------------------------------------------------------------ *)
(* Marking                                                             *)
(* ------------------------------------------------------------------ *)

let test_marking () =
  let m = Marking.empty in
  check_int "empty" 0 (Marking.total_tokens m);
  let m = Marking.add m 0 5 in
  let m = Marking.add m 0 5 in
  (* idempotent *)
  check_int "idempotent add" 1 (Marking.count m 0);
  let m = Marking.add_all m 0 [ 6; 7 ] in
  check_int "three tokens" 3 (Marking.count m 0);
  Alcotest.(check (list int)) "sorted" [ 5; 6; 7 ] (Marking.tokens m 0);
  let m = Marking.remove m 0 6 in
  check_bool "removed" false (Marking.mem m 0 6);
  check_bool "kept" true (Marking.mem m 0 5);
  let m2 = Marking.of_list [ (0, [ 9 ]); (1, [ 1 ]) ] in
  let u = Marking.union m m2 in
  check_int "union place 0" 3 (Marking.count u 0);
  check_int "union place 1" 1 (Marking.count u 1);
  Alcotest.(check (list int)) "places" [ 0; 1 ] (Marking.places u)

(* ------------------------------------------------------------------ *)
(* Firing                                                              *)
(* ------------------------------------------------------------------ *)

let test_firing_threshold () =
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  let t =
    Result.get_ok
      (Net.add_transition net ~name:"t" ~inputs:[ (a, 2) ] ~outputs:[ b ] ())
  in
  let m1 = Marking.of_list [ (a, [ 1 ]) ] in
  check_bool "below threshold" false (Firing.enabled net m1 t);
  let m2 = Marking.of_list [ (a, [ 1; 2 ]) ] in
  check_bool "at threshold" true (Firing.enabled net m2 t);
  let m3 = Marking.of_list [ (a, [ 1; 2; 3 ]) ] in
  check_bool "above threshold (more tokens may be used)" true
    (Firing.enabled net m3 t)

let test_firing_non_consuming () =
  let net, base, mid, _, t01, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 10 ]) ] in
  match Firing.fire net m t01 ~fresh:(fresh_counter 100) with
  | Error e -> Alcotest.failf "fire: %s" e
  | Ok (m', produced) ->
    (* the input token is STILL at its place: Gaea modification 1 *)
    check_bool "input kept" true (Marking.mem m' base 10);
    check_int "one produced" 1 (List.length produced);
    (match produced with
     | [ (p, tok) ] ->
       check_int "at mid" mid p;
       check_int "fresh token" 101 tok;
       check_bool "marked" true (Marking.mem m' mid tok)
     | _ -> Alcotest.fail "unexpected production")

let test_firing_guard () =
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  (* guard: accepts only even tokens *)
  let guard binding =
    List.for_all
      (fun (_, toks) -> List.for_all (fun tok -> tok mod 2 = 0) toks)
      binding
  in
  let t =
    Result.get_ok
      (Net.add_transition net ~name:"t" ~inputs:[ (a, 1) ] ~outputs:[ b ]
         ~guard ())
  in
  let odd = Marking.of_list [ (a, [ 3 ]) ] in
  check_bool "guard rejects" false (Firing.enabled net odd t);
  (match Firing.fire net odd t ~fresh:(fresh_counter 0) with
   | Error e -> check_bool "guard error mentioned" true
                  (String.length e > 0)
   | Ok _ -> Alcotest.fail "guard should reject");
  let even = Marking.of_list [ (a, [ 4 ]) ] in
  check_bool "guard accepts" true (Firing.enabled net even t);
  (* explicit binding with a subset of tokens *)
  let mixed = Marking.of_list [ (a, [ 3; 4 ]) ] in
  check_bool "fire_with even subset" true
    (Result.is_ok
       (Firing.fire_with net mixed t [ (a, [ 4 ]) ] ~fresh:(fresh_counter 0)))

let test_firing_binding_validation () =
  let net, base, _, _, t01, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  (* binding referencing a token not in the marking *)
  check_bool "phantom token rejected" true
    (Result.is_error
       (Firing.fire_with net m t01 [ (base, [ 99 ]) ] ~fresh:(fresh_counter 0)));
  (* binding missing the input place *)
  check_bool "missing place rejected" true
    (Result.is_error (Firing.fire_with net m t01 [] ~fresh:(fresh_counter 0)))

let test_enabled_transitions () =
  let net, base, _, _, t01, t12 = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  Alcotest.(check (list int)) "only t01" [ t01 ]
    (Firing.enabled_transitions net m);
  ignore t12

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

let test_reachability_chain () =
  let net, base, mid, goal, _, _ = chain_net () in
  let empty = Reachability.analyze net (Marking.view Marking.empty) in
  check_bool "nothing derivable" false (empty.Reachability.derivable goal);
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  let info = Reachability.analyze net (Marking.view m) in
  check_bool "base" true (info.Reachability.derivable base);
  check_bool "mid" true (info.Reachability.derivable mid);
  check_bool "goal" true (info.Reachability.derivable goal)

let test_reachability_threshold_blocks () =
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  let t =
    Result.get_ok
      (Net.add_transition net ~name:"t" ~inputs:[ (a, 3) ] ~outputs:[ b ] ())
  in
  let m = Marking.of_list [ (a, [ 1; 2 ]) ] in
  let info = Reachability.analyze net (Marking.view m) in
  check_bool "b not derivable" false (info.Reachability.derivable b);
  check_bool "t not fireable" false (info.Reachability.fireable t)

let test_reachability_fan_in_counts () =
  (* derivation can combine counts: interpolation-style transition with
     threshold 2 fed by a producer *)
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  let c = Net.add_place net ~name:"c" in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"a2b" ~inputs:[ (a, 1) ] ~outputs:[ b ] ())
  in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"bb2c" ~inputs:[ (b, 2) ] ~outputs:[ c ] ())
  in
  (* one stored b + one derivable b (from a) = 2 -> c derivable *)
  let m = Marking.of_list [ (a, [ 1; 2 ]); (b, [ 3 ]) ] in
  let info = Reachability.analyze net (Marking.view m) in
  check_bool "c reachable through combined counts" true
    (info.Reachability.derivable c)

let test_reachability_closure () =
  let net, base, mid, goal, _, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  let closed = Reachability.closure net m ~fresh:(fresh_counter 50) in
  check_bool "mid marked" true (Marking.is_marked closed mid);
  check_bool "goal marked" true (Marking.is_marked closed goal);
  check_bool "base kept" true (Marking.mem closed base 1)

(* ------------------------------------------------------------------ *)
(* Backchain                                                           *)
(* ------------------------------------------------------------------ *)

let test_backchain_prefers_retrieval () =
  let net, base, _, goal, _, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]); (goal, [ 9 ]) ] in
  match Backchain.search net (Marking.view m) goal with
  | Some plan ->
    check_int "zero firings" 0 (Backchain.cost plan);
    check_int "zero depth" 0 (Backchain.depth plan);
    Alcotest.(check (list (pair int int))) "initial marking"
      [ (goal, 9) ]
      (Backchain.retrieved_tokens plan)
  | None -> Alcotest.fail "expected plan"

let test_backchain_chain () =
  let net, base, _, goal, _, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  match Backchain.search net (Marking.view m) goal with
  | None -> Alcotest.fail "expected plan"
  | Some plan ->
    check_int "two firings" 2 (Backchain.cost plan);
    check_int "depth two" 2 (Backchain.depth plan);
    Alcotest.(check (list (pair int int))) "starts from base"
      [ (base, 1) ]
      (Backchain.retrieved_tokens plan);
    (* executing the plan marks the goal *)
    (match Backchain.execute net m plan ~fresh:(fresh_counter 100) with
     | Ok (m', tokens, fired) ->
       check_int "one goal token" 1 (List.length tokens);
       check_bool "marked" true (Marking.mem m' goal (List.hd tokens));
       check_int "two firings happened" 2 (List.length fired)
     | Error e -> Alcotest.failf "execute: %s" e)

let test_backchain_underivable () =
  let net, _, _, goal, _, _ = chain_net () in
  check_bool "no plan from empty marking" true
    (Backchain.search net (Marking.view Marking.empty) goal = None)

let test_backchain_multi_need () =
  let net, base, _, goal, _, _ = chain_net () in
  (* distinct derived objects need distinct input combinations: a single
     base token supports only ONE distinct goal object *)
  let poor = Marking.of_list [ (base, [ 1 ]) ] in
  check_bool "need 3 from one base token: no plan" true
    (Backchain.search ~need:3 net (Marking.view poor) goal = None);
  (* three base tokens -> three distinct derivation chains *)
  let rich = Marking.of_list [ (base, [ 1; 2; 3 ]) ] in
  match Backchain.search ~need:3 net (Marking.view rich) goal with
  | None -> Alcotest.fail "expected plan"
  | Some plan ->
    check_int "three sources" 3 (List.length plan.Backchain.sources);
    check_int "cost: 3 mid + 3 goal firings" 6 (Backchain.cost plan);
    (match Backchain.execute net rich plan ~fresh:(fresh_counter 100) with
     | Ok (m', tokens, fired) ->
       check_int "three goal tokens" 3
         (List.length (List.sort_uniq Int.compare tokens));
       check_bool "all marked" true
         (List.for_all (fun tok -> Marking.mem m' goal tok) tokens);
       check_int "six firings" 6 (List.length fired)
     | Error e -> Alcotest.failf "execute: %s" e)

let test_backchain_cycle_safe () =
  (* a <-> b cycle plus stored a: plan for b must terminate *)
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"ab" ~inputs:[ (a, 1) ] ~outputs:[ b ] ())
  in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"ba" ~inputs:[ (b, 1) ] ~outputs:[ a ] ())
  in
  let m = Marking.of_list [ (a, [ 1 ]) ] in
  (match Backchain.search net (Marking.view m) b with
   | Some plan -> check_int "one firing" 1 (Backchain.cost plan)
   | None -> Alcotest.fail "expected plan");
  (* and nothing stored: no plan, no divergence *)
  check_bool "empty no plan" true
    (Backchain.search net (Marking.view Marking.empty) b = None)

(* The paper's P5 shape: a concept derived from itself and a stored
   sibling.  Planning only the deficit (the caller holds the goal's
   stored tokens) yields the full plan's derived steps, and the step
   still retrieves the stored goal token it reads. *)
let test_backchain_deficit_self_derivation () =
  let net = Net.create () in
  let c = Net.add_place net ~name:"c" in
  let sib = Net.add_place net ~name:"sibling" in
  let t =
    Result.get_ok
      (Net.add_transition net ~name:"self" ~inputs:[ (c, 1); (sib, 1) ]
         ~outputs:[ c ] ())
  in
  let m = Marking.of_list [ (c, [ 1; 2 ]); (sib, [ 5; 6; 7 ]) ] in
  let tokens = Marking.view m in
  let sources ?have need =
    match Backchain.search ~need ?have net tokens c with
    | Some plan -> plan.Backchain.sources
    | None -> Alcotest.fail "expected a plan"
  in
  List.iter
    (fun need ->
      let full = sources need and deficit = sources ~have:2 need in
      let derived =
        List.filter (function Backchain.Derived _ -> true | _ -> false) full
      in
      check_bool (Printf.sprintf "NEED %d: the same derived steps" need) true
        (derived = deficit);
      check_int (Printf.sprintf "NEED %d: one per missing token" need)
        (need - 2) (List.length deficit);
      check_bool (Printf.sprintf "NEED %d: the full plan retrieves first" need)
        true
        (List.filteri (fun i _ -> i < 2) full
        = [ Backchain.Existing 1; Backchain.Existing 2 ]))
    [ 3; 4 ];
  (match sources ~have:2 3 with
   | [ Backchain.Derived { transition; step_inputs } ] ->
     check_int "fires self" t transition;
     check_bool "reads a stored c and a sibling" true
       (step_inputs
       = [ (c, [ Backchain.Existing 1 ]); (sib, [ Backchain.Existing 5 ]) ])
   | _ -> Alcotest.fail "expected one derived step");
  check_bool "have outside [0, need) is rejected" true
    (match Backchain.search ~need:2 ~have:2 net tokens c with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_backchain_cheapest_producer () =
  (* goal derivable directly from base (1 firing) or via a long chain;
     search must pick the cheap one *)
  let net = Net.create () in
  let base = Net.add_place net ~name:"base" in
  let mid = Net.add_place net ~name:"mid" in
  let goal = Net.add_place net ~name:"goal" in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"long1" ~inputs:[ (base, 1) ]
         ~outputs:[ mid ] ())
  in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"long2" ~inputs:[ (mid, 1) ]
         ~outputs:[ goal ] ())
  in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"short" ~inputs:[ (base, 1) ]
         ~outputs:[ goal ] ())
  in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  match Backchain.search net (Marking.view m) goal with
  | Some plan -> check_int "picks direct path" 1 (Backchain.cost plan)
  | None -> Alcotest.fail "expected plan"

(* A deficit no single producer covers: p2 can hold 3 tokens, 2 from
   t2 (C(2,2) * C(2,1) combinations) and 1 from t5, and the goal needs
   all 3 through t1 and t7.  A cover that took only the smallest arc's
   combination count from t2 found 2 and no plan. *)
let test_backchain_multi_producer_cover () =
  let net = Net.create () in
  let p =
    Array.init 5 (fun i -> Net.add_place net ~name:(Printf.sprintf "p%d" i))
  in
  let add name inputs output =
    ignore
      (Result.get_ok
         (Net.add_transition net ~name ~inputs ~outputs:[ p.(output) ] ()))
  in
  add "t1" [ (p.(2), 2) ] 3;
  add "t2" [ (p.(0), 1); (p.(1), 2) ] 2;
  add "t5" [ (p.(0), 2) ] 2;
  add "t7" [ (p.(3), 2) ] 4;
  let m = Marking.of_list [ (p.(0), [ 1; 2 ]); (p.(1), [ 3; 4 ]) ] in
  let info = Reachability.analyze net (Marking.view m) in
  check_int "p2 potential" 3 (info.Reachability.potential_count p.(2));
  check_bool "goal derivable" true (info.Reachability.derivable p.(4));
  match Backchain.search net (Marking.view m) p.(4) with
  | None -> Alcotest.fail "expected a plan covering p2 from both producers"
  | Some plan ->
    (match Backchain.execute net m plan ~fresh:(fresh_counter 100) with
     | Ok (m', [ tok ], _) ->
       check_bool "goal marked" true (Marking.mem m' p.(4) tok);
       check_int "three p2 tokens" 3 (Marking.count m' p.(2))
     | Ok _ -> Alcotest.fail "expected one goal token"
     | Error e -> Alcotest.failf "execute: %s" e)

(* Random-net soundness: every plan found executes successfully. *)
let random_net_gen =
  QCheck.Gen.(
    let* n_places = int_range 3 10 in
    let* n_trans = int_range 1 12 in
    let* seed = int_range 0 1_000_000 in
    return (n_places, n_trans, seed))

let build_random (n_places, n_trans, seed) =
  let rng = Gaea_raster.Rng.create seed in
  let net = Net.create () in
  let places =
    Array.init n_places (fun i ->
        Net.add_place net ~name:(Printf.sprintf "p%d" i))
  in
  for t = 0 to n_trans - 1 do
    let n_inputs = 1 + Gaea_raster.Rng.int rng 2 in
    let inputs =
      List.init n_inputs (fun _ ->
          ( places.(Gaea_raster.Rng.int rng n_places),
            1 + Gaea_raster.Rng.int rng 2 ))
    in
    (* dedupe input places, keeping max threshold *)
    let inputs =
      List.fold_left
        (fun acc (p, k) ->
          if List.mem_assoc p acc then
            (p, max k (List.assoc p acc)) :: List.remove_assoc p acc
          else (p, k) :: acc)
        [] inputs
    in
    let output = places.(Gaea_raster.Rng.int rng n_places) in
    ignore
      (Net.add_transition net
         ~name:(Printf.sprintf "t%d" t)
         ~inputs ~outputs:[ output ] ())
  done;
  (* random marking *)
  let marking = ref Marking.empty in
  let tok = ref 0 in
  Array.iter
    (fun p ->
      let n = Gaea_raster.Rng.int rng 3 in
      for _ = 1 to n do
        incr tok;
        marking := Marking.add !marking p !tok
      done)
    places;
  (net, !marking, places)

let backchain_soundness_prop =
  QCheck.Test.make ~name:"every plan executes and marks the goal" ~count:300
    (QCheck.make random_net_gen) (fun params ->
      let net, marking, places = build_random params in
      Array.for_all
        (fun goal ->
          match Backchain.search net (Marking.view marking) goal with
          | None -> true
          | Some plan ->
            (match Backchain.execute net marking plan ~fresh:(fresh_counter 10000) with
             | Ok (m', tokens, _) ->
               tokens <> []
               && List.for_all (fun tok -> Marking.mem m' goal tok) tokens
             | Error _ -> false))
        places)

let backchain_sound_wrt_reachability_prop =
  QCheck.Test.make
    ~name:"plan implies reachability-derivable (upper bound respected)"
    ~count:300 (QCheck.make random_net_gen) (fun params ->
      let net, marking, places = build_random params in
      let info = Reachability.analyze net (Marking.view marking) in
      Array.for_all
        (fun goal ->
          let has_plan =
            Backchain.search net (Marking.view marking) goal <> None
          in
          (not has_plan) || info.Reachability.derivable goal)
        places)

(* Acyclic nets: transitions read lower-numbered places and write a
   strictly higher one, so backchain's cycle guard never engages and
   need=1 planning must agree exactly with reachability. *)
let build_acyclic (n_places, n_trans, seed) =
  let rng = Gaea_raster.Rng.create seed in
  let net = Net.create () in
  let places =
    Array.init n_places (fun i ->
        Net.add_place net ~name:(Printf.sprintf "p%d" i))
  in
  for t = 0 to n_trans - 1 do
    let out_idx = 1 + Gaea_raster.Rng.int rng (n_places - 1) in
    let n_inputs = 1 + Gaea_raster.Rng.int rng 2 in
    let inputs =
      List.init n_inputs (fun _ ->
          (places.(Gaea_raster.Rng.int rng out_idx), 1 + Gaea_raster.Rng.int rng 2))
    in
    let inputs =
      List.fold_left
        (fun acc (p, k) ->
          if List.mem_assoc p acc then
            (p, max k (List.assoc p acc)) :: List.remove_assoc p acc
          else (p, k) :: acc)
        [] inputs
    in
    ignore
      (Net.add_transition net
         ~name:(Printf.sprintf "t%d" t)
         ~inputs ~outputs:[ places.(out_idx) ] ())
  done;
  let marking = ref Marking.empty in
  let tok = ref 0 in
  Array.iter
    (fun p ->
      let n = Gaea_raster.Rng.int rng 3 in
      for _ = 1 to n do
        incr tok;
        marking := Marking.add !marking p !tok
      done)
    places;
  (net, !marking, places)

let backchain_complete_acyclic_prop =
  QCheck.Test.make
    ~name:"on acyclic nets, plan exists iff derivable (need = 1)"
    ~count:300 (QCheck.make random_net_gen) (fun params ->
      let net, marking, places = build_acyclic params in
      let info = Reachability.analyze net (Marking.view marking) in
      Array.for_all
        (fun goal ->
          info.Reachability.derivable goal
          = (Backchain.search net (Marking.view marking) goal <> None))
        places)

(* The search's lazy potentials on an acyclic net with nothing fired are
   the reachability fixpoint's, whether no transition has a frontier or
   every single-arc threshold-1 transition has one holding every token
   of its place. *)
let lazy_potentials_prop =
  QCheck.Test.make
    ~name:"on acyclic nets with nothing fired, lazy potentials = fixpoint"
    ~count:300 (QCheck.make random_net_gen) (fun params ->
      let net, marking, places = build_acyclic params in
      let view = Marking.view marking in
      let all_unfired =
        { view with
          Net.unfired =
            (fun tid ->
              match Net.transition_info net tid with
              | Some { Net.inputs = [ (q, 1) ]; _ } ->
                Some
                  { Net.size = Marking.count marking q;
                    lowest = view.Net.first q }
              | _ -> None) }
      in
      let info = Reachability.analyze net view in
      List.for_all
        (fun tokens ->
          let potential = Backchain.potentials net tokens in
          Array.for_all
            (fun p -> potential p = info.Reachability.potential_count p)
            places)
        [ view; all_unfired ])

(* On random (possibly cyclic) nets, a plan for the deficit is the full
   plan without its leading stored goal tokens, and exists exactly when
   the full plan does. *)
let backchain_deficit_prop =
  QCheck.Test.make
    ~name:"the deficit plan is the full plan minus the stored goal tokens"
    ~count:300 (QCheck.make random_net_gen) (fun params ->
      let net, marking, places = build_random params in
      let tokens = Marking.view marking in
      Array.for_all
        (fun goal ->
          List.for_all
            (fun need ->
              let stored = tokens.Net.first goal need in
              let have = List.length stored in
              have >= need
              ||
              let sources plan = plan.Backchain.sources in
              Option.map sources (Backchain.search ~need net tokens goal)
              = Option.map
                  (fun plan ->
                    List.map (fun tok -> Backchain.Existing tok) stored
                    @ sources plan)
                  (Backchain.search ~need ~have net tokens goal))
            [ 1; 2; 3; 4 ])
        places)

(* ------------------------------------------------------------------ *)
(* Analysis / Dot                                                      *)
(* ------------------------------------------------------------------ *)

let test_analysis () =
  let net, base, _, _, _, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  let r = Analysis.analyze net (Marking.view m) in
  check_int "places" 3 r.Analysis.n_places;
  check_int "transitions" 2 r.Analysis.n_transitions;
  check_bool "acyclic" false r.Analysis.cyclic;
  check_int "depth" 2 r.Analysis.max_depth;
  check_int "fan-in" 1 r.Analysis.max_fan_in;
  Alcotest.(check (list int)) "no dead" [] r.Analysis.dead_transitions;
  Alcotest.(check (list int)) "all derivable" [] r.Analysis.underivable_places;
  (* empty marking: everything dead/underivable *)
  let r0 = Analysis.analyze net (Marking.view Marking.empty) in
  check_int "dead transitions" 2 (List.length r0.Analysis.dead_transitions);
  check_int "underivable" 3 (List.length r0.Analysis.underivable_places)

let test_analysis_cycle () =
  let net = Net.create () in
  let a = Net.add_place net ~name:"a" in
  let b = Net.add_place net ~name:"b" in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"ab" ~inputs:[ (a, 1) ] ~outputs:[ b ] ())
  in
  let _ =
    Result.get_ok
      (Net.add_transition net ~name:"ba" ~inputs:[ (b, 1) ] ~outputs:[ a ] ())
  in
  check_bool "cycle detected" true (Analysis.has_cycle net);
  (* depth terminates despite the cycle *)
  check_bool "depth finite" true (Analysis.derivation_depth net >= 1)

let test_dot () =
  let net, base, _, _, _, _ = chain_net () in
  let m = Marking.of_list [ (base, [ 1 ]) ] in
  let dot = Dot.to_dot ~tokens:(Marking.view m) net in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "digraph" true (contains "digraph");
  check_bool "marked place doubled" true (contains "doublecircle");
  check_bool "transition box" true (contains "shape=box");
  check_bool "edge" true (contains "->")

let () =
  Alcotest.run "petri"
    [ ( "net",
        [ tc "build" test_net_build; tc "validation" test_net_validation ] );
      ("marking", [ tc "operations" test_marking ]);
      ( "firing",
        [ tc "thresholds" test_firing_threshold;
          tc "non-consuming" test_firing_non_consuming;
          tc "guards" test_firing_guard;
          tc "binding validation" test_firing_binding_validation;
          tc "enabled list" test_enabled_transitions ] );
      ( "reachability",
        [ tc "chain" test_reachability_chain;
          tc "threshold blocks" test_reachability_threshold_blocks;
          tc "combined counts" test_reachability_fan_in_counts;
          tc "closure" test_reachability_closure ] );
      ( "backchain",
        [ tc "prefers retrieval" test_backchain_prefers_retrieval;
          tc "chain plan + execute" test_backchain_chain;
          tc "underivable" test_backchain_underivable;
          tc "multi-need" test_backchain_multi_need;
          tc "cycle safe" test_backchain_cycle_safe;
          tc "deficit of a self-derivation" test_backchain_deficit_self_derivation;
          tc "cheapest producer" test_backchain_cheapest_producer;
          tc "multi-producer cover" test_backchain_multi_producer_cover ] );
      qsuite "backchain-props"
        [ backchain_soundness_prop; backchain_sound_wrt_reachability_prop;
          backchain_complete_acyclic_prop; backchain_deficit_prop;
          lazy_potentials_prop ];
      ( "analysis",
        [ tc "report" test_analysis; tc "cycles" test_analysis_cycle ] );
      ("dot", [ tc "export" test_dot ]) ]
