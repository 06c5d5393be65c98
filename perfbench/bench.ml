(* End-to-end GaeaQL benchmark driver: one process, one client, closed
   loop.  See perfbench/README.md for the workloads and the metrics.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --workload NAME --seed N --dump-script ROUNDS

   A run prints one JSON object: correct, attempted, failed and every
   metric it measured, each with its unit. *)

open Exec

(* seconds of measured rounds between two timed set-ups *)
let setup_every = 1.5

(* the shapes of [kind] seen in [s] *)
let shapes_of (s : samples) kind =
  let prefix = kind ^ "\t" in
  Hashtbl.fold (fun key _ acc -> if String.starts_with ~prefix key then key :: acc else acc) s []

(* a kind's typical latency: the geometric mean, over its statement
   shapes, of each shape's median.  Unlike the median of all the kind's
   statements, it cannot jump from one shape's latency to another's *)
let typical (s : samples) keys =
  exp (sum (List.map (fun k -> log (median (get s k))) keys) /. float (List.length keys))

(* statements per second (samples in ms) when each takes its shape's
   median latency: a pause that lands in a few statements, a major GC
   slice or a burst of the host, moves it no more than it moves those
   statements' medians *)
let rate (s : samples) =
  let n, ms =
    Hashtbl.fold
      (fun _ r (n, ms) ->
        let k = List.length !r in
        (n + k, ms +. (float k *. median !r)))
      s (0, 0.)
  in
  float n /. (ms /. 1e3)

(* Untraced: set up twice, warm up, run whole rounds of the mix for
   [seconds] (rebuilding the database every [epoch] rounds, outside the
   clock), then save and load a database freshly set up and run for ten
   rounds.  Every [setup_every] seconds of measured rounds one more
   database is set up, timed and dropped, so that the median set-up time
   samples the whole run rather than its first seconds.  Each time is
   kept twice: as wall clock and at the reference host speed (see
   [Exec.speed]). *)
let untraced name ~seed ~seconds ~size =
  let setups = ref [] in
  let timed_setup () =
    let w, env, t = setup name ~seed ~size in
    setups := t :: !setups;
    (w, env)
  in
  ignore (timed_setup ());
  let db = ref (timed_setup ()) in
  let rounds_for secs f ~on_round =
    let clock = ref 0. and n = ref 0 in
    while !clock < secs do
      if !n > 0 && !n mod (fst !db).Gen.epoch = 0 then begin
        let w, env, _ = setup name ~seed ~size in
        db := (w, env)
      end;
      let w, env = !db in
      let t0 = now () in
      List.iter (f env) (w.Gen.next_round ());
      let dt = now () -. t0 in
      clock := !clock +. dt;
      on_round dt;
      incr n
    done;
    !n
  in
  (* caches, the minor heap and lazily built indexes settle first *)
  ignore
    (rounds_for (Float.min 2. (seconds /. 10.))
       (fun env op -> ignore (exec env op))
       ~on_round:ignore);
  Gc.compact ();
  (* latencies in ms at reference speed, by kind and by kind and shape
     ("query\tSHOW STALE;") *)
  let lat : samples = Hashtbl.create 8 and all : samples = Hashtbl.create 32 in
  let busy = ref 0. and ops = ref 0 and since_setup = ref 0. in
  let rounds =
    rounds_for seconds
      (fun env op ->
        match exec env op with
        | Some o ->
          let kind = Gen.kind_name o.kind in
          add lat kind (o.at_ref *. 1e3);
          add lat (kind ^ "_wall") (o.latency *. 1e3);
          add all (kind ^ "\t" ^ o.shape) (o.at_ref *. 1e3);
          busy := !busy +. o.latency;
          incr ops
        | None -> ())
      ~on_round:(fun dt ->
        since_setup := !since_setup +. dt;
        if !since_setup >= setup_every then begin
          ignore (timed_setup ());
          since_setup := 0.
        end)
  in
  let w, env, _ = setup name ~seed ~size in
  db := (w, env);
  for _ = 1 to 10 do
    List.iter (fun op -> ignore (exec env op)) (w.Gen.next_round ())
  done;
  let saves, loads = save_load env in
  let per_kind =
    List.concat_map
      (fun kd ->
        let name = Gen.kind_name kd in
        match get lat name with
        | [] -> []
        | xs ->
          [ (name ^ "_ms", "ms", typical all (shapes_of all name));
            (name ^ "_p50_ms", "ms", median xs);
            (name ^ "_p50_wall_ms", "ms", median (get lat (name ^ "_wall")));
            (name ^ "_samples", "count", float (List.length xs)) ]
          @ if List.length xs >= 100 then [ (name ^ "_p90_ms", "ms", p90 xs) ] else [])
      Gen.all_kinds
  in
  let wall, at_ref = List.split !setups in
  let ms l = median l *. 1e3 in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [ ("setup_s", "s", median at_ref);
    ("setups", "count", float (List.length at_ref));
    ("setup_wall_s", "s", median wall);
    ("stmt_per_s", "1/s", rate all);
    ("stmt_per_s_wall", "1/s", float !ops /. !busy);
    ("rounds", "count", float rounds);
    ("save_ms", "ms", ms (List.map snd saves));
    ("save_min_ms", "ms", 1e3 *. List.fold_left min infinity (List.map snd saves));
    ("load_min_ms", "ms", 1e3 *. List.fold_left min infinity (List.map snd loads));
    ("save_wall_ms", "ms", ms (List.map fst saves));
    ("load_ms", "ms", ms (List.map snd loads));
    ("load_wall_ms", "ms", ms (List.map fst loads));
    ("calib_ref_ratio", "ratio", calib_ref /. calibrate ());
    ("heap_peak_mb", "MiB", float heap /. 1048576.) ]
  @ per_kind

let unit_of name =
  let has_suffix s = String.ends_with ~suffix:s name in
  let has_prefix s = String.starts_with ~prefix:s name in
  if has_prefix "scale." then "ratio"
  else if has_prefix "registry.apply_ms" || has_suffix "_ms" then "ms"
  else if has_prefix "executor.execute_us" || has_suffix "_us" || has_prefix "refresh.us_per" then "us"
  else if has_suffix "mpixel_per_s" then "Mpx/s"
  else if has_prefix "gc.minor_words" then "words"
  else if has_suffix "_bytes" then "B"
  else if has_suffix "ratio" || has_suffix "share"
          || has_suffix "speedup" || has_suffix "per_row" || has_suffix "per_user_byte"
  then "ratio"
  else "count"

(* Traced: an untraced pass for half the time gives the reference
   statement time; the same rounds are then replayed traced on a fresh
   database of the same seed, with per-round probes; finally the
   database is built at a quarter of its size for the scaling ratios. *)
let traced name ~seed ~seconds ~size =
  let w, env, _ = setup name ~seed ~size in
  let start = now () in
  let rounds = ref 0 and plain = ref 0. in
  while !rounds < 1 || (now () -. start < seconds /. 2. && !rounds < w.Gen.epoch) do
    List.iter
      (fun op -> match exec env op with Some o -> plain := !plain +. o.latency | None -> ())
      (w.Gen.next_round ());
    incr rounds
  done;
  let w, env, _ = setup name ~seed ~size in
  let sp : samples = Hashtbl.create 64 in
  let traced_time = Traced.run sp w env ~rounds:!rounds in
  Traced.persist_probes sp w env;
  Traced.pool_probes sp;
  let wq, envq, _ = setup name ~seed ~size:(size / 4) in
  let spq : samples = Hashtbl.create 64 in
  ignore (Traced.run spq wq envq ~rounds:2);
  let ratio a b = if b > 0. then a /. b else nan in
  let examined = sum (get sp "rows.examined") and returned = sum (get sp "rows.returned") in
  let events = get sp "events.per_stmt" in
  let mean xs = sum xs /. float (max 1 (List.length xs)) in
  let skip = [ "rows.examined"; "rows.returned"; "events.per_stmt" ] in
  let medians =
    Hashtbl.fold
      (fun name r acc ->
        if List.mem name skip then acc
        else if String.starts_with ~prefix:"gc.minor_words" name then (name, mean !r) :: acc
        else (name, median !r) :: acc)
      sp []
  in
  let scaled =
    List.map
      (fun m -> ("scale." ^ m, ratio (median (get sp m)) (median (get spq m))))
      [ "optimizer.plan_select_us"; "storage.analyze_table_us"; "obj_store.update_us";
        "kernel.current_marking_us"; "cache.probe_hit_us" ]
  in
  List.map
    (fun (n, v) -> (n, unit_of n, v))
    (List.sort compare medians
     @ [ ("executor.rows_examined_per_row", ratio examined returned);
         ("events.per_stmt", mean events);
         ("trace.overhead_ratio", ratio traced_time !plain);
         ("rounds", float !rounds) ]
     @ scaled)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result metrics =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"host\": {\"pool_size\": %d, \"ocaml\": %S}}\n"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map metric metrics))
    (Pool.size ()) Sys.ocaml_version

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dump = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME catalog | derive-refresh | raster");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured mix");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--dump-script", Arg.Set_int dump, "ROUNDS print the generated script and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Gen.full_size !workload with
  | None ->
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  | Some size ->
    if !dump >= 0 then print_string (Gen.script (Gen.make !workload ~seed:!seed ~size) ~rounds:!dump)
    else begin
      let metrics =
        if !trace = 1 then traced !workload ~seed:!seed ~seconds:!seconds ~size
        else untraced !workload ~seed:!seed ~seconds:!seconds ~size
      in
      let error_rate = float !failed /. float (max 1 !attempted) in
      print_result (metrics @ [ ("error_rate", "ratio", error_rate) ])
    end;
    Pool.shutdown ()
