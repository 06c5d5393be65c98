(* Executing generated operations against a fresh Gaea database, with
   the correctness oracle: every statement's answer is checked against
   what the generator's model says it must be. *)

module Kernel = Gaea_core.Kernel
module Persist = Gaea_core.Persist
module Lineage = Gaea_core.Lineage
module Derivation = Gaea_core.Derivation
module Schema = Gaea_core.Schema
module Task = Gaea_core.Task
module Gaea_error = Gaea_core.Gaea_error
module Value = Gaea_adt.Value
module Registry = Gaea_adt.Registry
module Parser = Gaea_query.Parser
module Executor = Gaea_query.Executor
module Optimizer = Gaea_query.Optimizer
module Plan = Gaea_query.Plan
module Ast = Gaea_query.Ast
module Table = Gaea_storage.Table
module Stats = Gaea_storage.Stats
module Tuple = Gaea_storage.Tuple
module Pool = Gaea_par.Pool
module Image = Gaea_raster.Image
module Composite = Gaea_raster.Composite
module Synthetic = Gaea_raster.Synthetic
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box

(* seconds on the monotonic clock, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let p90 xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(min (Array.length a - 1) (int_of_float (0.9 *. float (Array.length a))))

let sum xs = List.fold_left ( +. ) 0. xs

(* Host-speed normalization.  On a shared virtual machine the speed of
   the same code swings by 15-30% over windows of seconds to minutes
   (neighbours on the physical cores and caches), far more than the
   changes this benchmark must resolve.  So every time is also reported
   at a reference speed: it is scaled by [calib_ref / c], where [c] is
   the time of a fixed loop (the benchmark's own code, not the
   program's) measured at most 100 ms before it, and [calib_ref] is that
   loop's typical time on the host the bounds were set on (2-vCPU Xeon).
   The loop fills and probes a hash table of string keys, so it
   allocates, hashes and chases pointers as the program does: a slow
   phase of the host slows the program's memory-bound statements about
   as much as this loop, and about twice as much as an arithmetic loop.

   A statement that spends its time in the pool's raster kernels runs on
   both cores, and is as slow as the slower of them: it is scaled by the
   same loop run on this domain and on a second one at once.  Between
   statements the pool's workers are idle, so the second domain takes
   no core from the program.  The wall-clock times are kept under
   "_wall" names. *)
let calib_ref = 1e-3

let calib_keys = Array.init 8192 (fun i -> Printf.sprintf "key-%d-%d" i (i * 7919))

(* the fixed loop, best of three, in seconds *)
let calibrate () =
  let once () =
    let t0 = now () in
    let h = Hashtbl.create 16 in
    Array.iteri (fun i k -> Hashtbl.replace h k (i, [ i ])) calib_keys;
    let acc = ref 0 in
    Array.iter
      (fun k -> match Hashtbl.find_opt h k with Some (i, _) -> acc := !acc + i | None -> ())
      calib_keys;
    ignore (Sys.opaque_identity !acc);
    now () -. t0
  in
  min (once ()) (min (once ()) (once ()))

(* the loop on this domain and a second one, started together; the
   slower of the two *)
let calibrate_two_lanes () =
  let ready = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Atomic.set ready true;
        calibrate ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let here = calibrate () in
  Float.max here (Domain.join other)

(* the factor turning wall time into reference-speed time, refreshed
   when older than 100 ms *)
let speed_of calib =
  let factor = ref 1. and at = ref neg_infinity in
  fun () ->
    if now () -. !at > 0.1 then begin
      factor := calib_ref /. calib ();
      at := now ()
    end;
    !factor

let speed = speed_of calibrate
let pooled_speed = speed_of calibrate_two_lanes

(* ------------------------------------------------------------------ *)
(* Samples and failures                                                *)
(* ------------------------------------------------------------------ *)

(* named sample lists: statement latencies by kind, span durations *)
type samples = (string, float list ref) Hashtbl.t

let add (s : samples) name v =
  match Hashtbl.find_opt s name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add s name (ref [ v ])

let get (s : samples) name =
  match Hashtbl.find_opt s name with Some r -> !r | None -> []

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 10 then prerr_endline ("bench: " ^ msg))
    fmt

(* ------------------------------------------------------------------ *)
(* Values the generator describes                                      *)
(* ------------------------------------------------------------------ *)

(* the oracle's own registry: expected values never come from the
   kernel under test *)
let reg = Registry.with_builtins ()

(* memoized values, bounded by their pixel count *)
let value_memo : (Gen.spec, Value.t) Hashtbl.t = Hashtbl.create 256
let memo_pixels = ref 0
let scene_memo : (int * int, Composite.t) Hashtbl.t = Hashtbl.create 16

let scene ~seed ~n =
  match Hashtbl.find_opt scene_memo (seed, n) with
  | Some c -> c
  | None ->
    let c =
      (Synthetic.landsat_scene ~seed ~nrow:n ~ncol:n ~bands:3 ()).Synthetic.composite
    in
    if Hashtbl.length scene_memo > 8 then Hashtbl.reset scene_memo;
    Hashtbl.replace scene_memo (seed, n) c;
    c

let spec_value (s : Gen.spec) =
  match Hashtbl.find_opt value_memo s with
  | Some v -> v
  | None ->
    let v =
      match s with
      | Gen.Band { seed; n } ->
        (match Registry.apply reg "synth_band" [ Value.int seed; Value.int n; Value.int n ] with
         | Ok v -> v
         | Error e -> failwith e)
      | Gen.Scene_band { seed; n; band } ->
        Value.image (Composite.band (scene ~seed ~n) (band - 1))
      | Gen.Avhrr { seed; n; channel; shift; gain } ->
        let red, nir =
          Synthetic.red_nir_pair ~seed ~nrow:n ~ncol:n ~vegetation_shift:shift ()
        in
        let img = if channel = 1 then red else nir in
        Value.image (if gain = 1. then img else Image.map (fun x -> x *. gain) img)
    in
    let pixels = match v with Value.VImage i -> Image.size i | _ -> 1 in
    if !memo_pixels + pixels > 4_000_000 then begin
      Hashtbl.reset value_memo;
      memo_pixels := 0
    end;
    memo_pixels := !memo_pixels + pixels;
    Hashtbl.replace value_memo s v;
    v

let attr_value = function
  | Gen.A_spec s -> spec_value s
  | Gen.A_int i -> Value.int i
  | Gen.A_box (xmin, ymin, xmax, ymax) -> Value.box (Box.make ~xmin ~ymin ~xmax ~ymax)
  | Gen.A_date (y, m, d) -> Value.abstime (Abstime.of_ymd y m d)

(* [timed] sees each operator application with its arguments and its
   own duration (arguments are evaluated before the clock starts) *)
let rec eval_recipe ?(timed = fun _ _ _ -> ()) = function
  | Gen.Leaf s -> spec_value s
  | Gen.Num f -> Value.float f
  | Gen.Int_arg i -> Value.int i
  | Gen.Apply (op, args) ->
    let args = List.map (eval_recipe ~timed) args in
    let t0 = now () in
    let r = Registry.apply reg op args in
    timed op args (now () -. t0);
    (match r with Ok v -> v | Error e -> failwith (op ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* A database under test                                               *)
(* ------------------------------------------------------------------ *)

type env = {
  ex : Executor.t;
  k : Kernel.t;
  oids : (int, int) Hashtbl.t;  (** ingestion number -> OID *)
  pooled : Gen.kind list;  (** kinds scaled by [pooled_speed] *)
}

let new_env ~pooled =
  let ex = Executor.create () in
  { ex; k = Executor.kernel ex; oids = Hashtbl.create 4096; pooled }

(* the factor to reference speed for a statement of [kind] *)
let speed_for env kind = if List.mem kind env.pooled then pooled_speed () else speed ()

let handle_oid env h =
  match Hashtbl.find_opt env.oids h with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "ingestion h%d never happened" h)

let product_oid env cls root =
  Result.bind (handle_oid env root) (fun r ->
      match
        List.filter
          (fun o -> Kernel.class_of_object env.k o = Some cls)
          (Lineage.descendants env.k r)
      with
      | [ o ] -> Ok o
      | l ->
        Error
          (Printf.sprintf "%d live %s object(s) derived from h%d"
             (List.length l) cls root))

(* replace @h<k> and @<cls>/<k> with OIDs *)
let resolve env text =
  let n = String.length text in
  let buf = Buffer.create n in
  let is_tok = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' -> true
    | _ -> false
  in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if text.[i] <> '@' then (
      Buffer.add_char buf text.[i];
      go (i + 1))
    else begin
      let j = ref (i + 1) in
      while !j < n && is_tok text.[!j] do incr j done;
      let tok = String.sub text (i + 1) (!j - i - 1) in
      let oid =
        match String.index_opt tok '/' with
        | Some p ->
          product_oid env (String.sub tok 0 p)
            (int_of_string (String.sub tok (p + 1) (String.length tok - p - 1)))
        | None -> handle_oid env (int_of_string (String.sub tok 1 (String.length tok - 1)))
      in
      match oid with
      | Ok o ->
        Buffer.add_string buf (string_of_int o);
        go !j
      | Error _ as e -> e
    end
  in
  go 0

let product_ok env (p : Gen.product) =
  match product_oid env p.Gen.cls p.Gen.root with
  | Error e -> fail "%s" e; false
  | Ok oid ->
    (match Kernel.object_attr env.k ~cls:p.Gen.cls oid "data" with
     | Some v when Value.equal v (eval_recipe p.Gen.recipe) -> true
     | _ ->
       fail "%s object %d differs from %s" p.Gen.cls oid
         (Gen.recipe_to_string p.Gen.recipe);
       false)

(* ------------------------------------------------------------------ *)
(* Executing one operation                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  kind : Gen.kind;
  shape : string;  (** the statement with its numbers blanked, or the kernel call *)
  latency : float;  (** seconds, parse to result *)
  at_ref : float;  (** [latency] at reference speed *)
  parse : float;  (** seconds in [Parser.parse_one] *)
  words : float;  (** minor-heap words allocated by the operation *)
  stmt : Ast.statement option;
  response : Executor.response option;
  fired : int list;  (** task ids a DERIVE reports as fired *)
}

let fired_task_ids = function
  | Executor.Message m ->
    List.filter_map
      (fun line ->
        match String.index_opt line '#' with
        | Some i when String.starts_with ~prefix:"fired " line ->
          (try Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) "%d" Option.some
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        | _ -> None)
      (String.split_on_char '\n' m)
  | Executor.Rows _ -> []

let check env ~executions ~retrievals (expect : Gen.expect) response =
  let c = Kernel.counters env.k in
  match expect, response with
  | Gen.Nothing, _ -> true
  | Gen.Rows n, Executor.Rows { rows; _ } ->
    List.length rows = n
    || (fail "expected %d row(s), got %d" n (List.length rows); false)
  | Gen.Stale n, Executor.Message m ->
    (match Scanf.sscanf m "%d stale" Fun.id with
     | got when got = n -> true
     | got -> fail "expected %d stale object(s), SHOW STALE says %d" n got; false
     | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
       fail "unreadable SHOW STALE reply"; false)
  | Gen.Retrieved, _ ->
    (c.Kernel.executions = executions && c.Kernel.retrievals > retrievals)
    || (fail "a retrieval DERIVE ran a task"; false)
  | Gen.Fired ps, _ ->
    if c.Kernel.executions = executions then (
      fail "a derivation DERIVE fired no task";
      false)
    else List.for_all (product_ok env) ps
  | Gen.Refreshed ps, _ ->
    (match Kernel.stale_objects env.k with
     | [] -> List.for_all (product_ok env) ps
     | l -> fail "%d object(s) still stale after REFRESH ALL" (List.length l); false)
  | _ -> fail "unexpected reply shape"; false

(* [text] with every number (digits, and a '.' inside one) replaced by
   '#': statements from one template share a shape *)
let shape_of_text text =
  let buf = Buffer.create (String.length text) in
  let in_num = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> if not !in_num then Buffer.add_char buf '#'; in_num := true
      | '.' when !in_num -> ()
      | c -> Buffer.add_char buf c; in_num := false)
    text;
  Buffer.contents buf

let write_outcome shape ~speed latency words =
  Some
    { kind = Gen.Write; shape; latency; at_ref = latency *. speed; parse = 0.; words;
      stmt = None; response = None; fired = [] }

(* run one operation and check its answer; [None] when either failed *)
let exec env (op : Gen.op) =
  incr attempted;
  match op with
  | Gen.Gql { kind; text; expect; handle } ->
    let shape = shape_of_text text in
    (match resolve env text with
     | Error e -> fail "%s: %s" text e; None
     | Ok text ->
       let c = Kernel.counters env.k in
       let executions = c.Kernel.executions and retrievals = c.Kernel.retrievals in
       let f = speed_for env kind in
       let w0 = Gc.minor_words () in
       let t0 = now () in
       let parsed = Parser.parse_one text in
       let t1 = now () in
       let r = Result.bind parsed (Executor.execute env.ex) in
       let t2 = now () in
       let words = Gc.minor_words () -. w0 in
       (match r with
        | Error e -> fail "%s: %s" text (Gaea_error.to_string e); None
        | Ok response ->
          (match handle, response with
           | Some h, Executor.Message m ->
             (try Scanf.sscanf m "object %d inserted" (Hashtbl.replace env.oids h)
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                fail "unreadable INSERT reply %S" m)
           | _ -> ());
          if check env ~executions ~retrievals expect response then
            Some
              { kind; shape; latency = t2 -. t0; at_ref = (t2 -. t0) *. f; parse = t1 -. t0; words;
                stmt = Result.to_option parsed; response = Some response;
                fired = fired_task_ids response }
          else None))
  | Gen.Ingest { handle; cls; attrs } ->
    let pairs = List.map (fun (a, v) -> (a, attr_value v)) attrs in
    let f = speed_for env Gen.Write in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = Kernel.insert_object env.k ~cls pairs in
    let t1 = now () in
    let words = Gc.minor_words () -. w0 in
    (match r with
     | Error e -> fail "ingest into %s: %s" cls (Gaea_error.to_string e); None
     | Ok oid ->
       Hashtbl.replace env.oids handle oid;
       write_outcome ("ingest " ^ cls) ~speed:f (t1 -. t0) words)
  | Gen.Update { target; cls; spec } ->
    (match handle_oid env target with
     | Error e -> fail "%s" e; None
     | Ok oid ->
       let v = spec_value spec in
       let f = speed_for env Gen.Write in
       let w0 = Gc.minor_words () in
       let t0 = now () in
       let r = Kernel.update_object env.k ~cls oid [ ("data", v) ] in
       let t1 = now () in
       let words = Gc.minor_words () -. w0 in
       (match r with
        | Error e -> fail "update %s %d: %s" cls oid (Gaea_error.to_string e); None
        | Ok () -> write_outcome ("update " ^ cls) ~speed:f (t1 -. t0) words))
  | Gen.Execute { process; arg; input } ->
    let oid =
      match input with
      | Gen.Handle h -> handle_oid env h
      | Gen.Product (cls, h) -> product_oid env cls h
    in
    (match oid, Kernel.find_process env.k process with
     | Error e, _ -> fail "%s" e; None
     | _, None -> fail "no process %s" process; None
     | Ok oid, Some p ->
       let f = speed_for env Gen.Write in
       let w0 = Gc.minor_words () in
       let t0 = now () in
       let r = Kernel.execute_process env.k p ~inputs:[ (arg, [ oid ]) ] in
       let t1 = now () in
       let words = Gc.minor_words () -. w0 in
       (match r with
        | Error e -> fail "execute %s: %s" process (Gaea_error.to_string e); None
        | Ok _ -> write_outcome ("execute " ^ process) ~speed:f (t1 -. t0) words))
  | Gen.Verify ps ->
    decr attempted;
    if List.for_all (product_ok env) ps then write_outcome "verify" ~speed:1. 0. 0. else None
  | Gen.Halve_cache_budget ->
    Kernel.set_cache_budget env.k ((Kernel.cache_stats env.k).Kernel.resident_bytes / 2);
    write_outcome "set cache budget" ~speed:1. 0. 0.

(* Build a workload's database.  Set-up time is the summed time of its
   operations, as (wall, reference-speed) seconds: generating pixels for
   ingested scenes is the benchmark's work, not the program's. *)
let setup name ~seed ~size =
  let w = Gen.make name ~seed ~size in
  let env = new_env ~pooled:w.Gen.pooled in
  Gc.compact ();
  let t =
    List.fold_left
      (fun (wall, at_ref) op ->
        match exec env op with
        | Some o -> (wall +. o.latency, at_ref +. o.at_ref)
        | None -> (wall, at_ref))
      (0., 0.) w.Gen.setup
  in
  (w, env, t)

(* ------------------------------------------------------------------ *)
(* Save -> load                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint k =
  List.concat_map
    (fun def ->
      let cls = def.Schema.c_name in
      List.concat_map
        (fun oid ->
          List.map
            (fun a ->
              ( cls, oid, a,
                match Kernel.object_attr k ~cls oid a with
                | Some v -> Value.content_hash v
                | None -> 0 ))
            (Schema.attr_names def))
        (Kernel.objects_of_class k cls))
    (Kernel.classes k)

let class_counts k =
  List.map (fun d -> (d.Schema.c_name, Kernel.count_objects k d.Schema.c_name)) (Kernel.classes k)

(* first, middle and last object of each derived class *)
let verify_sample k =
  List.concat_map
    (fun def ->
      if Schema.is_derived def then
        match Kernel.objects_of_class k def.Schema.c_name with
        | [] -> []
        | l ->
          let n = List.length l in
          List.sort_uniq compare [ List.hd l; List.nth l (n / 2); List.nth l (n - 1) ]
      else [])
    (Kernel.classes k)

(* whole-database save then load: one untimed round trip grows the heap
   to size, then at least five timed ones and more until fifteen or
   three seconds; the samples are (wall, reference-speed) seconds *)
let save_load env =
  let saves = ref [] and loads = ref [] and loaded = ref None in
  ignore (Persist.load (Persist.save env.k));
  let start = now () in
  let reps = ref 0 in
  while !reps < 5 || (!reps < 15 && now () -. start < 3.) do
    incr reps;
    incr attempted;
    loaded := None;
    let f = speed () in
    let t0 = now () in
    let s = Persist.save env.k in
    let t1 = now () in
    let r = Persist.load s in
    let t2 = now () in
    saves := (t1 -. t0, (t1 -. t0) *. f) :: !saves;
    loads := (t2 -. t1, (t2 -. t1) *. f) :: !loads;
    match r with
    | Ok lk -> loaded := Some lk
    | Error e -> fail "load: %s" (Gaea_error.to_string e)
  done;
  (match !loaded with
   | None -> ()
   | Some lk ->
     incr attempted;
     if class_counts lk <> class_counts env.k then fail "per-class counts changed across save/load"
     else if fingerprint lk <> fingerprint env.k then fail "values changed across save/load";
     List.iter
       (fun oid ->
         incr attempted;
         match Lineage.verify_object lk oid with
         | Ok true -> ()
         | Ok false -> fail "object %d does not reproduce after load" oid
         | Error e -> fail "verify %d after load: %s" oid (Gaea_error.to_string e))
       (verify_sample lk));
  (!saves, !loads)
