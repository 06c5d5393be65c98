let default_grain = 4096
let max_size = 8

(* ------------------------------------------------------------------ *)
(* Deterministic chunking                                              *)
(* ------------------------------------------------------------------ *)

(* Boundaries depend only on (lo, hi, grain): bit-identical reductions
   at any pool size.  Pure arithmetic — no chunk array is ever
   allocated on the dispatch path. *)
let chunk_count ~grain ~lo ~hi =
  let len = hi - lo in
  if len <= 0 then 0 else (len + grain - 1) / grain

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type job = {
  n : int;                 (* number of chunks *)
  body : int -> unit;      (* run chunk i (bounds computed by closure) *)
  next : int Atomic.t;     (* next chunk to claim *)
  pending : int Atomic.t;  (* chunks not yet finished *)
  err : exn option Atomic.t;
}

type pool = {
  lanes : int; (* workers + the calling domain *)
  (* more lanes than cores: a spinning lane would hold the core the
     lane it waits for needs, so every lane blocks without spinning *)
  park_now : bool;
  mutex : Mutex.t;
  cond : Condition.t;            (* workers wait here for a new epoch *)
  done_cond : Condition.t;       (* the caller waits here for stragglers *)
  epoch : int Atomic.t;          (* bumped per job; publishes [job] *)
  sleepers : int Atomic.t;       (* workers blocked on [cond] *)
  caller_waiting : bool Atomic.t;
  stopping : bool Atomic.t;
  mutable job : job option;      (* written before the epoch bump *)
  mutable domains : unit Domain.t list;
}

(* true inside a worker or inside a caller's parallel region: nested
   parallel calls degrade to the sequential path *)
let in_parallel = Domain.DLS.new_key (fun () -> false)

(* Spin budgets: long enough to cover the a-few-microseconds gap
   between back-to-back kernel calls, short enough that an idle pool
   parks its workers well under a millisecond. *)
let worker_spin_budget = 20_000
let caller_spin_budget = 50_000

let finish_chunk p j =
  (* fetch_and_add returns the previous value: 1 means this was the
     last chunk, and the caller (if parked) needs a wakeup *)
  if Atomic.fetch_and_add j.pending (-1) = 1
     && Atomic.get p.caller_waiting
  then begin
    Mutex.lock p.mutex;
    Condition.broadcast p.done_cond;
    Mutex.unlock p.mutex
  end

let run_job p j =
  let n = j.n in
  let rec claim () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < n then begin
      (try j.body i
       with e -> ignore (Atomic.compare_and_set j.err None (Some e)));
      finish_chunk p j;
      claim ()
    end
  in
  claim ()

(* Workers spin on the epoch for a bounded budget, then block on the
   condvar.  The sleepers counter lets the dispatcher skip the mutex +
   broadcast entirely when every worker is still spinning — the common
   case for back-to-back kernels.  The wakeup is race-free: a worker
   re-checks the epoch under the mutex after incrementing sleepers, and
   the dispatcher bumps the epoch before reading sleepers. *)
let rec worker_loop p seen =
  let rec await spins =
    if Atomic.get p.epoch = seen then
      if spins > 0 then begin
        Domain.cpu_relax ();
        await (spins - 1)
      end
      else begin
        Mutex.lock p.mutex;
        Atomic.incr p.sleepers;
        while Atomic.get p.epoch = seen do
          Condition.wait p.cond p.mutex
        done;
        Atomic.decr p.sleepers;
        Mutex.unlock p.mutex
      end
  in
  await (if p.park_now then 0 else worker_spin_budget);
  if not (Atomic.get p.stopping) then begin
    let epoch = Atomic.get p.epoch in
    (match p.job with Some j -> run_job p j | None -> ());
    worker_loop p epoch
  end

let make_pool lanes =
  let p =
    { lanes; park_now = lanes > Domain.recommended_domain_count ();
      mutex = Mutex.create (); cond = Condition.create ();
      done_cond = Condition.create (); epoch = Atomic.make 0;
      sleepers = Atomic.make 0; caller_waiting = Atomic.make false;
      stopping = Atomic.make false; job = None; domains = [] }
  in
  p.domains <-
    List.init (lanes - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_parallel true;
            worker_loop p 0));
  p

(* ------------------------------------------------------------------ *)
(* Global pool lifecycle                                               *)
(* ------------------------------------------------------------------ *)

let clamp_size n = Stdlib.max 1 (Stdlib.min max_size n)

let default_size () =
  match Sys.getenv_opt "GAEA_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> clamp_size n
     | None -> clamp_size (Domain.recommended_domain_count ()))
  | None -> clamp_size (Domain.recommended_domain_count ())

let requested = ref None
let pool = ref None

(* One parallel region at a time; also protects the lifecycle. *)
let region_mutex = Mutex.create ()

let size () =
  match !requested with
  | Some n -> n
  | None ->
    let n = default_size () in
    requested := Some n;
    n

let shutdown_pool p =
  Atomic.set p.stopping true;
  Mutex.lock p.mutex;
  (* spinning workers notice the epoch change; sleepers the broadcast *)
  Atomic.incr p.epoch;
  Condition.broadcast p.cond;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.domains

let shutdown () =
  Mutex.lock region_mutex;
  (match !pool with
   | Some p -> shutdown_pool p
   | None -> ());
  pool := None;
  Mutex.unlock region_mutex

let set_size n =
  let n = clamp_size n in
  if Domain.DLS.get in_parallel then
    (* inside a parallel region the region mutex is held (or we are a
       worker): resizing now would deadlock.  Record the request; the
       next region entry applies it in [get_pool]. *)
    requested := Some n
  else begin
    Mutex.lock region_mutex;
    (match !pool with
     | Some p when p.lanes <> n ->
       shutdown_pool p;
       pool := None
     | _ -> ());
    requested := Some n;
    Mutex.unlock region_mutex
  end

(* caller holds region_mutex *)
let get_pool () =
  match !pool with
  | Some p when p.lanes = size () -> p
  | other ->
    (match other with Some p -> shutdown_pool p | None -> ());
    let p = make_pool (size ()) in
    pool := Some p;
    p

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Run [body 0 .. body (n-1)] across the pool.  The caller claims
   chunks too (help-first), then spins briefly on [pending] and only
   parks on [done_cond] if stragglers remain — the common case never
   touches the pool mutex at all. *)
let dispatch n body =
  Mutex.lock region_mutex;
  let p = get_pool () in
  let j =
    { n; body; next = Atomic.make 0; pending = Atomic.make n;
      err = Atomic.make None }
  in
  p.job <- Some j;
  Atomic.incr p.epoch;
  if Atomic.get p.sleepers > 0 then begin
    Mutex.lock p.mutex;
    Condition.broadcast p.cond;
    Mutex.unlock p.mutex
  end;
  Domain.DLS.set in_parallel true;
  run_job p j;
  let rec wait spins =
    if Atomic.get j.pending > 0 then
      if spins > 0 then begin
        Domain.cpu_relax ();
        wait (spins - 1)
      end
      else begin
        (* set caller_waiting before the pending re-check: the worker
           that drops pending to 0 afterwards is guaranteed to see it
           and broadcast *)
        Atomic.set p.caller_waiting true;
        Mutex.lock p.mutex;
        while Atomic.get j.pending > 0 do
          Condition.wait p.done_cond p.mutex
        done;
        Mutex.unlock p.mutex;
        Atomic.set p.caller_waiting false
      end
  in
  wait (if p.park_now then 0 else caller_spin_budget);
  Domain.DLS.set in_parallel false;
  p.job <- None;
  let err = Atomic.get j.err in
  Mutex.unlock region_mutex;
  match err with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Parallel iteration                                                  *)
(* ------------------------------------------------------------------ *)

(* Nested regions would deadlock on the region lock, and a range of one
   grain is one chunk, so there is nothing to share. *)
let sequential ~grain ~lo ~hi =
  Domain.DLS.get in_parallel || size () = 1 || hi - lo <= grain

let parallel_for_ranges ?(grain = default_grain) ~lo ~hi body =
  if hi > lo then begin
    if sequential ~grain ~lo ~hi then body lo hi
    else
      dispatch (chunk_count ~grain ~lo ~hi) (fun ci ->
          let clo = lo + (ci * grain) in
          body clo (Stdlib.min hi (clo + grain)))
  end

let parallel_for ?grain ~lo ~hi body =
  parallel_for_ranges ?grain ~lo ~hi (fun clo chi ->
      for i = clo to chi - 1 do
        body i
      done)

let map_chunks ?(grain = default_grain) ~lo ~hi f =
  let n = chunk_count ~grain ~lo ~hi in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let run ci =
      let clo = lo + (ci * grain) in
      results.(ci) <- Some (f clo (Stdlib.min hi (clo + grain)))
    in
    (* same chunk layout either way, so reductions associate identically *)
    if sequential ~grain ~lo ~hi then
      for ci = 0 to n - 1 do
        run ci
      done
    else dispatch n run;
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Pool.map_chunks: missing chunk result")
      results
  end

let parallel_for_reduce ?grain ~lo ~hi ~init ~reduce map =
  Array.fold_left reduce init (map_chunks ?grain ~lo ~hi map)
