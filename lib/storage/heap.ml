(* Slot [i] holds the row [oids.(i)], [tuples.(i)] for [i < used]; a
   deleted row's tuple slot holds [vacant], as does every slot from
   [used] on, so a deleted tuple is unreachable from the heap. *)
type t = {
  mutable oids : Oid.t array;
  mutable tuples : Tuple.t array;
  mutable used : int;
  mutable live : int;
  by_oid : int Oid.Tbl.t;  (* live rows only *)
}

let vacant =
  Result.get_ok
    (Result.bind
       (Tuple.descriptor [ ("vacant", Gaea_adt.Vtype.Any) ])
       (fun d -> Tuple.make d [ Gaea_adt.Value.int 0 ]))

let is_live t i = Array.unsafe_get t.tuples i != vacant

let create () =
  { oids = [||]; tuples = [||]; used = 0; live = 0; by_oid = Oid.Tbl.create 64 }

let grow t =
  let cap = Array.length t.oids in
  if t.used >= cap then begin
    let cap = Stdlib.max 16 (cap * 2) in
    let oids = Array.make cap 0 and tuples = Array.make cap vacant in
    Array.blit t.oids 0 oids 0 t.used;
    Array.blit t.tuples 0 tuples 0 t.used;
    t.oids <- oids;
    t.tuples <- tuples
  end

let insert t oid tuple =
  if Oid.Tbl.mem t.by_oid oid then
    Error (Printf.sprintf "heap: duplicate oid %d" oid)
  else begin
    grow t;
    t.oids.(t.used) <- oid;
    t.tuples.(t.used) <- tuple;
    Oid.Tbl.add t.by_oid oid t.used;
    t.used <- t.used + 1;
    t.live <- t.live + 1;
    Ok ()
  end

(* Slide the live rows down in order and re-point [by_oid].  Run when
   tombstones outnumber live rows, so it moves at most 2·live + 1 slots
   after at least live + 1 deletes: O(1) amortized per delete. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.used - 1 do
    if is_live t i then begin
      let oid = t.oids.(i) in
      t.oids.(!j) <- oid;
      t.tuples.(!j) <- t.tuples.(i);
      Oid.Tbl.replace t.by_oid oid !j;
      incr j
    end
  done;
  Array.fill t.tuples !j (t.used - !j) vacant;
  t.used <- !j

let delete t oid =
  match Oid.Tbl.find_opt t.by_oid oid with
  | None -> false
  | Some i ->
    t.tuples.(i) <- vacant;
    Oid.Tbl.remove t.by_oid oid;
    t.live <- t.live - 1;
    if t.used - t.live > t.live then compact t;
    true

let replace t oid tuple =
  match Oid.Tbl.find_opt t.by_oid oid with
  | None -> Error (Printf.sprintf "heap: replace of unknown oid %d" oid)
  | Some i ->
    t.tuples.(i) <- tuple;
    Ok ()

let slot t oid =
  match Oid.Tbl.find t.by_oid oid with
  | i -> i
  | exception Not_found -> -1

let row t i = (t.oids.(i), t.tuples.(i))

let get t oid =
  match Oid.Tbl.find t.by_oid oid with
  | i -> Some t.tuples.(i)
  | exception Not_found -> None

let length t = t.live
let allocated t = t.used

let scan t f =
  for i = 0 to t.used - 1 do
    let tuple = t.tuples.(i) in
    if tuple != vacant then f t.oids.(i) tuple
  done

let iter_slots t f =
  for i = 0 to t.used - 1 do
    let tuple = t.tuples.(i) in
    if tuple != vacant then f i tuple
  done

let fold t ~init ~f =
  let acc = ref init in
  scan t (fun oid tuple -> acc := f !acc oid tuple);
  !acc

let to_seq t =
  let rec from i () =
    if i >= t.used then Seq.Nil
    else if is_live t i then Seq.Cons ((t.oids.(i), t.tuples.(i)), from (i + 1))
    else from (i + 1) ()
  in
  from 0

let oids t n =
  (* the slot just past the [n]-th live row (slot [n] when there is
     no tombstone); then cons backwards from it *)
  let stop =
    if t.used = t.live then Stdlib.min (Stdlib.max n 0) t.used
    else begin
      let i = ref 0 and seen = ref 0 in
      while !seen < n && !i < t.used do
        if is_live t !i then incr seen;
        incr i
      done;
      !i
    end
  in
  let acc = ref [] in
  for i = stop - 1 downto 0 do
    if is_live t i then acc := t.oids.(i) :: !acc
  done;
  !acc

let first_oids ?(tail = [||]) t n =
  let n = Stdlib.min (Stdlib.max n 0) t.live in
  if t.used = t.live && Array.length tail = 0 then Array.sub t.oids 0 n
  else begin
    (* skip the tombstones among the first [n] live rows *)
    let oids = Array.make (n + Array.length tail) 0 and i = ref 0 in
    for j = 0 to n - 1 do
      while not (is_live t !i) do incr i done;
      Array.unsafe_set oids j (Array.unsafe_get t.oids !i);
      incr i
    done;
    Array.blit tail 0 oids n (Array.length tail);
    oids
  end
