type slot = {
  oid : Oid.t;
  tuple : Tuple.t;
  mutable deleted : bool;
}

type t = {
  mutable slots : slot option array;
  mutable used : int;
  mutable live : int;
  by_oid : (Oid.t, int) Hashtbl.t;  (* live rows only *)
}

let create () =
  { slots = [||]; used = 0; live = 0; by_oid = Hashtbl.create 64 }

let grow t =
  let cap = Array.length t.slots in
  if t.used >= cap then begin
    let fresh = Array.make (Stdlib.max 16 (cap * 2)) None in
    Array.blit t.slots 0 fresh 0 t.used;
    t.slots <- fresh
  end

let insert t oid tuple =
  if Hashtbl.mem t.by_oid oid then
    Error (Printf.sprintf "heap: duplicate oid %d" oid)
  else begin
    grow t;
    t.slots.(t.used) <- Some { oid; tuple; deleted = false };
    Hashtbl.add t.by_oid oid t.used;
    t.used <- t.used + 1;
    t.live <- t.live + 1;
    Ok ()
  end

let slot t i =
  match t.slots.(i) with
  | Some s -> s
  | None -> assert false (* slots below [used] are always filled *)

(* Slide the live slots down in order and re-point [by_oid].  Run when
   tombstones outnumber live rows, so it moves at most 2·live + 1 slots
   after at least live + 1 deletes: O(1) amortized per delete. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.used - 1 do
    let s = slot t i in
    if not s.deleted then begin
      t.slots.(!j) <- Some s;
      Hashtbl.replace t.by_oid s.oid !j;
      incr j
    end
  done;
  Array.fill t.slots !j (t.used - !j) None;
  t.used <- !j

let delete t oid =
  match Hashtbl.find_opt t.by_oid oid with
  | None -> false
  | Some i ->
    (slot t i).deleted <- true;
    Hashtbl.remove t.by_oid oid;
    t.live <- t.live - 1;
    if t.used - t.live > t.live then compact t;
    true

let replace t oid tuple =
  match Hashtbl.find_opt t.by_oid oid with
  | None -> Error (Printf.sprintf "heap: replace of unknown oid %d" oid)
  | Some i ->
    t.slots.(i) <- Some { (slot t i) with tuple };
    Ok ()

let locate t oid =
  Option.map (fun i -> (i, (slot t i).tuple)) (Hashtbl.find_opt t.by_oid oid)

let get t oid = Option.map snd (locate t oid)

let mem t oid = Hashtbl.mem t.by_oid oid

let length t = t.live
let allocated t = t.used

let scan t f =
  for i = 0 to t.used - 1 do
    let s = slot t i in
    if not s.deleted then f s.oid s.tuple
  done

let fold t ~init ~f =
  let acc = ref init in
  scan t (fun oid tuple -> acc := f !acc oid tuple);
  !acc

let to_seq t =
  let rec from i () =
    if i >= t.used then Seq.Nil
    else
      let s = slot t i in
      if s.deleted then from (i + 1) ()
      else Seq.Cons ((s.oid, s.tuple), from (i + 1))
  in
  from 0

let oids t n =
  let rec go i n acc =
    if n <= 0 || i >= t.used then List.rev acc
    else
      let s = slot t i in
      if s.deleted then go (i + 1) n acc else go (i + 1) (n - 1) (s.oid :: acc)
  in
  go 0 n []

let find t pred = Seq.find (fun (oid, tuple) -> pred oid tuple) (to_seq t)

let to_list t =
  List.rev (fold t ~init:[] ~f:(fun acc oid tuple -> (oid, tuple) :: acc))
