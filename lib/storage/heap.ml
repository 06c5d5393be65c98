type slot = {
  oid : Oid.t;
  tuple : Tuple.t;
  mutable deleted : bool;
}

type t = {
  mutable slots : slot option array;
  mutable used : int;
  mutable live : int;
  by_oid : (Oid.t, int) Hashtbl.t;
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

let delete t oid =
  match Hashtbl.find_opt t.by_oid oid with
  | None -> false
  | Some i ->
    let s = slot t i in
    if s.deleted then false
    else begin
      s.deleted <- true;
      t.live <- t.live - 1;
      true
    end

let replace t oid tuple =
  match Hashtbl.find_opt t.by_oid oid with
  | None -> Error (Printf.sprintf "heap: replace of unknown oid %d" oid)
  | Some i ->
    let s = slot t i in
    if s.deleted then
      Error (Printf.sprintf "heap: replace of deleted oid %d" oid)
    else begin
      t.slots.(i) <- Some { s with tuple };
      Ok ()
    end

let get t oid =
  match Hashtbl.find_opt t.by_oid oid with
  | None -> None
  | Some i ->
    let s = slot t i in
    if s.deleted then None else Some s.tuple

let mem t oid = get t oid <> None

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

let find t pred = Seq.find (fun (oid, tuple) -> pred oid tuple) (to_seq t)

let to_list t =
  List.rev (fold t ~init:[] ~f:(fun acc oid tuple -> (oid, tuple) :: acc))
