module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Vorder.compare_exn
end)

module IntSet = Set.Make (Int)

type t = {
  ktype : Vtype.t;
  mutable map : IntSet.t VMap.t;
  mutable keys : int;  (* distinct keys; [VMap.cardinal] would walk the map *)
}

let create ktype =
  if not (Vorder.orderable ktype) then
    Error
      (Printf.sprintf "btree index: type %s is not orderable"
         (Vtype.to_string ktype))
  else Ok { ktype; map = VMap.empty; keys = 0 }

let check_key t key =
  let actual = Value.type_of key in
  (* ints may key float indexes: Vorder compares them numerically *)
  let compatible =
    Vtype.equal actual t.ktype
    || (Vtype.equal t.ktype Vtype.Float && Vtype.equal actual Vtype.Int)
  in
  if compatible then Ok ()
  else
    Error
      (Printf.sprintf "btree index: key of type %s for %s index"
         (Vtype.to_string actual) (Vtype.to_string t.ktype))

let add t key oid =
  match check_key t key with
  | Error _ as e -> e
  | Ok () ->
    let oids =
      match VMap.find_opt key t.map with
      | Some s -> s
      | None ->
        t.keys <- t.keys + 1;
        IntSet.empty
    in
    t.map <- VMap.add key (IntSet.add oid oids) t.map;
    Ok ()

let remove t key oid =
  match VMap.find_opt key t.map with
  | None -> ()
  | Some s ->
    let s = IntSet.remove oid s in
    if IntSet.is_empty s then begin
      t.map <- VMap.remove key t.map;
      t.keys <- t.keys - 1
    end
    else t.map <- VMap.add key s t.map

(* A probe key that Vorder cannot compare with the stored keys (a
   string against an abstime index, say) matches nothing; comparing it
   inside the map would raise. *)
let probe_ok t key =
  match Value.type_of key, t.ktype with
  | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> true
  | actual, ktype -> Vtype.equal actual ktype

let find t key =
  if not (probe_ok t key) then []
  else
    match VMap.find_opt key t.map with
    | None -> []
    | Some s -> IntSet.elements s

let fold_range t ?lo ?hi ~init f =
  let bound_ok = Option.fold ~none:true ~some:(probe_ok t) in
  if not (bound_ok lo && bound_ok hi) then init
  else begin
    let past_hi k =
      match hi with None -> false | Some h -> Vorder.compare_exn k h > 0
    in
    let visit oid acc = f acc oid in
    let rec walk acc keys =
      match keys () with
      | Seq.Cons ((k, oids), rest) when not (past_hi k) ->
        walk (IntSet.fold visit oids acc) rest
      | _ -> acc
    in
    walk init
      (match lo with
       | None -> VMap.to_seq t.map
       | Some l -> VMap.to_seq_from l t.map)
  end

let range t ?lo ?hi () =
  List.rev (fold_range t ?lo ?hi ~init:[] (fun acc oid -> oid :: acc))

let cardinality t = t.keys
