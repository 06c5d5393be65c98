module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type t = IntSet.t IntMap.t

let empty = IntMap.empty

let add t place token =
  IntMap.update place
    (function
      | None -> Some (IntSet.singleton token)
      | Some s -> Some (IntSet.add token s))
    t

let add_all t place tokens = List.fold_left (fun t tok -> add t place tok) t tokens

let remove t place token =
  IntMap.update place
    (function
      | None -> None
      | Some s ->
        let s = IntSet.remove token s in
        if IntSet.is_empty s then None else Some s)
    t

let tokens t place =
  match IntMap.find_opt place t with
  | None -> []
  | Some s -> IntSet.elements s

let count t place =
  match IntMap.find_opt place t with
  | None -> 0
  | Some s -> IntSet.cardinal s

let mem t place token =
  match IntMap.find_opt place t with
  | None -> false
  | Some s -> IntSet.mem token s

let is_marked t place = count t place > 0

let places t = IntMap.fold (fun p _ acc -> p :: acc) t [] |> List.rev

let total_tokens t = IntMap.fold (fun _ s acc -> acc + IntSet.cardinal s) t 0

let union a b =
  IntMap.union (fun _ s1 s2 -> Some (IntSet.union s1 s2)) a b

let equal a b = IntMap.equal IntSet.equal a b

let of_list l =
  List.fold_left (fun t (p, toks) -> add_all t p toks) empty l

let view t =
  { Net.count = count t;
    first = (fun p n -> List.filteri (fun i _ -> i < n) (tokens t p)) }

let pp ?(place_name = string_of_int) fmt t =
  Format.fprintf fmt "@[<v>";
  IntMap.iter
    (fun p s ->
      Format.fprintf fmt "%s: {%s}@ " (place_name p)
        (String.concat ", " (List.map string_of_int (IntSet.elements s))))
    t;
  Format.fprintf fmt "@]"
