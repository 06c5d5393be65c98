module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

type descriptor = {
  names : string array;
  types : Vtype.t array;
  index : (string, int) Hashtbl.t;
}

let descriptor attrs =
  if attrs = [] then Error "descriptor: no attributes"
  else begin
    let index = Hashtbl.create 8 in
    let rec check i = function
      | [] -> Ok ()
      | (name, _) :: rest ->
        if name = "" then Error "descriptor: empty attribute name"
        else if Hashtbl.mem index name then
          Error (Printf.sprintf "descriptor: duplicate attribute %s" name)
        else begin
          Hashtbl.add index name i;
          check (i + 1) rest
        end
    in
    match check 0 attrs with
    | Error _ as e -> e
    | Ok () ->
      Ok
        { names = Array.of_list (List.map fst attrs);
          types = Array.of_list (List.map snd attrs);
          index }
  end

let attrs d =
  Array.to_list (Array.mapi (fun i n -> (n, d.types.(i))) d.names)

let arity d = Array.length d.names
let attr_index d name = Hashtbl.find_opt d.index name
let attr_name d i = d.names.(i)

let attr_type d name =
  Option.map (fun i -> d.types.(i)) (attr_index d name)

type t = Value.t array

(* [values] become the tuple: each is type-checked, an int widened in
   place for a float attribute, with no copy *)
let of_array d values =
  let n = Array.length values in
  if n <> arity d then
    Error (Printf.sprintf "tuple: %d values for %d attributes" n (arity d))
  else begin
    let rec check i =
      if i >= n then Ok values
      else
        match d.types.(i), values.(i) with
        | Vtype.Float, Value.VInt v ->
          values.(i) <- Value.float (float_of_int v);
          check (i + 1)
        | expected, v when Vtype.matches ~expected ~actual:(Value.type_of v) ->
          check (i + 1)
        | expected, v ->
          Error
            (Printf.sprintf "tuple: attribute %s expects %s, got %s"
               d.names.(i) (Vtype.to_string expected)
               (Vtype.to_string (Value.type_of v)))
    in
    check 0
  end

let make d values = of_array d (Array.of_list values)

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.get: index %d" i);
  t.(i)

let get_by_name t d name =
  match attr_index d name with
  | Some i -> Ok t.(i)
  | None -> Error (Printf.sprintf "tuple: no attribute %s" name)

let values t = Array.to_list t

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b
