module Vtype = Gaea_adt.Vtype

type attribute = {
  a_name : string;
  a_type : Vtype.t;
  a_doc : string;
}

type kind =
  | Base
  | Derived of string

type t = {
  c_name : string;
  attributes : attribute list;
  spatial_attr : string option;
  temporal_attr : string option;
  kind : kind;
  c_doc : string;
}

let find_attr attrs name = List.find_opt (fun a -> a.a_name = name) attrs

let resolve_extent attrs ~given ~conventional ~expected ~what =
  match given with
  | Some name ->
    (match find_attr attrs name with
     | None -> Gaea_error.err (Printf.sprintf "%s attribute %s not declared" what name)
     | Some a ->
       if Vtype.equal a.a_type expected then Ok (Some name)
       else
         Gaea_error.err
           (Printf.sprintf "%s attribute %s must have type %s, has %s" what
              name (Vtype.to_string expected) (Vtype.to_string a.a_type)))
  | None ->
    (match find_attr attrs conventional with
     | Some a when Vtype.equal a.a_type expected -> Ok (Some conventional)
     | Some _ | None -> Ok None)

let define ~name ?(doc = "") ~attributes ?spatial ?temporal ?derived_by () =
  if name = "" then Gaea_error.err "class: empty name"
  else if attributes = [] then Gaea_error.err (name ^ ": no attributes")
  else begin
    let attrs =
      List.map (fun (n, ty) -> { a_name = n; a_type = ty; a_doc = "" }) attributes
    in
    let rec dup_check seen = function
      | [] -> Ok ()
      | a :: rest ->
        if a.a_name = "" then Gaea_error.err (name ^ ": empty attribute name")
        else if List.mem a.a_name seen then
          Gaea_error.err (Printf.sprintf "%s: duplicate attribute %s" name a.a_name)
        else dup_check (a.a_name :: seen) rest
    in
    match dup_check [] attrs with
    | Error _ as e -> e
    | Ok () ->
      (match
         resolve_extent attrs ~given:spatial ~conventional:"spatialextent"
           ~expected:Vtype.Box ~what:"spatial"
       with
       | Error _ as e -> e
       | Ok spatial_attr ->
         (match
            resolve_extent attrs ~given:temporal ~conventional:"timestamp"
              ~expected:Vtype.Abstime ~what:"temporal"
          with
          | Error _ as e -> e
          | Ok temporal_attr ->
            Ok
              { c_name = name;
                attributes = attrs;
                spatial_attr;
                temporal_attr;
                kind =
                  (match derived_by with
                   | None -> Base
                   | Some p -> Derived p);
                c_doc = doc }))
  end


let is_derived t =
  match t.kind with
  | Derived _ -> true
  | Base -> false

let derived_by t =
  match t.kind with
  | Derived p -> Some p
  | Base -> None

let attribute t name = find_attr t.attributes name
let attr_type t name = Option.map (fun a -> a.a_type) (attribute t name)
let attr_names t = List.map (fun a -> a.a_name) t.attributes

let storage_attrs t = List.map (fun a -> (a.a_name, a.a_type)) t.attributes

let pp fmt t =
  let is_extent n = Some n = t.spatial_attr || Some n = t.temporal_attr in
  Format.fprintf fmt "@[<v 2>CLASS %s (" t.c_name;
  Format.fprintf fmt "@ ATTRIBUTES:";
  List.iter
    (fun a ->
      if not (is_extent a.a_name) then
        Format.fprintf fmt "@   %s = %s;" a.a_name (Vtype.to_string a.a_type))
    t.attributes;
  (match t.spatial_attr with
   | Some n -> Format.fprintf fmt "@ SPATIAL EXTENT:@   %s = box;" n
   | None -> ());
  (match t.temporal_attr with
   | Some n -> Format.fprintf fmt "@ TEMPORAL EXTENT:@   %s = abstime;" n
   | None -> ());
  (match t.kind with
   | Derived p -> Format.fprintf fmt "@ DERIVED BY: %s" p
   | Base -> ());
  Format.fprintf fmt "@]@ )"
