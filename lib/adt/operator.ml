type signature = {
  params : Vtype.t list;
  variadic : Vtype.t option;
  returns : Vtype.t;
}

type t = {
  name : string;
  sig_ : signature;
  doc : string;
  impl : Value.t list -> (Value.t, string) result;
}

let make ~name ?(doc = "") ~params ?variadic ~returns impl =
  { name; sig_ = { params; variadic; returns }; doc; impl }

let name t = t.name
let doc t = t.doc
let signature t = t.sig_

let signature_to_string s =
  let fixed = List.map Vtype.to_string s.params in
  let args =
    match s.variadic with
    | None -> fixed
    | Some v -> fixed @ [ Vtype.to_string v ^ "..." ]
  in
  Printf.sprintf "(%s) -> %s" (String.concat ", " args)
    (Vtype.to_string s.returns)

let check_args t args =
  let s = t.sig_ in
  let n_fixed = List.length s.params in
  let n_args = List.length args in
  let arity_err () =
    Error
      (Printf.sprintf "%s: expected %s%d argument(s), got %d" t.name
         (if s.variadic = None then "" else "at least ")
         (n_fixed + if s.variadic = None then 0 else 1)
         n_args)
  in
  if n_args < n_fixed then arity_err ()
  else if s.variadic = None && n_args > n_fixed then arity_err ()
  else begin
    let rec check i params args =
      match params, args with
      | [], [] -> Ok ()
      | [], rest ->
        (match s.variadic with
         | None -> arity_err ()
         | Some vt ->
           let rec check_var i = function
             | [] -> Ok ()
             | v :: tl ->
               if Vtype.matches ~expected:vt ~actual:(Value.type_of v) then
                 check_var (i + 1) tl
               else
                 Error
                   (Printf.sprintf "%s: argument %d has type %s, expected %s"
                      t.name (i + 1)
                      (Vtype.to_string (Value.type_of v))
                      (Vtype.to_string vt))
           in
           check_var i rest)
      | p :: ps, v :: vs ->
        if Vtype.matches ~expected:p ~actual:(Value.type_of v) then
          check (i + 1) ps vs
        else
          Error
            (Printf.sprintf "%s: argument %d has type %s, expected %s" t.name
               (i + 1)
               (Vtype.to_string (Value.type_of v))
               (Vtype.to_string p))
      | _ :: _, [] -> arity_err ()
    in
    check 0 s.params args
  end

let apply t args =
  match check_args t args with
  | Error _ as e -> e
  | Ok () ->
    (try t.impl args with
     | Invalid_argument m | Failure m -> Error (t.name ^ ": " ^ m)
     | Out_of_memory -> Error (t.name ^ ": out of memory"))

let pp fmt t =
  Format.fprintf fmt "%s : %s" t.name (signature_to_string t.sig_)

let lift1 ~name ?doc a r f =
  make ~name ?doc ~params:[ a ] ~returns:r (fun args ->
      match args with
      | [ x ] -> f x
      | _ -> Error (name ^ ": arity"))

let lift2 ~name ?doc a b r f =
  make ~name ?doc ~params:[ a; b ] ~returns:r (fun args ->
      match args with
      | [ x; y ] -> f x y
      | _ -> Error (name ^ ": arity"))
