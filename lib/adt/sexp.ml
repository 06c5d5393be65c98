type t =
  | Atom of string
  | List of t list

let atom s = Atom s
let list l = List l

let needs_quoting s =
  s = ""
  || String.exists
       (function
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' -> true
         | _ -> false)
       s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec write buf = function
  | Atom s ->
    if needs_quoting s then Buffer.add_string buf (escape s)
    else Buffer.add_string buf s
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ' ';
        write buf item)
      items;
    Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

exception Parse_error of string

let parse_all s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let parse_quoted () =
    advance ();
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then raise (Parse_error "unterminated string")
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then raise (Parse_error "dangling escape");
          (match s.[!pos] with
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | c -> Buffer.add_char buf c);
          advance ();
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> false
      | _ -> true
    do
      advance ()
    done;
    Atom (String.sub s start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> raise (Parse_error "unterminated list")
        | Some ')' -> advance ()
        | Some _ ->
          items := parse_one () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
  in
  let results = ref [] in
  skip_ws ();
  while !pos < n do
    results := parse_one () :: !results;
    skip_ws ()
  done;
  List.rev !results

let of_string_many s =
  match parse_all s with
  | exception Parse_error msg -> Error msg
  | items -> Ok items

let of_string s =
  match of_string_many s with
  | Error _ as e -> e
  | Ok [ one ] -> Ok one
  | Ok [] -> Error "empty input"
  | Ok _ -> Error "more than one S-expression"
