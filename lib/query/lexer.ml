module Gaea_error = Gaea_core.Gaea_error
type token =
  | Ident of string
  | Keyword of string * string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param of string
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Dot
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Star
  | Eof

let keywords =
  [ "DEFINE"; "CLASS"; "CONCEPT"; "PROCESS"; "OUTPUT"; "ARGS"; "SETOF";
    "CARD"; "PARAM"; "ASSERT"; "MAP"; "END"; "MEMBERS"; "ISA"; "INSERT";
    "INTO"; "SELECT"; "FROM"; "WHERE"; "AND"; "DERIVE"; "AT"; "NEED";
    "SHOW"; "LINEAGE"; "CLASSES"; "PROCESSES"; "CONCEPTS"; "TASKS";
    "OPERATORS"; "FOR"; "PLAN"; "VERIFY"; "TASK"; "COMPARE"; "ANYOF";
    "COMMON"; "SPATIAL"; "TEMPORAL"; "DERIVED"; "BY"; "OVERLAPS"; "LIMIT";
    "ORDER"; "ASC"; "DESC"; "TRUE"; "FALSE"; "BOX"; "DATE"; "NET";
    "EXPERIMENT"; "BEGIN"; "NOTE"; "REPRODUCE"; "COUNT"; "VERSIONS"; "OF";
    "EVENTS"; "DELETE"; "CHECK"; "ALL"; "STEP"; "REFRESH"; "STALE"; "CACHE" ]

(* Keywords by case-insensitive spelling: a lookup hashes and compares
   the identifier as written, without uppercasing a copy, and returns
   the keyword's own uppercase string. *)
let rec same_upper_from a b i =
  i = String.length a
  || Char.uppercase_ascii (String.unsafe_get a i)
     = Char.uppercase_ascii (String.unsafe_get b i)
     && same_upper_from a b (i + 1)

module Spelling = Hashtbl.Make (struct
  type t = string

  let equal a b =
    String.length a = String.length b && same_upper_from a b 0

  let hash s =
    let h = ref 0 in
    for i = 0 to String.length s - 1 do
      h := (!h * 31) + Char.code (Char.uppercase_ascii (String.unsafe_get s i))
    done;
    !h land max_int
end)

let keyword_table =
  let t = Spelling.create 128 in
  List.iter (fun k -> Spelling.replace t k k) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '-'

let is_digit c = c >= '0' && c <= '9'

exception Lex_error of string

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  (* the character [k] ahead, or '\000' past the end (never a character
     any test below asks for) *)
  let peek k = if !pos + k < n then String.unsafe_get src (!pos + k) else '\000' in
  let skip_while p =
    while !pos < n && p (String.unsafe_get src !pos) do
      incr pos
    done
  in
  let advance k tok = pos := !pos + k; tok in
  let fail msg = raise_notrace (Lex_error msg) in
  let rec next () =
    if !pos >= n then Eof
    else
      let c = String.unsafe_get src !pos in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then (incr pos; next ())
      else if c = '-' && peek 1 = '-' then begin
        (* comment to end of line *)
        skip_while (fun c -> c <> '\n');
        next ()
      end
      else if c = '(' then advance 1 Lparen
      else if c = ')' then advance 1 Rparen
      else if c = ',' then advance 1 Comma
      else if c = ';' then advance 1 Semicolon
      else if c = '.' then advance 1 Dot
      else if c = '*' then advance 1 Star
      else if c = '=' then advance 1 Eq
      else if c = '<' then begin
        if peek 1 = '=' then advance 2 Le
        else if peek 1 = '>' then advance 2 Neq
        else advance 1 Lt
      end
      else if c = '>' then (if peek 1 = '=' then advance 2 Ge else advance 1 Gt)
      else if c = '!' && peek 1 = '=' then advance 2 Neq
      else if c = '\'' || c = '"' then begin
        let start = !pos + 1 in
        pos := start;
        while !pos < n && String.unsafe_get src !pos <> c do
          incr pos
        done;
        if !pos >= n then fail "unterminated string literal";
        let text = String.sub src start (!pos - start) in
        advance 1 (String_lit text)
      end
      else if c = '$' then begin
        incr pos;
        let start = !pos in
        skip_while is_ident_char;
        if !pos = start then fail "empty parameter name";
        Param (String.sub src start (!pos - start))
      end
      else if is_digit c || (c = '-' && is_digit (peek 1)) then begin
        let start = !pos in
        if c = '-' then incr pos;
        skip_while is_digit;
        let is_float = ref false in
        if !pos < n && src.[!pos] = '.' && is_digit (peek 1) then begin
          is_float := true;
          incr pos;
          skip_while is_digit
        end;
        if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
          is_float := true;
          incr pos;
          if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
          skip_while is_digit
        end;
        let text = String.sub src start (!pos - start) in
        if !is_float then
          match float_of_string_opt text with
          | Some f -> Float_lit f
          | None -> fail ("bad float literal " ^ text)
        else
          match int_of_string_opt text with
          | Some i -> Int_lit i
          | None -> fail ("bad int literal " ^ text)
      end
      else if is_ident_start c then begin
        let start = !pos in
        skip_while is_ident_char;
        let text = String.sub src start (!pos - start) in
        match Spelling.find keyword_table text with
        | upper -> Keyword (upper, text)
        | exception Not_found -> Ident text
      end
      else fail (Printf.sprintf "unexpected character %C" c)
  in
  (* in source order, without a reversing copy *)
  let[@tail_mod_cons] rec all () =
    match next () with Eof -> [ Eof ] | tok -> tok :: all ()
  in
  match all () with
  | toks -> Ok toks
  | exception Lex_error e -> Error (Gaea_error.Parse_error e)

let token_to_string = function
  | Ident s -> s
  | Keyword (s, _) -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> Printf.sprintf "%g" f
  | String_lit s -> Printf.sprintf "'%s'" s
  | Param s -> "$" ^ s
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semicolon -> ";"
  | Dot -> "."
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Star -> "*"
  | Eof -> "<eof>"
