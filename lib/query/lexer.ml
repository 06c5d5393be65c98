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

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '-'

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let toks = ref [] in
  let err = ref None in
  let emit t = toks := t :: !toks in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  (try
     while !pos < n && !err = None do
       let c = src.[!pos] in
       if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
       else if c = '-' && peek 1 = Some '-' then begin
         (* comment to end of line *)
         while !pos < n && src.[!pos] <> '\n' do
           incr pos
         done
       end
       else if c = '(' then (emit Lparen; incr pos)
       else if c = ')' then (emit Rparen; incr pos)
       else if c = ',' then (emit Comma; incr pos)
       else if c = ';' then (emit Semicolon; incr pos)
       else if c = '.' then (emit Dot; incr pos)
       else if c = '*' then (emit Star; incr pos)
       else if c = '=' then (emit Eq; incr pos)
       else if c = '<' then begin
         if peek 1 = Some '=' then (emit Le; pos := !pos + 2)
         else if peek 1 = Some '>' then (emit Neq; pos := !pos + 2)
         else (emit Lt; incr pos)
       end
       else if c = '>' then begin
         if peek 1 = Some '=' then (emit Ge; pos := !pos + 2)
         else (emit Gt; incr pos)
       end
       else if c = '!' && peek 1 = Some '=' then (emit Neq; pos := !pos + 2)
       else if c = '\'' || c = '"' then begin
         let quote = c in
         let buf = Buffer.create 16 in
         incr pos;
         let closed = ref false in
         while !pos < n && not !closed do
           if src.[!pos] = quote then begin
             closed := true;
             incr pos
           end
           else begin
             Buffer.add_char buf src.[!pos];
             incr pos
           end
         done;
         if !closed then emit (String_lit (Buffer.contents buf))
         else err := Some "unterminated string literal"
       end
       else if c = '$' then begin
         incr pos;
         let start = !pos in
         while !pos < n && is_ident_char src.[!pos] do
           incr pos
         done;
         if !pos = start then err := Some "empty parameter name"
         else emit (Param (String.sub src start (!pos - start)))
       end
       else if is_digit c || (c = '-' && (match peek 1 with Some d -> is_digit d | None -> false)) then begin
         let start = !pos in
         if c = '-' then incr pos;
         while !pos < n && is_digit src.[!pos] do
           incr pos
         done;
         let is_float = ref false in
         if
           !pos < n && src.[!pos] = '.'
           && match peek 1 with Some d -> is_digit d | None -> false
         then begin
           is_float := true;
           incr pos;
           while !pos < n && is_digit src.[!pos] do
             incr pos
           done
         end;
         if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
           is_float := true;
           incr pos;
           if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
           while !pos < n && is_digit src.[!pos] do
             incr pos
           done
         end;
         let text = String.sub src start (!pos - start) in
         if !is_float then
           match float_of_string_opt text with
           | Some f -> emit (Float_lit f)
           | None -> err := Some ("bad float literal " ^ text)
         else (
           match int_of_string_opt text with
           | Some i -> emit (Int_lit i)
           | None -> err := Some ("bad int literal " ^ text))
       end
       else if is_ident_start c then begin
         let start = !pos in
         while !pos < n && is_ident_char src.[!pos] do
           incr pos
         done;
         let text = String.sub src start (!pos - start) in
         let upper = String.uppercase_ascii text in
         if List.mem upper keywords then emit (Keyword (upper, text))
         else emit (Ident text)
       end
       else err := Some (Printf.sprintf "unexpected character %C" c)
     done
   with Exit -> ());
  match !err with
  | Some e -> Error (Gaea_error.Parse_error e)
  | None -> Ok (List.rev (Eof :: !toks))

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
