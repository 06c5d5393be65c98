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

let[@inline] is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '-'

let[@inline] is_digit c = c >= '0' && c <= '9'

(* each identifier character in upper case, and '\000' for every other *)
let word_chars =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_ident_char c then Char.uppercase_ascii c else '\000')

(* The hash of a spelling, case folded: taken while an identifier is
   scanned, so a keyword is found without copying or uppercasing it. *)
let[@inline] fold_upper h u = (h * 31) + Char.code u

(* Keywords by case-insensitive spelling, open addressing: a slot holds
   a keyword's uppercase string, or "" *)
let slots = 256

let keyword_slots =
  let table = Array.make slots "" in
  let rec place k i =
    if table.(i) = "" then table.(i) <- k else place k ((i + 1) land (slots - 1))
  in
  List.iter (fun k -> place k (String.fold_left fold_upper 0 k land (slots - 1))) keywords;
  table

(* 0 if [src.[start..start+len)] does not spell the keyword [k], 1 if it
   spells it in another case, [exact] (2) if as [k] is written *)
let rec spells k src start len i exact =
  if i = len then exact
  else
    let c = String.unsafe_get src (start + i) and u = String.unsafe_get k i in
    if c = u then spells k src start len (i + 1) exact
    else if Char.uppercase_ascii c = u then spells k src start len (i + 1) 1
    else 0

(* The word [src.[start..start+len)], probing the keyword table from
   slot [i]: a keyword written in upper case is spelled by the
   keyword's own string, and only other spellings are copied. *)
let rec word_token src start len i =
  let k = Array.unsafe_get keyword_slots i in
  let next_slot = (i + 1) land (slots - 1) in
  if String.length k = 0 then Ident (String.sub src start len)
  else if String.length k <> len then word_token src start len next_slot
  else
    match spells k src start len 0 2 with
    | 0 -> word_token src start len next_slot
    | 2 -> Keyword (k, k)
    | _ -> Keyword (k, String.sub src start len)

exception Lex_error of string

type cursor = { src : string; len : int; mutable pos : int }

let cursor src = { src; len = String.length src; pos = 0 }

(* the character at [i], or '\000' past the end (never a character any
   test below asks for) *)
let[@inline] at cur i = if i < cur.len then String.unsafe_get cur.src i else '\000'

let rec digits_end cur i = if is_digit (at cur i) then digits_end cur (i + 1) else i

(* the value of [src.[i..j)], all digits, short enough not to overflow *)
let rec digits_value src i j acc =
  if i = j then acc
  else digits_value src (i + 1) j ((acc * 10) + Char.code (String.unsafe_get src i) - 48)

(* 10^k for k <= 22: every one is exact in a double *)
let powers_of_ten = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* An int literal of up to 18 digits cannot overflow; a longer one (or
   one with leading zeros) is read by [int_of_string], whose bounds and
   error stay the literal's. *)
let int_literal src start neg d0 d1 =
  if d1 - d0 <= 18 then
    let v = digits_value src d0 d1 0 in
    Int_lit (if neg then -v else v)
  else
    let text = String.sub src start (d1 - start) in
    match int_of_string_opt text with
    | Some i -> Int_lit i
    | None -> raise_notrace (Lex_error ("bad int literal " ^ text))

(* A float literal whose digits [m] fit in 2^53 and whose decimal
   exponent [k] is within ±22 is [m * 10^k] or [m / 10^-k]: one
   operation on exact operands, so the correctly rounded value
   [float_of_string] returns.  Any other is read by [float_of_string]. *)
let float_literal src start neg d0 d1 f1 e0 e1 =
  let frac = if f1 > d1 then f1 - d1 - 1 else 0 in
  let exp_digits = e1 - e0 in
  let has_exp = e0 > f1 in
  let digits = d1 - d0 + frac in
  let fast =
    digits <= 16 && ((not has_exp) || (exp_digits >= 1 && exp_digits <= 4))
  in
  let m = if fast then digits_value src (f1 - frac) f1 (digits_value src d0 d1 0) else 0 in
  let k =
    if not (fast && has_exp) then -frac
    else
      let e = digits_value src e0 e1 0 in
      (if String.unsafe_get src (e0 - 1) = '-' then -e else e) - frac
  in
  if fast && m <= 1 lsl 53 && k >= -22 && k <= 22 then
    let v =
      if k >= 0 then float_of_int m *. Array.unsafe_get powers_of_ten k
      else float_of_int m /. Array.unsafe_get powers_of_ten (-k)
    in
    Float_lit (if neg then -.v else v)
  else
    let text = String.sub src start (e1 - start) in
    match float_of_string_opt text with
    | Some f -> Float_lit f
    | None -> raise_notrace (Lex_error ("bad float literal " ^ text))

(* [-]digits[.digits][(e|E)[+|-]digits] from [start] *)
let number cur start =
  let src = cur.src in
  let neg = String.unsafe_get src start = '-' in
  let d0 = if neg then start + 1 else start in
  let d1 = digits_end cur d0 in
  let f1 =
    if at cur d1 = '.' && is_digit (at cur (d1 + 1)) then digits_end cur (d1 + 1)
    else d1
  in
  match at cur f1 with
  | 'e' | 'E' ->
    let e0 = match at cur (f1 + 1) with '+' | '-' -> f1 + 2 | _ -> f1 + 1 in
    let e1 = digits_end cur e0 in
    cur.pos <- e1;
    float_literal src start neg d0 d1 f1 e0 e1
  | _ ->
    cur.pos <- f1;
    if f1 > d1 then float_literal src start neg d0 d1 f1 f1 f1
    else int_literal src start neg d0 d1

(* the end of the identifier characters from [i], left in [cur.pos];
   returns the spelling's case-folded hash, taken on the way *)
let rec scan_word cur i h =
  let u = String.unsafe_get word_chars (Char.code (at cur i)) in
  if u <> '\000' then scan_word cur (i + 1) (fold_upper h u)
  else begin
    cur.pos <- i;
    h
  end

(* an identifier or keyword from [start] *)
let word cur start =
  let h = scan_word cur start 0 in
  word_token cur.src start (cur.pos - start) (h land (slots - 1))

let rec line_end cur i =
  if i < cur.len && String.unsafe_get cur.src i <> '\n' then line_end cur (i + 1) else i

(* the token [k] characters long at the cursor *)
let[@inline] token cur k tok =
  cur.pos <- cur.pos + k;
  tok

let rec next cur =
  let src = cur.src in
  let i = cur.pos in
  if i >= cur.len then Eof
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\n' | '\r' ->
      cur.pos <- i + 1;
      next cur
    | '-' when at cur (i + 1) = '-' ->
      (* comment to end of line *)
      cur.pos <- line_end cur i;
      next cur
    | '(' -> token cur 1 Lparen
    | ')' -> token cur 1 Rparen
    | ',' -> token cur 1 Comma
    | ';' -> token cur 1 Semicolon
    | '.' -> token cur 1 Dot
    | '*' -> token cur 1 Star
    | '=' -> token cur 1 Eq
    | '<' ->
      (match at cur (i + 1) with
       | '=' -> token cur 2 Le
       | '>' -> token cur 2 Neq
       | _ -> token cur 1 Lt)
    | '>' -> if at cur (i + 1) = '=' then token cur 2 Ge else token cur 1 Gt
    | '!' when at cur (i + 1) = '=' -> token cur 2 Neq
    | ('\'' | '"') as q ->
      (match String.index_from src (i + 1) q with
       | j ->
         cur.pos <- j + 1;
         String_lit (String.sub src (i + 1) (j - i - 1))
       | exception Not_found ->
         raise_notrace (Lex_error "unterminated string literal"))
    | '$' ->
      ignore (scan_word cur (i + 1) 0);
      if cur.pos = i + 1 then raise_notrace (Lex_error "empty parameter name");
      Param (String.sub src (i + 1) (cur.pos - i - 1))
    | '0' .. '9' -> number cur i
    | '-' when is_digit (at cur (i + 1)) -> number cur i
    | c when is_ident_start c -> word cur i
    | c -> raise_notrace (Lex_error (Printf.sprintf "unexpected character %C" c))

let tokenize src =
  let cur = cursor src in
  (* in source order, without a reversing copy *)
  let[@tail_mod_cons] rec all () =
    match next cur with Eof -> [ Eof ] | tok -> tok :: all ()
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
