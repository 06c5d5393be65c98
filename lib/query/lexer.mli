(** Tokenizer for GaeaQL, the query language of the Fig 1 interpreter. *)

type token =
  | Ident of string       (** bare identifier (case preserved) *)
  | Keyword of string * string
      (** recognized keyword, uppercased, and its spelling as written *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string  (** '...' or "..." *)
  | Param of string       (** $name *)
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

val keywords : string list
(** All recognized keywords (uppercase). *)

val tokenize : string -> (token list, Gaea_core.Gaea_error.t) result
(** Comments run from [--] to end of line.  Identifiers matching a
    keyword (case-insensitive) become [Keyword]. *)

val token_to_string : token -> string
