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

type cursor
(** A position in a source string, advanced one token at a time. *)

val cursor : string -> cursor
(** A cursor at the start of the string. *)

exception Lex_error of string

val next : cursor -> token
(** The token at the cursor, which moves past it; [Eof] at the end, and
    again on every later call.  Comments run from [--] to end of line.
    Identifiers matching a keyword (case-insensitive) become [Keyword],
    whose uppercase string is the one in {!keywords}, and so is its
    spelling when written in upper case.  Raises [Lex_error] on a
    malformed token. *)

val tokenize : string -> (token list, Gaea_core.Gaea_error.t) result
(** Every token of the string, through [Eof], or the first lex error. *)

val token_to_string : token -> string
