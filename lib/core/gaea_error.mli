(** Typed errors for the Gaea kernel and query layers.

    Every fallible kernel API returns [('a, Gaea_error.t) result].  The
    constructors carry enough structure for callers to dispatch on the
    failure class (e.g. the CLI distinguishing "unknown oid" from
    "wrong class" on delete); {!to_string} renders the human-readable
    message.  String-payload constructors ([Invalid], [Eval_error], …)
    carry the full message verbatim so legacy call sites migrate
    without changing their wording. *)

type t =
  | Unknown_class of string
  | Unknown_process of { name : string; version : int option }
  | Unknown_object of int
  | Wrong_class of { oid : int; cls : string }
      (** The object exists but under a different class than named. *)
  | Unknown_concept of string
  | Unknown_task of int
  | Unknown_attribute of { source : string; attr : string }
      (** A query names an attribute that no class of its source (a
          class, or a concept's member classes) has. *)
  | Duplicate of { kind : string; name : string }
      (** [kind] is "class", "process", "concept", "task", … *)
  | Arity_mismatch of string
      (** Argument-cardinality violations (card_min/card_max). *)
  | Assertion_failed of string
      (** A process template assertion did not hold. *)
  | Type_error of string
  | Eval_error of string  (** Operator application / mapping evaluation. *)
  | Parse_error of string  (** GaeaQL or persisted-sexp syntax. *)
  | Storage_error of string  (** Wrapped [Gaea_storage] failure. *)
  | Io_error of string  (** File-system failure (persist, file-based data). *)
  | Not_derivable of string
      (** The derivation manager found no plan for a request. *)
  | Invalid of string  (** Catch-all for invariant violations. *)
  | Context of string * t
      (** [Context (where, e)]: [e] occurred while doing [where]. *)

val to_string : t -> string
(** Human-readable message; [Context] renders as ["where: inner"]. *)

val err : string -> ('a, t) result
(** [err msg] is [Error (Invalid msg)] — the migration helper for call
    sites whose message text is the whole story. *)

val map_m : ('a -> ('b, t) result) -> 'a list -> ('b list, t) result
(** [f] over the items in order, stopping at the first error. *)
