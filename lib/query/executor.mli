(** Statement execution (the Executor box of Fig 1). *)

type t
(** A session: kernel + experiment manager + current experiment. *)

type response =
  | Message of string
  | Rows of {
      columns : string list;
          (** The projected attributes.  Each row's OID comes first, so a
              projected [oid] is not repeated here. *)
      rows : (Gaea_storage.Oid.t * (string * Gaea_adt.Value.t) list) list;
    }

val create : ?kernel:Gaea_core.Kernel.t -> unit -> t
val kernel : t -> Gaea_core.Kernel.t
val experiments : t -> Gaea_core.Experiment.manager

val execute : t -> Ast.statement -> (response, Gaea_core.Gaea_error.t) result
(** DERIVE statements record their tasks into the current experiment
    (after BEGIN EXPERIMENT).  In a SELECT, [oid] in the projection or
    ORDER BY names the row's OID; any other attribute in the
    projection, WHERE or ORDER BY that no source class has is an
    [Unknown_attribute] error. *)

val outcome_message : Gaea_core.Derivation.outcome -> string
(** A DERIVE's reply: an ["objects: [o1, o2, ...]"] line, then one line
    per trace step. *)

val format_response : response -> string
