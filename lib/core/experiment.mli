(** The experiment manager (high-level semantics layer).

    "Experiments can be reproduced, allowing rapid and reliable
    confirmation of results.  Information exchange among scientists can
    be promoted." (Section 4.2).  An experiment groups the concepts under
    study, the tasks performed and free-text notes; reproduction
    re-executes every recorded task and checks the outputs byte-for-byte. *)

type t = private {
  e_name : string;
  e_doc : string;
  concepts : string list;
  task_ids : int list;         (** chronological *)
  notes : string list;         (** newest first *)
}

type manager

val create_manager : unit -> manager

val begin_experiment :
  manager -> name:string -> ?doc:string -> ?concepts:string list -> unit
  -> (unit, Gaea_error.t) result

val record_task : manager -> experiment:string -> int -> (unit, Gaea_error.t) result
val add_note : manager -> experiment:string -> string -> (unit, Gaea_error.t) result

val find : manager -> string -> t option
val all : manager -> t list

type reproduction = {
  total : int;
  reproduced : int;
  failures : (int * string) list;  (** task id, reason *)
}

val reproduce : manager -> Kernel.t -> experiment:string
  -> (reproduction, Gaea_error.t) result
(** Recompute every task of the experiment against the current store and
    compare with the recorded outputs. *)
