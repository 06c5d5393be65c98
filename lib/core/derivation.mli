(** The derivation manager: executes the paper's query-answering
    sequence (Section 2.1.5) over the class-derivation Petri net.

    "The execution of a database query which involves the retrieval of a
    derived spatio-temporal concept is performed according to the
    following sequence: 1. direct data retrieval [...]; 2. data
    interpolation [...]; 3. data are computed, based on a derivation
    relationship.  Steps 2 and 3 are prioritized according to the
    user's needs." *)

type trace_step =
  | Retrieved_direct of string * Gaea_storage.Oid.t list
  | Interpolated of string * Gaea_storage.Oid.t
  | Fired of string * int * int  (** process name, version, task id *)

type outcome = {
  objects : Gaea_storage.Oid.t list;  (** the objects satisfying the request *)
  new_tasks : Task.t list;
      (** tasks this request recorded, in order: every derivation step
          fires a binding not fired before, so each records one *)
  trace : trace_step list;
}

val request :
  Kernel.t -> ?need:int -> string -> (outcome, Gaea_error.t) result
(** [request k cls] delivers [need] (default 1) objects of class [cls]:
    the stored objects first, in ascending OID order, then objects
    derived through backward chaining on the net for the deficit only.
    The deficit is planned from the unfired frontiers
    ([Kernel.tokens ~frontiers:true]): a step of a one-argument process
    draws objects it has not fired on, or new ones derived upstream.
    When the frontiers cannot meet the demand, the deficit is planned
    from the stored objects instead.  Fails with
    - [Error] when [cls] is unknown;
    - [Not_derivable] "no plan found" when neither plan exists (no
      object is derived);
    - [Not_derivable] "no valid binding found" when a step of the
      stored-object plan, or a step of a process without a frontier,
      finds no binding it has not fired yet whose guard holds, and
      ["remaining candidates already used"] says they had all fired;
    - the step's own error when evaluating or committing it fails.
    Objects derived before a failing step stay stored. *)

val derivation_plan :
  Kernel.t -> ?need:int -> string -> Gaea_petri.Backchain.plan option
(** The full plan for [need] objects, without executing it: the stored
    objects [request] returns as [Existing] sources, then the derivation
    it follows for the deficit. *)

val request_at :
  Kernel.t -> cls:string -> at:Gaea_geo.Abstime.t -> unit
  -> (outcome, Gaea_error.t) result
(** Temporal point query: an object of [cls] whose timestamp equals [at]
    (to the day).  Missing data trigger, in the paper's step order,
    temporal interpolation between the two nearest snapshots, then full
    derivation; when both fail, the derivation's error is returned.
    The class must have a temporal extent. *)

val recompute :
  Kernel.t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** {!Kernel.recompute_task}, which covers interpolation tasks too. *)
