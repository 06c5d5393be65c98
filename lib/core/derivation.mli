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
    stored objects first, derivation through backward chaining on the
    net otherwise.  Fails with [Not_derivable] when no plan is found or
    a plan step finds no binding it has not fired yet; objects derived
    before such a failure stay stored. *)

val derivation_plan :
  Kernel.t -> ?need:int -> string -> Gaea_petri.Backchain.plan option
(** The plan [request] would follow, without executing it. *)

val request_at :
  Kernel.t -> cls:string -> at:Gaea_geo.Abstime.t -> unit
  -> (outcome, Gaea_error.t) result
(** Temporal point query: an object of [cls] whose timestamp equals [at]
    (to the day).  Missing data trigger, in the paper's step order,
    temporal interpolation between the two nearest snapshots, then full
    derivation; when both fail, the derivation's error is returned.
    The class must have a temporal extent. *)

val interpolate_values :
  Kernel.t -> cls:string -> at:Gaea_geo.Abstime.t
  -> Gaea_storage.Oid.t * Gaea_storage.Oid.t
  -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** The generic interpolation process (paper: "a generic derivation
    process which is applicable to many data types"): image attributes
    interpolate per pixel, float attributes linearly, everything else is
    copied from the temporally nearest input.  Exposed for the
    reproducibility checker. *)

val interpolation_process_name : string
(** The process name recorded on interpolation tasks (["interpolate"],
    version 0). *)

val recompute :
  Kernel.t -> Task.t -> ((string * Gaea_adt.Value.t) list, Gaea_error.t) result
(** {!Kernel.recompute_task} extended to interpolation tasks. *)
