(** Physical plans (the Optimizer box of Fig 1).

    Two planning problems exist in Gaea: how to {e scan} stored objects
    (classic access-path selection) and how to {e materialize} missing
    derived data (retrieval vs interpolation vs derivation,
    Section 2.1.5 — "steps 2 and 3 are prioritized according to the
    user's needs"). *)

type access_path =
  | Index_eq of string * Gaea_adt.Value.t
  | Index_range of string * Gaea_adt.Value.t option * Gaea_adt.Value.t option
      (** B-tree range; on a box attribute, a window probe with both
          bounds the window *)
  | Full_scan

type select_plan = {
  classes : string list;          (** concept sources expand to members *)
  path : access_path;             (** for the first class; others scan *)
  residual : Ast.predicate list;  (** re-checked on every row *)
  est_rows : float;
  est_cost : float;               (** abstract row-touch units *)
}

type materialize_plan =
  | Stored of int                        (** enough objects already stored *)
  | Interpolate of { snapshots : int }   (** temporal interpolation *)
  | Derive of { firings : int; depth : int }
  | Impossible of string

val pp_access_path : Format.formatter -> access_path -> unit
val pp_select_plan : Format.formatter -> select_plan -> unit
val pp_materialize_plan : Format.formatter -> materialize_plan -> unit
val materialize_cost : pixels_per_object:float -> materialize_plan -> float
(** Abstract cost: retrieval ~ 1, interpolation ~ pixels, derivation ~
    firings × pixels. *)
