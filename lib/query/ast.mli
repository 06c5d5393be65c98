(** Abstract syntax of GaeaQL. *)

type comparison = C_eq | C_neq | C_lt | C_le | C_gt | C_ge

type predicate =
  | P_compare of string * comparison * Gaea_adt.Value.t
      (** attr <op> literal *)
  | P_overlaps of string * Gaea_geo.Box.t
      (** attr OVERLAPS BOX (...) *)
  | P_at of string * Gaea_geo.Abstime.t
      (** attr AT DATE '...': within a day of that midnight *)

type order = Asc | Desc

type select = {
  projection : string list;            (** [] = all attributes *)
  source : string;                     (** class or concept name *)
  where_ : predicate list;             (** implicitly ANDed *)
  order_by : (string * order) option;
  limit : int option;
}

type statement =
  | Define_class of {
      name : string;
      attrs : (string * string) list;  (** attr, type name *)
      spatial : string option;
      temporal : string option;
      derived_by : string option;
    }
  | Define_concept of {
      name : string;
      members : string list;
      isa : string option;
    }
  | Define_process of {
      name : string;
      output : string;
      args : Gaea_core.Process.arg_spec list;
      params : (string * Gaea_adt.Value.t) list;
      assertions : Gaea_core.Template.assertion list;
      mappings : Gaea_core.Template.mapping list;
      steps : Gaea_core.Process.step list;
          (** non-empty makes the process compound; mutually exclusive
              with params/assertions/mappings (enforced by the parser) *)
    }
  | Insert of { cls : string; values : (string * Gaea_core.Template.expr) list }
  | Delete of { cls : string; oid : int }
  | Select of select
  | Derive of { cls : string; at : Gaea_geo.Abstime.t option; need : int option }
  | Show_lineage of int
  | Show_classes
  | Show_processes
  | Show_versions of string
  | Show_concepts
  | Show_tasks
  | Show_operators of string option    (** FOR <type> *)
  | Show_plan of string
  | Show_net
  | Show_events
  | Show_stale                         (** SHOW STALE: the dirty set *)
  | Show_cache                         (** SHOW CACHE: reuse counters *)
  | Refresh_all                        (** REFRESH ALL *)
  | Refresh_object of { cls : string; oid : int }  (** REFRESH <cls> <oid> *)
  | Verify_object of int
  | Verify_task of int
  | Compare of int * int
  | Begin_experiment of string
  | Note of { experiment : string; text : string }
  | Reproduce of string
  | Check_process of string            (** CHECK PROCESS <name> *)
  | Check_all                          (** CHECK ALL *)

val statement_to_string : statement -> string
(** Short description for echoing, not a full pretty-printer. *)
