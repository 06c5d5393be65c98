(** Abstract syntax of GaeaQL. *)

type literal =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool
  | L_date of int * int * int          (** DATE 'YYYY-MM-DD' or bare string *)
  | L_box of float * float * float * float

type expr =
  | E_lit of literal
  | E_attr of string * string          (** arg.attr *)
  | E_param of string                  (** $p *)
  | E_anyof of expr
  | E_apply of string * expr list

type comparison = C_eq | C_neq | C_lt | C_le | C_gt | C_ge

type predicate =
  | P_compare of string * comparison * literal   (** attr <op> literal *)
  | P_overlaps of string * literal               (** attr OVERLAPS box *)
  | P_at of string * literal                     (** attr AT date (same day) *)

type order = Asc | Desc

type select = {
  projection : string list;            (** [] = all attributes *)
  source : string;                     (** class or concept name *)
  where_ : predicate list;             (** implicitly ANDed *)
  order_by : (string * order) option;
  limit : int option;
}

type assertion_syntax =
  | A_expr of expr
  | A_card_eq of string * int
  | A_card_ge of string * int
  | A_common_space of string           (** COMMON(arg.spatialextent) *)
  | A_common_time of string

type arg_syntax = {
  sa_name : string;
  sa_setof : bool;
  sa_class : string;
  sa_card : (int * int option) option; (** CARD n or CARD n..m *)
}

type step_input_syntax =
  | SI_arg of string                   (** a compound argument name *)
  | SI_step of int                     (** STEP n (1-based): an earlier
                                           step's output *)

type step_syntax = {
  ss_process : string;
  ss_inputs : (string * step_input_syntax) list;
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
      args : arg_syntax list;
      params : (string * literal) list;
      assertions : assertion_syntax list;
      mappings : (string * expr) list;
      steps : step_syntax list;
          (** non-empty makes the process compound; mutually exclusive
              with params/assertions/mappings (enforced by the parser) *)
    }
  | Insert of { cls : string; values : (string * expr) list }
  | Delete of { cls : string; oid : int }
  | Select of select
  | Derive of { cls : string; at : literal option; need : int option }
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
