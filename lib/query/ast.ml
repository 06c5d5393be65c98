type comparison = C_eq | C_neq | C_lt | C_le | C_gt | C_ge

type predicate =
  | P_compare of string * comparison * Gaea_adt.Value.t
  | P_overlaps of string * Gaea_geo.Box.t
  | P_at of string * Gaea_geo.Abstime.t

type order = Asc | Desc

type select = {
  projection : string list;
  source : string;
  where_ : predicate list;
  order_by : (string * order) option;
  limit : int option;
}

type statement =
  | Define_class of {
      name : string;
      attrs : (string * string) list;
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
          (* non-empty makes the process compound; mutually exclusive
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
  | Show_operators of string option
  | Show_plan of string
  | Show_net
  | Show_events
  | Show_stale
  | Show_cache
  | Refresh_all
  | Refresh_object of { cls : string; oid : int }
  | Verify_object of int
  | Verify_task of int
  | Compare of int * int
  | Begin_experiment of string
  | Note of { experiment : string; text : string }
  | Reproduce of string
  | Check_process of string
  | Check_all

let statement_to_string = function
  | Define_class { name; _ } -> "DEFINE CLASS " ^ name
  | Define_concept { name; _ } -> "DEFINE CONCEPT " ^ name
  | Define_process { name; _ } -> "DEFINE PROCESS " ^ name
  | Insert { cls; _ } -> "INSERT INTO " ^ cls
  | Delete { cls; oid } -> Printf.sprintf "DELETE FROM %s %d" cls oid
  | Select { source; _ } -> "SELECT FROM " ^ source
  | Derive { cls; _ } -> "DERIVE " ^ cls
  | Show_lineage oid -> Printf.sprintf "SHOW LINEAGE %d" oid
  | Show_classes -> "SHOW CLASSES"
  | Show_processes -> "SHOW PROCESSES"
  | Show_versions p -> "SHOW VERSIONS OF " ^ p
  | Show_concepts -> "SHOW CONCEPTS"
  | Show_tasks -> "SHOW TASKS"
  | Show_operators None -> "SHOW OPERATORS"
  | Show_operators (Some t) -> "SHOW OPERATORS FOR " ^ t
  | Show_plan cls -> "SHOW PLAN " ^ cls
  | Show_net -> "SHOW NET"
  | Show_events -> "SHOW EVENTS"
  | Show_stale -> "SHOW STALE"
  | Show_cache -> "SHOW CACHE"
  | Refresh_all -> "REFRESH ALL"
  | Refresh_object { cls; oid } -> Printf.sprintf "REFRESH %s %d" cls oid
  | Verify_object oid -> Printf.sprintf "VERIFY %d" oid
  | Verify_task id -> Printf.sprintf "VERIFY TASK %d" id
  | Compare (a, b) -> Printf.sprintf "COMPARE %d %d" a b
  | Begin_experiment e -> "BEGIN EXPERIMENT " ^ e
  | Note { experiment; _ } -> "NOTE ON " ^ experiment
  | Reproduce e -> "REPRODUCE " ^ e
  | Check_process p -> "CHECK PROCESS " ^ p
  | Check_all -> "CHECK ALL"
