module Gaea_error = Gaea_core.Gaea_error
module Template = Gaea_core.Template
module Process = Gaea_core.Process
module Value = Gaea_adt.Value
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box
open Ast

(* One token of lookahead, pulled from the cursor on demand: no token
   list is built.  Tokens are told apart by pattern matching, or by [==]
   on constant constructors. *)
type state = {
  cur : Lexer.cursor;
  mutable tok : Lexer.token;
}

exception Syntax of string

let fail fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt

let peek st = st.tok

let advance st = st.tok <- Lexer.next st.cur

let next st =
  let t = st.tok in
  advance st;
  t

(* [tok] is a constant constructor *)
let expect st tok what =
  let t = next st in
  if t != tok then
    fail "expected %s, found %s" what (Lexer.token_to_string t)

let is_kw kw = function Lexer.Keyword (k, _) -> String.equal k kw | _ -> false

let expect_kw st kw =
  let t = next st in
  if not (is_kw kw t) then
    fail "expected %s, found %s" kw (Lexer.token_to_string t)

(* [tok] is a constant constructor *)
let accept st tok =
  if st.tok == tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw =
  if is_kw kw (peek st) then begin
    advance st;
    true
  end
  else false

let ident st =
  match next st with
  | Lexer.Ident s -> s
  | Lexer.Keyword (_, s) -> s (* a keyword as a name keeps its spelling *)
  | t -> fail "expected identifier, found %s" (Lexer.token_to_string t)

let int_lit st =
  match next st with
  | Lexer.Int_lit i -> i
  | t -> fail "expected integer, found %s" (Lexer.token_to_string t)

let string_lit st =
  match next st with
  | Lexer.String_lit s -> s
  | t -> fail "expected string literal, found %s" (Lexer.token_to_string t)

let float_like st =
  match next st with
  | Lexer.Float_lit f -> f
  | Lexer.Int_lit i -> float_of_int i
  | t -> fail "expected number, found %s" (Lexer.token_to_string t)

(* DATE 'YYYY-MM-DD': midnight of that day; a date with a time of day
   is cut to its midnight *)
let date st =
  expect_kw st "DATE";
  let s = string_lit st in
  match Abstime.of_string s with
  | Some t when Abstime.to_seconds t mod 86400 = 0 -> t
  | Some t ->
    let y, m, d = Abstime.to_ymd t in
    Abstime.of_ymd y m d
  | None -> fail "bad date literal '%s' (expected YYYY-MM-DD)" s

let box st =
  expect_kw st "BOX";
  expect st Lexer.Lparen "(";
  let xmin = float_like st in
  expect st Lexer.Comma ",";
  let ymin = float_like st in
  expect st Lexer.Comma ",";
  let xmax = float_like st in
  expect st Lexer.Comma ",";
  let ymax = float_like st in
  expect st Lexer.Rparen ")";
  (* an inverted or non-finite box is a syntax error here, not an
     exception when the literal is evaluated *)
  match Box.make_checked ~xmin ~ymin ~xmax ~ymax with
  | Ok b -> b
  | Error e -> fail "%s" e

let literal st =
  match peek st with
  | Lexer.Keyword ("DATE", _) -> Value.abstime (date st)
  | Lexer.Keyword ("BOX", _) -> Value.box (box st)
  | _ ->
    (match next st with
     | Lexer.Int_lit i -> Value.int i
     | Lexer.Float_lit f -> Value.float f
     | Lexer.String_lit s -> Value.string s
     | Lexer.Keyword ("TRUE", _) -> Value.bool true
     | Lexer.Keyword ("FALSE", _) -> Value.bool false
     | t -> fail "expected literal, found %s" (Lexer.token_to_string t))

let rec expr st =
  match peek st with
  | Lexer.Param p ->
    advance st;
    Template.Param p
  | Lexer.Keyword ("ANYOF", _) ->
    advance st;
    Template.Anyof (expr st)
  | Lexer.Keyword ("BOX", _) | Lexer.Keyword ("DATE", _) | Lexer.Keyword ("TRUE", _)
  | Lexer.Keyword ("FALSE", _) | Lexer.Int_lit _ | Lexer.Float_lit _
  | Lexer.String_lit _ ->
    Template.Const (literal st)
  | Lexer.Ident name ->
    advance st;
    (match peek st with
     | Lexer.Dot ->
       advance st;
       let attr = ident st in
       Template.Attr_of (name, attr)
     | Lexer.Lparen ->
       advance st;
       let args = ref [] in
       if st.tok != Lexer.Rparen then begin
         args := [ expr st ];
         while accept st Lexer.Comma do
           args := expr st :: !args
         done
       end;
       expect st Lexer.Rparen ")";
       Template.Apply (name, List.rev !args)
     | _ -> fail "expected '.' or '(' after %s in expression" name)
  | t -> fail "unexpected %s in expression" (Lexer.token_to_string t)

let assertion st =
  match peek st with
  | Lexer.Keyword ("COMMON", _) ->
    advance st;
    expect st Lexer.Lparen "(";
    let arg = ident st in
    expect st Lexer.Dot ".";
    let attr = ident st in
    expect st Lexer.Rparen ")";
    Template.Common (arg, attr)
  | Lexer.Keyword ("CARD", _) ->
    advance st;
    expect st Lexer.Lparen "(";
    let arg = ident st in
    expect st Lexer.Rparen ")";
    (match next st with
     | Lexer.Eq -> Template.Card_eq (arg, int_lit st)
     | Lexer.Ge -> Template.Card_ge (arg, int_lit st)
     | t -> fail "expected = or >= after card(), found %s" (Lexer.token_to_string t))
  | _ -> Template.Expr_true (expr st)

let arg_spec st =
  let name = ident st in
  let setof = accept_kw st "SETOF" in
  let cls = ident st in
  let card_min, card_max =
    if accept_kw st "CARD" then begin
      if not setof then
        fail "CARD on argument %s needs SETOF: %s holds one object" name name;
      let lo = int_lit st in
      if accept st Lexer.Dot then begin
        expect st Lexer.Dot ".";
        (lo, Some (int_lit st))
      end
      else (lo, None)
    end
    else (1, None)
  in
  if setof then Process.setof_arg ~card_min ?card_max name cls
  else Process.scalar_arg name cls

let define_class st =
  let name = ident st in
  expect st Lexer.Lparen "(";
  let attrs = ref [] in
  let attr () =
    let a = ident st in
    let ty = ident st in
    attrs := (a, ty) :: !attrs
  in
  attr ();
  while accept st Lexer.Comma do
    attr ()
  done;
  expect st Lexer.Rparen ")";
  let spatial = if accept_kw st "SPATIAL" then Some (ident st) else None in
  let temporal = if accept_kw st "TEMPORAL" then Some (ident st) else None in
  let derived_by =
    if accept_kw st "DERIVED" then begin
      expect_kw st "BY";
      Some (ident st)
    end
    else None
  in
  Define_class
    { name; attrs = List.rev !attrs; spatial; temporal; derived_by }

let define_concept st =
  let name = ident st in
  let members = ref [] in
  if accept_kw st "MEMBERS" then begin
    expect st Lexer.Lparen "(";
    members := [ ident st ];
    while accept st Lexer.Comma do
      members := ident st :: !members
    done;
    expect st Lexer.Rparen ")"
  end;
  let isa = if accept_kw st "ISA" then Some (ident st) else None in
  Define_concept { name; members = List.rev !members; isa }

let define_process st =
  let name = ident st in
  expect_kw st "OUTPUT";
  let output = ident st in
  expect_kw st "ARGS";
  expect st Lexer.Lparen "(";
  let args = ref [ arg_spec st ] in
  while accept st Lexer.Comma do
    args := arg_spec st :: !args
  done;
  expect st Lexer.Rparen ")";
  let params = ref [] in
  while accept_kw st "PARAM" do
    let p = ident st in
    expect st Lexer.Eq "=";
    params := (p, literal st) :: !params
  done;
  (* compound body: STEP sub-proc (arg = <compound-arg> | STEP n, ...) *)
  let steps = ref [] in
  while accept_kw st "STEP" do
    let pname = ident st in
    expect st Lexer.Lparen "(";
    let inputs = ref [] in
    let binding () =
      let an = ident st in
      expect st Lexer.Eq "=";
      if accept_kw st "STEP" then begin
        let n = int_lit st in
        if n < 1 then fail "STEP references are numbered from 1";
        (* surface STEP n is 1-based; the core is 0-based *)
        inputs := (an, Process.From_step (n - 1)) :: !inputs
      end
      else inputs := (an, Process.From_arg (ident st)) :: !inputs
    in
    binding ();
    while accept st Lexer.Comma do
      binding ()
    done;
    expect st Lexer.Rparen ")";
    steps :=
      { Process.step_process = pname; step_inputs = List.rev !inputs }
      :: !steps
  done;
  let assertions = ref [] in
  while accept_kw st "ASSERT" do
    assertions := assertion st :: !assertions
  done;
  let mappings = ref [] in
  while accept_kw st "MAP" do
    let attr = ident st in
    expect st Lexer.Eq "=";
    mappings := { Template.target = attr; rhs = expr st } :: !mappings
  done;
  expect_kw st "END";
  if !steps <> [] && (!assertions <> [] || !mappings <> []) then
    fail "process %s: STEP clauses cannot mix with ASSERT/MAP" name;
  if !steps <> [] && !params <> [] then
    fail "process %s: a compound process cannot bind parameters" name;
  Define_process
    { name;
      output;
      args = List.rev !args;
      params = List.rev !params;
      assertions = List.rev !assertions;
      mappings = List.rev !mappings;
      steps = List.rev !steps }

let predicate st =
  let attr = ident st in
  match next st with
  | Lexer.Eq -> P_compare (attr, C_eq, literal st)
  | Lexer.Neq -> P_compare (attr, C_neq, literal st)
  | Lexer.Lt -> P_compare (attr, C_lt, literal st)
  | Lexer.Le -> P_compare (attr, C_le, literal st)
  | Lexer.Gt -> P_compare (attr, C_gt, literal st)
  | Lexer.Ge -> P_compare (attr, C_ge, literal st)
  | Lexer.Keyword ("OVERLAPS", _) -> P_overlaps (attr, box st)
  | Lexer.Keyword ("AT", _) -> P_at (attr, date st)
  | t -> fail "expected comparison after %s, found %s" attr (Lexer.token_to_string t)

let select st =
  let projection =
    if accept st Lexer.Star then []
    else begin
      let cols = ref [ ident st ] in
      while accept st Lexer.Comma do
        cols := ident st :: !cols
      done;
      List.rev !cols
    end
  in
  expect_kw st "FROM";
  let source = ident st in
  let where_ = ref [] in
  if accept_kw st "WHERE" then begin
    where_ := [ predicate st ];
    while accept_kw st "AND" do
      where_ := predicate st :: !where_
    done
  end;
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let attr = ident st in
      let dir =
        if accept_kw st "DESC" then Desc
        else begin
          ignore (accept_kw st "ASC");
          Asc
        end
      in
      Some (attr, dir)
    end
    else None
  in
  let limit =
    if accept_kw st "LIMIT" then begin
      let n = int_lit st in
      if n < 0 then fail "LIMIT needs a count of at least 0, found %d" n;
      Some n
    end
    else None
  in
  Select { projection; source; where_ = List.rev !where_; order_by; limit }

let statement st =
  match next st with
  | Lexer.Keyword ("DEFINE", _) ->
    (match next st with
     | Lexer.Keyword ("CLASS", _) -> define_class st
     | Lexer.Keyword ("CONCEPT", _) -> define_concept st
     | Lexer.Keyword ("PROCESS", _) -> define_process st
     | t -> fail "expected CLASS, CONCEPT or PROCESS, found %s" (Lexer.token_to_string t))
  | Lexer.Keyword ("INSERT", _) ->
    expect_kw st "INTO";
    let cls = ident st in
    expect st Lexer.Lparen "(";
    let values = ref [] in
    let pair () =
      let attr = ident st in
      expect st Lexer.Eq "=";
      values := (attr, expr st) :: !values
    in
    pair ();
    while accept st Lexer.Comma do
      pair ()
    done;
    expect st Lexer.Rparen ")";
    Insert { cls; values = List.rev !values }
  | Lexer.Keyword ("SELECT", _) -> select st
  | Lexer.Keyword ("DELETE", _) ->
    expect_kw st "FROM";
    let cls = ident st in
    let oid = int_lit st in
    Delete { cls; oid }
  | Lexer.Keyword ("DERIVE", _) ->
    let cls = ident st in
    let at = if accept_kw st "AT" then Some (date st) else None in
    let need =
      if accept_kw st "NEED" then begin
        let n = int_lit st in
        if n < 1 then fail "NEED needs a positive count, found %d" n;
        Some n
      end
      else None
    in
    Derive { cls; at; need }
  | Lexer.Keyword ("SHOW", _) ->
    (match next st with
     | Lexer.Keyword ("CLASSES", _) -> Show_classes
     | Lexer.Keyword ("PROCESSES", _) -> Show_processes
     | Lexer.Keyword ("CONCEPTS", _) -> Show_concepts
     | Lexer.Keyword ("TASKS", _) -> Show_tasks
     | Lexer.Keyword ("NET", _) -> Show_net
     | Lexer.Keyword ("EVENTS", _) -> Show_events
     | Lexer.Keyword ("STALE", _) -> Show_stale
     | Lexer.Keyword ("CACHE", _) -> Show_cache
     | Lexer.Keyword ("LINEAGE", _) -> Show_lineage (int_lit st)
     | Lexer.Keyword ("PLAN", _) -> Show_plan (ident st)
     | Lexer.Keyword ("VERSIONS", _) ->
       expect_kw st "OF";
       Show_versions (ident st)
     | Lexer.Keyword ("OPERATORS", _) ->
       if accept_kw st "FOR" then Show_operators (Some (ident st))
       else Show_operators None
     | t -> fail "unknown SHOW target %s" (Lexer.token_to_string t))
  | Lexer.Keyword ("VERIFY", _) ->
    if accept_kw st "TASK" then Verify_task (int_lit st)
    else Verify_object (int_lit st)
  | Lexer.Keyword ("COMPARE", _) ->
    let a = int_lit st in
    let b = int_lit st in
    Compare (a, b)
  | Lexer.Keyword ("BEGIN", _) ->
    expect_kw st "EXPERIMENT";
    Begin_experiment (ident st)
  | Lexer.Keyword ("NOTE", _) ->
    let e = ident st in
    Note { experiment = e; text = string_lit st }
  | Lexer.Keyword ("REPRODUCE", _) -> Reproduce (ident st)
  | Lexer.Keyword ("REFRESH", _) ->
    if accept_kw st "ALL" then Refresh_all
    else begin
      let cls = ident st in
      let oid = int_lit st in
      Refresh_object { cls; oid }
    end
  | Lexer.Keyword ("CHECK", _) ->
    if accept_kw st "ALL" then Check_all
    else begin
      expect_kw st "PROCESS";
      Check_process (ident st)
    end
  | t -> fail "unexpected %s at start of statement" (Lexer.token_to_string t)

(* The first lex error past a syntax error: the whole script must lex
   before a syntax error is reported. *)
let rec first_lex_error cur =
  match Lexer.next cur with
  | Lexer.Eof -> None
  | _ -> first_lex_error cur
  | exception Lexer.Lex_error e -> Some e

let parse src =
  let st = { cur = Lexer.cursor src; tok = Lexer.Eof } in
  let rec statements acc =
    if st.tok == Lexer.Eof then List.rev acc
    else begin
      let stmt = statement st in
      (* statements are ; separated; trailing ; optional before EOF *)
      if st.tok != Lexer.Eof then expect st Lexer.Semicolon ";";
      (* swallow extra semicolons *)
      while accept st Lexer.Semicolon do
        ()
      done;
      statements (stmt :: acc)
    end
  in
  match
    advance st;
    statements []
  with
  | stmts -> Ok stmts
  | exception Lexer.Lex_error e -> Error (Gaea_error.Parse_error e)
  | exception Syntax m ->
    Error (Gaea_error.Parse_error (Option.value ~default:m (first_lex_error st.cur)))

let parse_one src =
  match parse src with
  | Error _ as e -> e
  | Ok [ s ] -> Ok s
  | Ok [] -> Error (Gaea_error.Parse_error "empty input")
  | Ok _ -> Error (Gaea_error.Parse_error "expected exactly one statement")
