(* The reference front end for the one-pass parser property in
   test_query: the token-list lexer and parser GaeaQL ran before the
   parser pulled its tokens from a cursor, and the DATE literal reader
   of that time.  The whole input is tokenized first, so a lex error
   anywhere beats an earlier syntax error; [Parser.parse] must return
   what this returns, error text included. *)

open Gaea_query

module Abstime = struct
  include Gaea_geo.Abstime

  let of_string s =
    let s = String.trim s in
    let parse_date ds =
      match String.split_on_char '-' ds with
      | [ y; m; d ] ->
        (match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
         | Some y, Some m, Some d when is_valid_date y m d -> Some (y, m, d)
         | _ -> None)
      | _ -> None
    in
    let parse_time ts =
      match String.split_on_char ':' ts with
      | [ h; m; s ] ->
        (match int_of_string_opt h, int_of_string_opt m, int_of_string_opt s with
         | Some h, Some m, Some s
           when h >= 0 && h < 24 && m >= 0 && m < 60 && s >= 0 && s < 60 ->
           Some (h, m, s)
         | _ -> None)
      | _ -> None
    in
    let split_at c =
      match String.index_opt s c with
      | Some i ->
        Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> None
    in
    match split_at 'T' with
    | Some (ds, ts) ->
      (match parse_date ds, parse_time ts with
       | Some (y, m, d), Some (hh, mm, ss) -> Some (of_ymd_hms y m d hh mm ss)
       | _ -> None)
    | None ->
      (match split_at ' ' with
       | Some (ds, ts) ->
         (match parse_date ds, parse_time ts with
          | Some (y, m, d), Some (hh, mm, ss) -> Some (of_ymd_hms y m d hh mm ss)
          | _ -> None)
       | None ->
         (match parse_date s with
          | Some (y, m, d) -> Some (of_ymd y m d)
          | None -> None))
end

module Lexer = struct
  module Gaea_error = Gaea_core.Gaea_error
  type token =
    | Ident of string
    | Keyword of string * string
    | Int_lit of int
    | Float_lit of float
    | String_lit of string
    | Param of string
    | Lparen
    | Rparen
    | Comma
    | Semicolon
    | Dot
    | Eq
    | Neq
    | Lt
    | Le
    | Gt
    | Ge
    | Star
    | Eof

  let keywords =
    [ "DEFINE"; "CLASS"; "CONCEPT"; "PROCESS"; "OUTPUT"; "ARGS"; "SETOF";
      "CARD"; "PARAM"; "ASSERT"; "MAP"; "END"; "MEMBERS"; "ISA"; "INSERT";
      "INTO"; "SELECT"; "FROM"; "WHERE"; "AND"; "DERIVE"; "AT"; "NEED";
      "SHOW"; "LINEAGE"; "CLASSES"; "PROCESSES"; "CONCEPTS"; "TASKS";
      "OPERATORS"; "FOR"; "PLAN"; "VERIFY"; "TASK"; "COMPARE"; "ANYOF";
      "COMMON"; "SPATIAL"; "TEMPORAL"; "DERIVED"; "BY"; "OVERLAPS"; "LIMIT";
      "ORDER"; "ASC"; "DESC"; "TRUE"; "FALSE"; "BOX"; "DATE"; "NET";
      "EXPERIMENT"; "BEGIN"; "NOTE"; "REPRODUCE"; "COUNT"; "VERSIONS"; "OF";
      "EVENTS"; "DELETE"; "CHECK"; "ALL"; "STEP"; "REFRESH"; "STALE"; "CACHE" ]

  (* Keywords by case-insensitive spelling: a lookup hashes and compares
     the identifier as written, without uppercasing a copy, and returns
     the keyword's own uppercase string. *)
  let rec same_upper_from a b i =
    i = String.length a
    || Char.uppercase_ascii (String.unsafe_get a i)
       = Char.uppercase_ascii (String.unsafe_get b i)
       && same_upper_from a b (i + 1)

  module Spelling = Hashtbl.Make (struct
    type t = string

    let equal a b =
      String.length a = String.length b && same_upper_from a b 0

    let hash s =
      let h = ref 0 in
      for i = 0 to String.length s - 1 do
        h := (!h * 31) + Char.code (Char.uppercase_ascii (String.unsafe_get s i))
      done;
      !h land max_int
  end)

  let keyword_table =
    let t = Spelling.create 128 in
    List.iter (fun k -> Spelling.replace t k k) keywords;
    t

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c =
    is_ident_start c || (c >= '0' && c <= '9') || c = '-'

  let is_digit c = c >= '0' && c <= '9'

  exception Lex_error of string

  let tokenize src =
    let n = String.length src in
    let pos = ref 0 in
    (* the character [k] ahead, or '\000' past the end (never a character
       any test below asks for) *)
    let peek k = if !pos + k < n then String.unsafe_get src (!pos + k) else '\000' in
    let skip_while p =
      while !pos < n && p (String.unsafe_get src !pos) do
        incr pos
      done
    in
    let advance k tok = pos := !pos + k; tok in
    let fail msg = raise_notrace (Lex_error msg) in
    let rec next () =
      if !pos >= n then Eof
      else
        let c = String.unsafe_get src !pos in
        if c = ' ' || c = '\t' || c = '\n' || c = '\r' then (incr pos; next ())
        else if c = '-' && peek 1 = '-' then begin
          (* comment to end of line *)
          skip_while (fun c -> c <> '\n');
          next ()
        end
        else if c = '(' then advance 1 Lparen
        else if c = ')' then advance 1 Rparen
        else if c = ',' then advance 1 Comma
        else if c = ';' then advance 1 Semicolon
        else if c = '.' then advance 1 Dot
        else if c = '*' then advance 1 Star
        else if c = '=' then advance 1 Eq
        else if c = '<' then begin
          if peek 1 = '=' then advance 2 Le
          else if peek 1 = '>' then advance 2 Neq
          else advance 1 Lt
        end
        else if c = '>' then (if peek 1 = '=' then advance 2 Ge else advance 1 Gt)
        else if c = '!' && peek 1 = '=' then advance 2 Neq
        else if c = '\'' || c = '"' then begin
          let start = !pos + 1 in
          pos := start;
          while !pos < n && String.unsafe_get src !pos <> c do
            incr pos
          done;
          if !pos >= n then fail "unterminated string literal";
          let text = String.sub src start (!pos - start) in
          advance 1 (String_lit text)
        end
        else if c = '$' then begin
          incr pos;
          let start = !pos in
          skip_while is_ident_char;
          if !pos = start then fail "empty parameter name";
          Param (String.sub src start (!pos - start))
        end
        else if is_digit c || (c = '-' && is_digit (peek 1)) then begin
          let start = !pos in
          if c = '-' then incr pos;
          skip_while is_digit;
          let is_float = ref false in
          if !pos < n && src.[!pos] = '.' && is_digit (peek 1) then begin
            is_float := true;
            incr pos;
            skip_while is_digit
          end;
          if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
            is_float := true;
            incr pos;
            if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
            skip_while is_digit
          end;
          let text = String.sub src start (!pos - start) in
          if !is_float then
            match float_of_string_opt text with
            | Some f -> Float_lit f
            | None -> fail ("bad float literal " ^ text)
          else
            match int_of_string_opt text with
            | Some i -> Int_lit i
            | None -> fail ("bad int literal " ^ text)
        end
        else if is_ident_start c then begin
          let start = !pos in
          skip_while is_ident_char;
          let text = String.sub src start (!pos - start) in
          match Spelling.find keyword_table text with
          | upper -> Keyword (upper, text)
          | exception Not_found -> Ident text
        end
        else fail (Printf.sprintf "unexpected character %C" c)
    in
    (* in source order, without a reversing copy *)
    let[@tail_mod_cons] rec all () =
      match next () with Eof -> [ Eof ] | tok -> tok :: all ()
    in
    match all () with
    | toks -> Ok toks
    | exception Lex_error e -> Error (Gaea_error.Parse_error e)

  let token_to_string = function
    | Ident s -> s
    | Keyword (s, _) -> s
    | Int_lit i -> string_of_int i
    | Float_lit f -> Printf.sprintf "%g" f
    | String_lit s -> Printf.sprintf "'%s'" s
    | Param s -> "$" ^ s
    | Lparen -> "("
    | Rparen -> ")"
    | Comma -> ","
    | Semicolon -> ";"
    | Dot -> "."
    | Eq -> "="
    | Neq -> "<>"
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | Star -> "*"
    | Eof -> "<eof>"
end

module Parser = struct
  module Gaea_error = Gaea_core.Gaea_error
  module Template = Gaea_core.Template
  module Process = Gaea_core.Process
  module Value = Gaea_adt.Value
  module Box = Gaea_geo.Box
  open Ast

  type state = {
    mutable toks : Lexer.token list;
  }

  exception Syntax of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt

  let peek st =
    match st.toks with
    | t :: _ -> t
    | [] -> Lexer.Eof

  let advance st =
    match st.toks with
    | _ :: rest -> st.toks <- rest
    | [] -> ()

  let next st =
    let t = peek st in
    advance st;
    t

  let expect st tok what =
    let t = next st in
    if t <> tok then
      fail "expected %s, found %s" what (Lexer.token_to_string t)

  let is_kw kw = function Lexer.Keyword (k, _) -> k = kw | _ -> false

  let expect_kw st kw =
    let t = next st in
    if not (is_kw kw t) then
      fail "expected %s, found %s" kw (Lexer.token_to_string t)

  let accept st tok =
    if peek st = tok then begin
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

  (* DATE 'YYYY-MM-DD': midnight of that day *)
  let date st =
    expect_kw st "DATE";
    let s = string_lit st in
    match Abstime.of_string s with
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
         if peek st <> Lexer.Rparen then begin
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

  let parse src =
    match Lexer.tokenize src with
    | Error e -> Error e
    | Ok toks ->
      let st = { toks } in
      (try
         let stmts = ref [] in
         while peek st <> Lexer.Eof do
           stmts := statement st :: !stmts;
           (* statements are ; separated; trailing ; optional before EOF *)
           if peek st <> Lexer.Eof then expect st Lexer.Semicolon ";"
           else ();
           (* swallow extra semicolons *)
           while accept st Lexer.Semicolon do
             ()
           done
         done;
         Ok (List.rev !stmts)
       with Syntax m -> Error (Gaea_error.Parse_error m))

  let parse_one src =
    match parse src with
    | Error _ as e -> e
    | Ok [ s ] -> Ok s
    | Ok [] -> Error (Gaea_error.Parse_error "empty input")
    | Ok _ -> Error (Gaea_error.Parse_error "expected exactly one statement")
end
