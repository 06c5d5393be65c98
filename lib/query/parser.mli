(** Recursive-descent parser for GaeaQL (the Parser box of Fig 1).

    Statement grammar (see README for the full reference):
    {v
    DEFINE CLASS name (attr type, ...) [SPATIAL a] [TEMPORAL a] [DERIVED BY p];
    DEFINE CONCEPT name [MEMBERS (c, ...)] [ISA super];
    DEFINE PROCESS name OUTPUT cls ARGS (a [SETOF] cls [CARD n[..m]], ...)
        [PARAM p = lit ...] [ASSERT assertion ...] MAP attr = expr ... END;
    INSERT INTO cls (attr = expr, ...);
    SELECT *|attrs FROM class-or-concept [WHERE pred AND ...]
        [ORDER BY attr [ASC|DESC]] [LIMIT n];
    DERIVE cls [AT date] [NEED n];
    SHOW CLASSES | PROCESSES | CONCEPTS | TASKS | NET | OPERATORS [FOR ty]
        | LINEAGE oid | PLAN cls | VERSIONS OF proc;
    VERIFY oid;  VERIFY TASK id;  COMPARE oid oid;
    BEGIN EXPERIMENT name;  NOTE name 'text';  REPRODUCE name;
    v}

    The parser builds the kernel's own values: literals are
    {!Gaea_adt.Value.t}, expressions, assertions and mappings
    {!Gaea_core.Template} terms, arguments and steps
    {!Gaea_core.Process} specs.  [AT] takes a [DATE] literal and
    [OVERLAPS] a [BOX]; [LIMIT] takes a count of at least 0 and [NEED] one
    of at least 1.  [COMMON(arg.attr)] keeps the attribute as written;
    whether it is the spatial or the temporal extent is decided against
    the argument's class when the guard is checked. *)

val parse : string -> (Ast.statement list, Gaea_core.Gaea_error.t) result
(** Parse a whole script (statements separated by [;]). *)

val parse_one : string -> (Ast.statement, Gaea_core.Gaea_error.t) result
