"""MiniLang: a small, deterministic, statically typed imperative language.

Programs are lists of functions over three types (int, bool, int[]).
The submodules provide parsing, static checking (`check_unit` accepts
or rejects a unit), canonical pretty-printing, a coverage tracing
interpreter, and JSON test-suite loading.
"""

from minirepair.minilang.nodes import (
    ArrayLit,
    AssignStmt,
    Binary,
    BoolLit,
    Call,
    ExprStmt,
    FunctionDef,
    IfStmt,
    IndexAssignStmt,
    IntLit,
    Len,
    LetStmt,
    ReturnStmt,
    SourceUnit,
    StatementId,
    Stmt,
    Unary,
    Var,
    WhileStmt,
    all_statement_ids,
    iter_statements,
    normalize,
    path_of,
    resolve_container,
)
from minirepair.minilang.errors import CheckError, MiniLangError, ParseError, SuiteError
from minirepair.minilang.parser import parse
from minirepair.minilang.checker import check_unit, typed_free_vars
from minirepair.minilang.printer import pretty_print, print_expr, print_stmt
from minirepair.minilang.interpreter import (
    BUDGET_EXHAUSTED,
    RETURNED,
    RUNTIME_ERROR,
    ExecutionResult,
    interpret,
)
from minirepair.minilang.testsuite import TestCase, load_suite, run_test, values_equal
