"""AST node definitions, statement identity, structural paths and the
tree walks.

Every statement carries a StatementId assigned by `normalize`: the pair
(function name, pre-order index within that function), with indices
contiguous from 0. Ids are excluded from equality, so `==` on nodes and
units means structural equality. Structural paths address statements
positionally (block slot + index per nesting level) and survive edits
elsewhere in the tree, which is how modification points computed on the
original program are re-resolved against evolved variants.

This module owns the path format and the traversals; other modules go
through them rather than walking the tree themselves:

  statements   `iter_function_paths` (pre-order, with ids and paths),
               joined over a unit by `iter_statement_paths`;
               `iter_statements`, `normalize` and `path_of` read them
  paths        `resolve_container` (the block and index a path ends at);
               `resolve_path` reads it
  expressions  `walk_expr` (pre-order, left to right); `stmt_expr_nodes`
               applies it to a statement's own expressions
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

T_INT = "int"
T_BOOL = "bool"
T_INT_ARRAY = "int[]"

ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGIC_OPS = ("&&", "||")


class StatementId(NamedTuple):
    function: str
    index: int

    def __str__(self) -> str:
        return f"{self.function}:{self.index}"


# A path step is (slot, index): slot is "body" for function bodies and
# while bodies, "then"/"else" for if branches.
PathStep = tuple[str, int]
Path = tuple[PathStep, ...]


@dataclass
class Expr:
    loc: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Var(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Index(Expr):
    name: str
    index: Expr


@dataclass
class Len(Expr):
    arg: Expr


@dataclass
class Call(Expr):
    fn: str
    args: list[Expr]


@dataclass
class ArrayLit(Expr):
    items: list[Expr]


@dataclass
class Stmt:
    stmt_id: StatementId | None = field(default=None, compare=False, kw_only=True)
    loc: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)


@dataclass
class LetStmt(Stmt):
    name: str
    value: Expr


@dataclass
class AssignStmt(Stmt):
    name: str
    value: Expr


@dataclass
class IndexAssignStmt(Stmt):
    name: str
    index: Expr
    value: Expr


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] | None


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class ReturnStmt(Stmt):
    value: Expr


@dataclass
class ExprStmt(Stmt):
    value: Expr


def _without_caches(node) -> dict:
    return {k: v for k, v in node.__dict__.items() if not k.startswith("_")}


@dataclass
class FunctionDef:
    """A function. Attributes named with a leading underscore are caches
    derived from this function alone (and the unit's signatures, which no
    operator changes): the interpreter's compiled code (`_code`), and the
    repair operators' binding environments from `check_function` (`_envs`)
    and ingredient list (`_ingredients`). Copies, `clone` and pickles leave
    them out."""

    name: str
    params: list[tuple[str, str]]
    return_type: str
    body: list[Stmt]

    __getstate__ = _without_caches


@dataclass
class SourceUnit:
    """A program. Attributes named with a leading underscore are caches
    joined from its functions' own: the interpreter's name-to-code table
    (`_compiled`) and the repair operators' ingredient list
    (`_ingredients`). Copies and pickles leave them out."""

    functions: list[FunctionDef]
    source_name: str = field(default="<unit>", compare=False)

    def function(self, name: str) -> FunctionDef | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    __getstate__ = _without_caches


def clone(node):
    """A deep copy of a node tree (`FunctionDef`, `Stmt` or `Expr`).

    Copies every node and node list and shares the immutable leaves
    (names, literals, ids, locations); a tenth of `copy.deepcopy`'s cost.
    Trees never alias a node, so nothing needs a memo. Caches (attributes
    named with a leading underscore) are left out, as in a pickle.
    """
    new = object.__new__(type(node))
    for key, value in vars(node).items():
        if key[0] == "_":
            continue
        if isinstance(value, (Expr, Stmt)):
            value = clone(value)
        elif isinstance(value, list):
            value = [clone(item) if isinstance(item, (Expr, Stmt)) else item for item in value]
        new.__dict__[key] = value
    return new


def child_blocks(stmt: Stmt) -> list[tuple[str, list[Stmt]]]:
    """Nested blocks of a statement as (slot, block) pairs, in slot order."""
    if isinstance(stmt, IfStmt):
        blocks = [("then", stmt.then_body)]
        if stmt.else_body is not None:
            blocks.append(("else", stmt.else_body))
        return blocks
    if isinstance(stmt, WhileStmt):
        return [("body", stmt.body)]
    return []


def stmt_expr_nodes(stmt: Stmt) -> Iterator[Expr]:
    """Every node of a statement's own expressions, by `walk_expr`. An
    if/while has just its condition: nested statements are their own."""
    if isinstance(stmt, IndexAssignStmt):
        exprs = [stmt.index, stmt.value]
    elif isinstance(stmt, (IfStmt, WhileStmt)):
        exprs = [stmt.cond]
    else:
        value = getattr(stmt, "value", None)
        exprs = [value] if value is not None else []
    for expr in exprs:
        yield from walk_expr(expr)


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression, pre-order, left to right. The repair
    operators number their sites in this order."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, Index):
        yield from walk_expr(expr.index)
    elif isinstance(expr, Len):
        yield from walk_expr(expr.arg)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, ArrayLit):
        for item in expr.items:
            yield from walk_expr(item)


def iter_depths(body: list[Stmt]) -> Iterator[tuple[Stmt | Expr, int]]:
    """Every statement and expression of a function body with its nesting
    depth, counting the top-level statements as 1. Walks without recursion,
    so it is safe on trees too deep for the recursive passes."""
    pending: list[tuple[Stmt | Expr, int]] = [(s, 1) for s in body]
    while pending:
        node, depth = pending.pop()
        yield node, depth
        for value in vars(node).values():
            if isinstance(value, (Expr, Stmt)):
                pending.append((value, depth + 1))
            elif isinstance(value, list):
                pending.extend((child, depth + 1) for child in value)


def _walk_paths(block: list[Stmt], slot: str, prefix: Path) -> Iterator[tuple[Path, Stmt]]:
    """The statement walk: pre-order, each statement with its path. A
    statement's nested blocks are read after it is yielded."""
    for i, stmt in enumerate(block):
        path = prefix + ((slot, i),)
        yield path, stmt
        for child_slot, nested in child_blocks(stmt):
            yield from _walk_paths(nested, child_slot, path)


def _function_paths(fn: FunctionDef) -> Iterator[tuple[Path, Stmt]]:
    return _walk_paths(fn.body, "body", ())


def iter_function_paths(fn: FunctionDef) -> Iterator[tuple[StatementId, Path, Stmt]]:
    """The statements of one function with their ids and structural paths,
    in pre-order."""
    for i, (path, stmt) in enumerate(_function_paths(fn)):
        yield StatementId(fn.name, i), path, stmt


def iter_statement_paths(unit: SourceUnit) -> Iterator[tuple[StatementId, Path, Stmt]]:
    """All statements of the unit with their ids and structural paths, in
    (declaration order, pre-order)."""
    for fn in unit.functions:
        yield from iter_function_paths(fn)


def iter_statements(unit: SourceUnit) -> Iterator[tuple[StatementId, Stmt]]:
    """All statements of the unit in `iter_statement_paths` order."""
    for sid, _, stmt in iter_statement_paths(unit):
        yield sid, stmt


def all_statement_ids(unit: SourceUnit) -> list[StatementId]:
    return [sid for sid, _ in iter_statements(unit)]


def normalize(unit: SourceUnit) -> SourceUnit:
    """Canonicalize a unit in place: drop empty else branches, reassign ids.

    Must be called after every structural edit; returns the unit for
    convenience.
    """
    for fn in unit.functions:
        normalize_function(fn)
    return unit


def normalize_function(fn: FunctionDef) -> FunctionDef:
    """`normalize` for one function: its ids depend on nothing else, so an
    edit to one function needs only this."""
    for sid, _, stmt in iter_function_paths(fn):
        if isinstance(stmt, IfStmt) and stmt.else_body == []:
            stmt.else_body = None
        stmt.stmt_id = sid
    return fn


def path_of(unit: SourceUnit, sid: StatementId) -> Path | None:
    """Structural path of the statement with the given id, or None."""
    fn = unit.function(sid.function)
    if fn is None:
        return None
    return next((path for path, stmt in _function_paths(fn) if stmt.stmt_id == sid), None)


def resolve_container(unit: SourceUnit, function: str, path: Path) -> tuple[list[Stmt], int] | None:
    """The path descent: resolve a path to (containing block, index), or
    None when the path is stale."""
    fn = unit.function(function)
    if fn is None or not path:
        return None
    slots = {"body": fn.body}
    for slot, index in path:
        block = slots.get(slot)
        if block is None or index >= len(block):
            return None
        slots = dict(child_blocks(block[index]))
    return block, index


def resolve_path(unit: SourceUnit, function: str, path: Path) -> Stmt | None:
    located = resolve_container(unit, function, path)
    if located is None:
        return None
    block, index = located
    return block[index]
