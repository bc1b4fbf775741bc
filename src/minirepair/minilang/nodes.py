"""AST node definitions plus statement identity and structural paths.

Every statement carries a StatementId assigned by `normalize`: the pair
(function name, pre-order index within that function), with indices
contiguous from 0. Ids are excluded from equality, so `==` on nodes and
units means structural equality. Structural paths address statements
positionally (block slot + index per nesting level) and survive edits
elsewhere in the tree, which is how modification points computed on the
original program are re-resolved against evolved variants.
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


@dataclass
class FunctionDef:
    name: str
    params: list[tuple[str, str]]
    return_type: str
    body: list[Stmt]


@dataclass
class SourceUnit:
    """A program. Attributes named with a leading underscore are caches
    derived from the AST: the interpreter's compiled code (`_compiled`) and
    the repair operators' ingredient list (`_ingredients`); copies and
    pickles leave them out."""

    functions: list[FunctionDef]
    source_name: str = field(default="<unit>", compare=False)

    def function(self, name: str) -> FunctionDef | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def clone(node):
    """A deep copy of a node tree (`FunctionDef`, `Stmt` or `Expr`).

    Copies every node and node list and shares the immutable leaves
    (names, literals, ids, locations); a tenth of `copy.deepcopy`'s cost.
    Trees never alias a node, so nothing needs a memo.
    """
    new = object.__new__(type(node))
    for key, value in vars(node).items():
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


def _walk_block(block: list[Stmt]) -> Iterator[Stmt]:
    for stmt in block:
        yield stmt
        for _, nested in child_blocks(stmt):
            yield from _walk_block(nested)


def iter_depths(unit: SourceUnit) -> Iterator[tuple[Stmt | Expr, int]]:
    """Every statement and expression with its nesting depth, counting a
    function's top-level statements as 1. Walks without recursion, so it is
    safe on trees too deep for the recursive passes."""
    pending: list[tuple[Stmt | Expr, int]] = [(s, 1) for fn in unit.functions for s in fn.body]
    while pending:
        node, depth = pending.pop()
        yield node, depth
        for value in vars(node).values():
            if isinstance(value, (Expr, Stmt)):
                pending.append((value, depth + 1))
            elif isinstance(value, list):
                pending.extend((child, depth + 1) for child in value)


def iter_statements(unit: SourceUnit) -> Iterator[tuple[StatementId, Stmt]]:
    """All statements of the unit in (declaration order, pre-order)."""
    for fn in unit.functions:
        for i, stmt in enumerate(_walk_block(fn.body)):
            yield StatementId(fn.name, i), stmt


def iter_statement_paths(unit: SourceUnit) -> Iterator[tuple[StatementId, Path, Stmt]]:
    """All statements with their structural paths, in `iter_statements` order."""
    for fn in unit.functions:
        for i, (path, stmt) in enumerate(_walk_paths(fn.body, "body", ())):
            yield StatementId(fn.name, i), path, stmt


def _walk_paths(block: list[Stmt], slot: str, prefix: Path) -> Iterator[tuple[Path, Stmt]]:
    for i, stmt in enumerate(block):
        path = prefix + ((slot, i),)
        yield path, stmt
        for child_slot, nested in child_blocks(stmt):
            yield from _walk_paths(nested, child_slot, path)


def all_statement_ids(unit: SourceUnit) -> list[StatementId]:
    return [sid for sid, _ in iter_statements(unit)]


def normalize(unit: SourceUnit) -> SourceUnit:
    """Canonicalize a unit in place: drop empty else branches, reassign ids.

    Must be called after every structural edit; returns the unit for
    convenience.
    """
    for fn in unit.functions:
        _normalize_block(fn.body)
        for i, stmt in enumerate(_walk_block(fn.body)):
            stmt.stmt_id = StatementId(fn.name, i)
    return unit


def _normalize_block(block: list[Stmt]) -> None:
    for stmt in block:
        if isinstance(stmt, IfStmt) and stmt.else_body is not None and not stmt.else_body:
            stmt.else_body = None
        for _, nested in child_blocks(stmt):
            _normalize_block(nested)


def path_of(unit: SourceUnit, sid: StatementId) -> Path | None:
    """Structural path of the statement with the given id, or None."""
    fn = unit.function(sid.function)
    if fn is None:
        return None
    found = _search_block(fn.body, "body", sid)
    return tuple(found) if found is not None else None


def _search_block(block: list[Stmt], slot: str, sid: StatementId) -> list[PathStep] | None:
    for i, stmt in enumerate(block):
        if stmt.stmt_id == sid:
            return [(slot, i)]
        for child_slot, nested in child_blocks(stmt):
            sub = _search_block(nested, child_slot, sid)
            if sub is not None:
                return [(slot, i)] + sub
    return None


def resolve_container(unit: SourceUnit, function: str, path: Path) -> tuple[list[Stmt], int] | None:
    """Resolve a path to (containing block, index), or None when stale."""
    fn = unit.function(function)
    if fn is None or not path or path[0][0] != "body":
        return None
    block = fn.body
    for step, (_, index) in enumerate(path):
        if index >= len(block):
            return None
        if step == len(path) - 1:
            return block, index
        block = _block_for_slot(block[index], path[step + 1][0])
        if block is None:
            return None
    return None


def _block_for_slot(stmt: Stmt, slot: str) -> list[Stmt] | None:
    for child_slot, nested in child_blocks(stmt):
        if child_slot == slot:
            return nested
    return None


def resolve_path(unit: SourceUnit, function: str, path: Path) -> Stmt | None:
    located = resolve_container(unit, function, path)
    if located is None:
        return None
    block, index = located
    return block[index]
