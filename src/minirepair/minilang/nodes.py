"""AST node definitions, statement identity, structural paths and the
tree walks.

A statement's id is derived from its position, never stored: the
StatementId (function name, pre-order index within that function), with
indices contiguous from 0. Equality on nodes and units is structural.
Structural paths address statements positionally (block slot + index per
nesting level) and survive edits elsewhere in the tree, which is how
modification points computed on the original program are re-resolved
against evolved variants.

Variants are copy-on-write at statement level. No node is edited once
the call that made it (the parser, or a repair operator) has returned,
so variants share statements: `copy_path` copies only a function and the
blocks and compound statements on the path to an edit, and shares every
other statement with the function it copies. A statement therefore sits
at one position in each unit that holds it, but may sit at different
positions in different units, which is why ids are positional.

This module owns the path format and the traversals; other modules go
through them rather than walking the tree themselves:

  statements   `iter_function_paths` (pre-order, with ids and paths),
               joined over a unit by `iter_statement_paths`;
               `iter_statements`, `normalize` and `path_of` read them
  paths        `resolve_container` (the block and index a path ends at);
               `copy_path` copies along it
  expressions  `walk_expr` (pre-order, left to right); `stmt_expr_nodes`
               applies it to a statement's own expressions, `stmt_exprs`;
               `iter_depths` walks statements and expressions alike, and
               the checker's `statement_facts` counts depth as it does
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

# MiniLang integers are 64-bit signed; arithmetic outside traps.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


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
    """A function. Attributes named with a leading underscore are caches
    derived from this function alone (and the unit's signatures, which no
    operator changes), each written by one function: the interpreter's
    compiled code (`_code`, by `_code_of`), and the repair operators'
    binding environments (`_envs`, by `function_envs`), ingredient list
    (`_ingredients`, by `function_ingredients`) and modification points
    (`_points`, by `function_points`). Copies, `clone` and pickles leave
    them out."""

    name: str
    params: list[tuple[str, str]]
    return_type: str
    body: list[Stmt]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass
class SourceUnit:
    """A program: its functions in declaration order, a list no caller
    edits once the unit is made. The one thing it derives from them is
    `_positions`, the position of the first function of each name, which
    `function` builds on first use and `replacing` hands on; every other
    cache is its functions' own. Copies and pickles leave `_positions`
    out."""

    functions: list[FunctionDef]
    source_name: str = field(default="<unit>", compare=False)

    def function(self, name: str) -> FunctionDef | None:
        """The first function named `name`, or None, found at the
        position `_positions` gives; an absent name costs no scan."""
        try:
            return self.functions[self._positions[name]]
        except AttributeError:
            positions = {}
            for i, fn in enumerate(self.functions):
                positions.setdefault(fn.name, i)
            self._positions = positions
            return self.function(name)
        except KeyError:
            return None

    def replacing(self, old: FunctionDef, new: FunctionDef) -> SourceUnit:
        """A unit whose functions are this one's with `new`, a function of
        `old`'s name, in place of `old`; it shares this unit's
        `_positions`, which hold for it too."""
        unit = SourceUnit([new if fn is old else fn for fn in self.functions], self.source_name)
        positions = self.__dict__.get("_positions")
        if positions is not None:
            unit._positions = positions
        return unit

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def clone(node):
    """A deep copy of a node tree (`FunctionDef`, `Stmt` or `Expr`).

    Copies every node and node list and shares the immutable leaves
    (names, literals, locations); a tenth of `copy.deepcopy`'s cost.
    Units share statements across variants, never within one, so a tree
    never aliases a node and nothing needs a memo. Caches (attributes
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


def copy_statement(stmt: Stmt) -> Stmt:
    """A copy of a statement that owns fresh clones of its own expressions
    and shares its nested blocks: what an edit that rewrites a statement's
    expressions needs to copy."""
    new = object.__new__(type(stmt))
    for key, value in vars(stmt).items():
        new.__dict__[key] = clone(value) if isinstance(value, Expr) else value
    return new


# The field of a compound statement that holds the block a path slot names.
_SLOT_FIELDS = {"then": "then_body", "else": "else_body", "body": "body"}


def copy_path(fn: FunctionDef, path: Path) -> tuple[FunctionDef, Stmt | None, list[Stmt], int]:
    """Path copying (Driscoll et al., "Making data structures persistent",
    1989): a copy of `fn` in which the function, every block `path` runs
    through and every compound statement holding one of them are fresh
    objects, and every other statement is shared with `fn`.

    Returns the copy, the copied statement whose block the path ends in
    (None for the function body), that block and the index in it. The
    path must resolve in `fn` (`resolve_container`). The copy carries none
    of `fn`'s caches.
    """
    fresh = FunctionDef(fn.name, fn.params, fn.return_type, list(fn.body))
    owner, block = None, fresh.body
    for (_, index), (slot, _) in zip(path, path[1:]):
        owner = object.__new__(type(block[index]))
        owner.__dict__.update(vars(block[index]))
        block[index] = owner
        field_name = _SLOT_FIELDS[slot]
        block = list(getattr(owner, field_name))
        setattr(owner, field_name, block)
    return fresh, owner, block, path[-1][1]


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


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """A statement's own expressions, in field order. An if/while has just
    its condition: nested statements are their own."""
    if isinstance(stmt, IndexAssignStmt):
        return [stmt.index, stmt.value]
    if isinstance(stmt, (IfStmt, WhileStmt)):
        return [stmt.cond]
    value = getattr(stmt, "value", None)
    return [value] if value is not None else []


def stmt_expr_nodes(stmt: Stmt) -> Iterator[Expr]:
    """Every node of a statement's own expressions (`stmt_exprs`), by
    `walk_expr`."""
    for expr in stmt_exprs(stmt):
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


def iter_depths(nodes: list[Stmt], depth: int = 1) -> Iterator[tuple[Stmt | Expr, int]]:
    """Every statement and expression of the trees rooted at `nodes`, with
    its nesting depth: the roots are at `depth`, and a function body's
    top-level statements at 1. Walks without recursion, so it is safe on
    trees too deep for the recursive passes."""
    pending: list[tuple[Stmt | Expr, int]] = [(s, depth) for s in nodes]
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
    """Canonicalize a freshly built unit in place: drop empty else branches.

    The parser calls it; a repair operator keeps its child canonical
    itself. Returns the unit for convenience.
    """
    for fn in unit.functions:
        for _, stmt in _function_paths(fn):
            if isinstance(stmt, IfStmt) and stmt.else_body == []:
                stmt.else_body = None
    return unit


def path_of(unit: SourceUnit, sid: StatementId) -> Path | None:
    """Structural path of the statement with the given id, or None."""
    fn = unit.function(sid.function)
    if fn is None:
        return None
    return next((path for i, (path, _) in enumerate(_function_paths(fn)) if i == sid.index), None)


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
