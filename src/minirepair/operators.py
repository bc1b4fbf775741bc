"""Repair operators: AST transformations drawn at suspicious statements.

Three families, gated by engine mode:

  jgenprog    statement-level InsertBefore / Replace / Remove, with
              payload statements harvested from the program itself (the
              ingredient pool, local or global scope);
  jpar        repair templates: bounds-guarding an array access, adding
              or removing a term of an if/while condition, and swapping
              a call argument for another in-scope variable;
  jmutrepair  operator swaps: relational, logical, and arithmetic
              operator replacement plus condition negation.

Children are copy-on-write. An apply_* function returns a new unit that
shares every FunctionDef object with its parent except a fresh copy of
the function holding the modification point; only that copy is edited
and has its nesting checked, and the child is then normalized and
re-type-checked. Sharing is safe because no unit is edited once the call
that made it (the parser or an apply_* function) has returned: the
parent is never touched, and `normalize` leaves the shared functions as
they were, since they were normalized when first made. Ingredients are
the unit's own statements, not copies: they are listed once per unit,
cached on it as `_ingredients`, and copied only when inserted. Scope is
the binding environment before each statement that `check_unit` returns;
`_finish` keeps it on the child it checks (`_envs`), so no operator
works scope out again. Inapplicable or stale operations raise a
PatchSkip subclass, which callers treat as "discard and draw again",
never as a fatal error. Template parameters left unresolved at
enumeration time are drawn from the caller's random stream on first
application and recorded in the returned concrete op, so a lineage of
concrete ops replays byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from minirepair.minilang import (
    SourceUnit,
    StatementId,
    normalize,
    resolve_container,
    resolve_path,
)
from minirepair.minilang.checker import check_unit, signatures, typed_free_vars
from minirepair.minilang.errors import MiniLangError
from minirepair.minilang.nodes import (
    ARITH_OPS,
    Binary,
    Call,
    Expr,
    IfStmt,
    Index,
    IndexAssignStmt,
    IntLit,
    Len,
    LOGIC_OPS,
    Path,
    REL_OPS,
    ReturnStmt,
    Stmt,
    T_INT,
    Unary,
    Var,
    WhileStmt,
    clone,
    iter_statement_paths,
    stmt_expr_nodes,
)
from minirepair.minilang.parser import check_nesting
from minirepair.minilang.printer import print_stmt


class PatchSkip(Exception):
    """Non-fatal: skip this operation and draw another."""


class StalePoint(PatchSkip):
    """The modification point no longer resolves in the variant."""


class ScopeViolation(PatchSkip):
    """An ingredient uses names not bound at the insertion position."""


class TypeCheckFailed(PatchSkip):
    """The edited unit no longer type-checks, or nests deeper than the
    parser's limit."""


class NotApplicable(PatchSkip):
    """The operator has no eligible site at this statement."""


GENPROG_KINDS = ("InsertBefore", "Replace", "Remove")
TEMPLATE_KINDS = ("TemplateGuardArrayAccess", "TemplateMutateConditionTerm", "TemplateSwapCallArg")
MUTATION_KINDS = ("MutRelationalOp", "MutLogicalOp", "MutArithmeticOp", "MutNegateCondition")
MODE_KINDS = {"jgenprog": GENPROG_KINDS, "jpar": TEMPLATE_KINDS, "jmutrepair": MUTATION_KINDS}
MODES = tuple(MODE_KINDS)


@dataclass(frozen=True)
class ModificationPoint:
    statement: StatementId
    path: Path
    suspiciousness: float


@dataclass(frozen=True)
class Ingredient:
    """A statement of a unit offered for reuse. `stmt` is the unit's own
    node, shared and never edited; `text` is its condensed print."""

    stmt: Stmt
    origin: StatementId
    free_vars: frozenset[tuple[str, str]]
    text: str

    @property
    def is_return_rooted(self) -> bool:
        return isinstance(self.stmt, ReturnStmt)


SCOPES = ("local", "global")


@dataclass(frozen=True)
class IngredientPool:
    scope: str  # one of SCOPES
    entries: tuple[Ingredient, ...]


EMPTY_POOL = IngredientPool("local", ())


@dataclass
class PatchOp:
    kind: str
    point: ModificationPoint
    payload: dict[str, Any] = field(default_factory=dict)
    generation: int | None = None

    def summary(self) -> str:
        p = self.payload
        if self.kind == "InsertBefore":
            return f"insert `{p['ingredient'].text}`"
        if self.kind == "Replace":
            return f"replace with `{p['ingredient'].text}`"
        if self.kind == "Remove":
            return "remove statement"
        if self.kind == "TemplateGuardArrayAccess":
            array = p.get("array", "?")
            return f"wrap in bounds guard for `{array}[...]`"
        if self.kind == "TemplateMutateConditionTerm":
            if p.get("action") == "remove":
                return f"condition: keep only the {p['keep']} term"
            if p.get("action") == "add":
                return f"condition: append `{p['connective']} {p['lhs']} {p['op']} {p['rhs']}`"
            return "condition: add or remove a term"
        if self.kind == "TemplateSwapCallArg":
            if "arg_index" in p:
                return f"call argument {p['arg_index']} -> `{p['var_name']}`"
            return "swap a call argument"
        if self.kind in ("MutRelationalOp", "MutArithmeticOp"):
            original = p.get("original", "?")
            return f"operator `{original}` -> `{p['replacement']}`"
        if self.kind == "MutLogicalOp":
            original = p.get("original", "?")
            return f"operator `{original}` -> `{_other_logic(original)}`"
        if self.kind == "MutNegateCondition":
            return "negate condition"
        return self.kind

    def trace_entry(self) -> dict[str, Any]:
        """Patch trace row: one JSON object per applied operation."""
        return {
            "kind": self.kind,
            "statement_id": str(self.point.statement),
            "payload_summary": self.summary(),
            "generation": self.generation,
        }


def _condense(text: str) -> str:
    return " ".join(text.split())


def _other_logic(op: str) -> str:
    return "||" if op == "&&" else "&&"


# --- site collection ----------------------------------------------------
# Sites are collected from a statement's own expressions only (an
# if/while contributes just its condition); nested statements are their
# own modification points. Pre-order (`stmt_expr_nodes`), so site
# indices are reproducible.


def binary_sites(stmt: Stmt, ops: tuple[str, ...]) -> list[Binary]:
    nodes = stmt_expr_nodes(stmt)
    return [node for node in nodes if isinstance(node, Binary) and node.op in ops]


def index_access_sites(stmt: Stmt) -> list[tuple[str, Expr]]:
    """(array name, index expression) pairs; an index-assign target counts."""
    sites: list[tuple[str, Expr]] = []
    if isinstance(stmt, IndexAssignStmt):
        sites.append((stmt.name, stmt.index))
    sites += [(node.name, node.index) for node in stmt_expr_nodes(stmt) if isinstance(node, Index)]
    return sites


def call_sites(stmt: Stmt) -> list[Call]:
    return [node for node in stmt_expr_nodes(stmt) if isinstance(node, Call)]


# --- ingredients ---------------------------------------------------------


def unit_envs(unit: SourceUnit) -> dict[StatementId, dict[str, str]]:
    """The binding environment just before each statement, as `check_unit`
    returns it. `_finish` records it on every unit an operator makes; any
    other unit is checked on first use. Cached on the unit as `_envs`."""
    envs = unit.__dict__.get("_envs")
    if envs is None:
        envs = unit._envs = check_unit(unit)
    return envs


def unit_ingredients(unit: SourceUnit) -> tuple[Ingredient, ...]:
    """Every statement of the unit as an ingredient, in program order.

    Built on first use and cached on the unit as `_ingredients`; units
    are not edited once built, so the list stays valid.
    """
    cached = unit.__dict__.get("_ingredients")
    if cached is None:
        envs = unit_envs(unit)
        cached = unit._ingredients = tuple(
            Ingredient(
                stmt=stmt,
                origin=sid,
                free_vars=typed_free_vars(stmt, envs[sid]),
                text=_condense(print_stmt(stmt)),
            )
            for sid, _, stmt in iter_statement_paths(unit)
        )
    return cached


def harvest_ingredients(unit: SourceUnit, point: ModificationPoint, scope: str) -> IngredientPool:
    """Collect reusable statements for a modification point.

    Local scope draws from the point's function only; global from the
    whole unit. The statement the point's path resolves to is excluded
    (in a variant its id may differ from the point's), and structurally
    identical statements are deduplicated (first occurrence in program
    order wins).
    """
    at = resolve_path(unit, point.statement.function, point.path)
    entries: list[Ingredient] = []
    seen: set[str] = set()
    for ingredient in unit_ingredients(unit):
        if ingredient.stmt is at:
            continue
        if scope == "local" and ingredient.origin.function != point.statement.function:
            continue
        if ingredient.text in seen:
            continue
        seen.add(ingredient.text)
        entries.append(ingredient)
    return IngredientPool(scope, tuple(entries))


def _env_at(unit: SourceUnit, point: ModificationPoint) -> dict[str, str]:
    block, index = _locate(unit, point)
    return unit_envs(unit)[block[index].stmt_id]


def _fits(ingredient: Ingredient, env: dict[str, str]) -> bool:
    return all(env.get(name) == type_ for name, type_ in ingredient.free_vars)


def check_scope(ingredient: Ingredient, point: ModificationPoint, unit: SourceUnit) -> bool:
    """True when all free variables are bound, type-compatibly, at the point."""
    return _fits(ingredient, _env_at(unit, point))


# --- application ---------------------------------------------------------


def _locate(unit: SourceUnit, point: ModificationPoint) -> tuple[list[Stmt], int]:
    located = resolve_container(unit, point.statement.function, point.path)
    if located is None:
        raise StalePoint(f"point {point.statement} does not resolve")
    return located


def _child_of(parent: SourceUnit, point: ModificationPoint) -> SourceUnit:
    """A new unit sharing the parent's functions, except a fresh copy of the
    one holding the point, which must resolve in the parent."""
    edited = parent.function(point.statement.function)
    functions = [clone(fn) if fn is edited else fn for fn in parent.functions]
    return SourceUnit(functions, parent.source_name)


def _finish(child: SourceUnit, point: ModificationPoint) -> SourceUnit:
    try:
        check_nesting(child.function(point.statement.function))
        child._envs = check_unit(normalize(child))
    except MiniLangError as exc:
        raise TypeCheckFailed(str(exc)) from exc
    return child


def apply_genprog(parent: SourceUnit, op: PatchOp) -> SourceUnit:
    """Insert an ingredient before, replace, or remove the point statement."""
    _locate(parent, op.point)  # fail fast before copying
    if op.kind in ("InsertBefore", "Replace"):
        ingredient: Ingredient = op.payload["ingredient"]
        if op.kind == "InsertBefore" and ingredient.is_return_rooted:
            raise NotApplicable("return statements are never inserted")
        if not check_scope(ingredient, op.point, parent):
            raise ScopeViolation(f"ingredient from {ingredient.origin} out of scope")
    child = _child_of(parent, op.point)
    block, index = _locate(child, op.point)
    if op.kind == "Remove":
        del block[index]
    elif op.kind == "InsertBefore":
        block.insert(index, clone(op.payload["ingredient"].stmt))
    elif op.kind == "Replace":
        block[index] = clone(op.payload["ingredient"].stmt)
    else:
        raise NotApplicable(f"not a statement operation: {op.kind}")
    return _finish(child, op.point)


def apply_mutation(parent: SourceUnit, op: PatchOp) -> tuple[SourceUnit, PatchOp]:
    """Swap one operator (or negate one condition) at the recorded site."""
    _locate(parent, op.point)
    child = _child_of(parent, op.point)
    stmt = resolve_path(child, op.point.statement.function, op.point.path)
    payload = dict(op.payload)
    if op.kind == "MutNegateCondition":
        if not isinstance(stmt, (IfStmt, WhileStmt)):
            raise NotApplicable("statement has no condition")
        stmt.cond = Unary("!", stmt.cond)
    else:
        family = {
            "MutRelationalOp": REL_OPS,
            "MutLogicalOp": LOGIC_OPS,
            "MutArithmeticOp": ARITH_OPS,
        }[op.kind]
        sites = binary_sites(stmt, family)
        site = payload.get("site", 0)
        if site >= len(sites):
            raise NotApplicable(f"no {op.kind} site #{site} at {op.point.statement}")
        node = sites[site]
        payload.setdefault("original", node.op)
        if op.kind == "MutLogicalOp":
            node.op = _other_logic(node.op)
        else:
            replacement = payload["replacement"]
            if replacement == node.op:
                raise NotApplicable("replacement equals the original operator")
            node.op = replacement
    concrete = PatchOp(op.kind, op.point, payload, op.generation)
    return _finish(child, op.point), concrete


def apply_par_template(
    parent: SourceUnit, op: PatchOp, rng: random.Random | None
) -> tuple[SourceUnit, PatchOp]:
    """Apply one template; draws unresolved parameters from `rng`."""
    _locate(parent, op.point)
    child = _child_of(parent, op.point)
    block, index = _locate(child, op.point)
    stmt = block[index]
    payload = dict(op.payload)

    if op.kind == "TemplateGuardArrayAccess":
        sites = index_access_sites(stmt)
        site = payload.get("site", 0)
        if site >= len(sites):
            raise NotApplicable("statement contains no such array access")
        array, index_expr = sites[site]
        payload["site"] = site
        payload["array"] = array
        guard = Binary(
            "&&",
            Binary(">=", clone(index_expr), IntLit(0)),
            Binary("<", clone(index_expr), Len(Var(array))),
        )
        block[index] = IfStmt(guard, [stmt], None)

    elif op.kind == "TemplateMutateConditionTerm":
        if not isinstance(stmt, (IfStmt, WhileStmt)):
            raise NotApplicable("statement has no condition")
        if "action" not in payload:
            payload.update(_draw_condition_edit(parent, op.point, stmt, rng))
        if payload["action"] == "remove":
            cond = stmt.cond
            if not (isinstance(cond, Binary) and cond.op in LOGIC_OPS):
                raise NotApplicable("condition has no top-level term to remove")
            stmt.cond = cond.lhs if payload["keep"] == "lhs" else cond.rhs
        else:
            atom = Binary(payload["op"], Var(payload["lhs"]), Var(payload["rhs"]))
            stmt.cond = Binary(payload["connective"], stmt.cond, atom)

    elif op.kind == "TemplateSwapCallArg":
        sites = call_sites(stmt)
        site = payload.get("site", 0)
        if site >= len(sites):
            raise NotApplicable("statement contains no such call")
        call = sites[site]
        payload["site"] = site
        if "arg_index" not in payload:
            payload.update(_draw_argument_swap(parent, op.point, call, rng))
        call.args[payload["arg_index"]] = Var(payload["var_name"])

    else:
        raise NotApplicable(f"not a template operation: {op.kind}")

    concrete = PatchOp(op.kind, op.point, payload, op.generation)
    return _finish(child, op.point), concrete


def _require_rng(rng: random.Random | None) -> random.Random:
    if rng is None:
        raise ValueError("template parameters unresolved and no random stream provided")
    return rng


def _scope_vars(unit: SourceUnit, point: ModificationPoint, type_: str) -> list[str]:
    return [name for name, t in _env_at(unit, point).items() if t == type_]


def _draw_condition_edit(
    unit: SourceUnit, point: ModificationPoint, stmt: Stmt, rng: random.Random | None
) -> dict[str, Any]:
    rng = _require_rng(rng)
    int_vars = _scope_vars(unit, point, T_INT)
    removable = isinstance(stmt.cond, Binary) and stmt.cond.op in LOGIC_OPS
    if not removable and not int_vars:
        raise NotApplicable("no condition term to remove and no int variables to compare")
    if removable and (not int_vars or rng.random() < 0.5):
        return {"action": "remove", "keep": rng.choice(("lhs", "rhs"))}
    return {
        "action": "add",
        "connective": rng.choice(LOGIC_OPS),
        "lhs": rng.choice(int_vars),
        "op": rng.choice(REL_OPS),
        "rhs": rng.choice(int_vars),
    }


def _draw_argument_swap(
    unit: SourceUnit, point: ModificationPoint, call: Call, rng: random.Random | None
) -> dict[str, Any]:
    rng = _require_rng(rng)
    sigs = signatures(unit)
    if call.fn not in sigs:
        raise NotApplicable(f"call to unknown function {call.fn!r}")
    param_types = sigs[call.fn][0]
    choices: list[tuple[int, str]] = []
    for position, param_type in enumerate(param_types):
        current = call.args[position]
        current_name = current.name if isinstance(current, Var) else None
        for name in _scope_vars(unit, point, param_type):
            if name != current_name:
                choices.append((position, name))
    if not choices:
        raise NotApplicable("no in-scope replacement variable for any argument")
    position, name = rng.choice(choices)
    return {"arg_index": position, "var_name": name}


def apply_patch_op(
    parent: SourceUnit, op: PatchOp, rng: random.Random | None = None
) -> tuple[SourceUnit, PatchOp]:
    """Apply any operation; returns (child, concrete op suitable for replay)."""
    if op.kind in GENPROG_KINDS:
        return apply_genprog(parent, op), op
    if op.kind in TEMPLATE_KINDS:
        return apply_par_template(parent, op, rng)
    if op.kind in MUTATION_KINDS:
        return apply_mutation(parent, op)
    raise NotApplicable(f"unknown operation kind {op.kind!r}")


# --- enumeration ----------------------------------------------------------


def enumerate_ops(
    mode: str, point: ModificationPoint, ast: SourceUnit, pool: IngredientPool = EMPTY_POOL
) -> list[PatchOp]:
    """Every applicable operation of the mode at the point, in a fixed order.

    Template parameters that are drawn at application time are left
    unresolved here (one op per template kind per site); mutation ops
    are fully concrete (one per site per replacement operator).
    """
    block, index = _locate(ast, point)
    stmt = block[index]
    ops: list[PatchOp] = []
    if mode == "jgenprog":
        ops.append(PatchOp("Remove", point))
        env = _env_at(ast, point)
        for ingredient in pool.entries:
            if not _fits(ingredient, env):
                continue
            ops.append(PatchOp("Replace", point, {"ingredient": ingredient}))
            if not ingredient.is_return_rooted:
                ops.append(PatchOp("InsertBefore", point, {"ingredient": ingredient}))
    elif mode == "jpar":
        for site in range(len(index_access_sites(stmt))):
            ops.append(PatchOp("TemplateGuardArrayAccess", point, {"site": site}))
        if isinstance(stmt, (IfStmt, WhileStmt)):
            ops.append(PatchOp("TemplateMutateConditionTerm", point))
        for site in range(len(call_sites(stmt))):
            ops.append(PatchOp("TemplateSwapCallArg", point, {"site": site}))
    elif mode == "jmutrepair":
        for family, kind in (
            (REL_OPS, "MutRelationalOp"),
            (LOGIC_OPS, "MutLogicalOp"),
            (ARITH_OPS, "MutArithmeticOp"),
        ):
            for site, node in enumerate(binary_sites(stmt, family)):
                if kind == "MutLogicalOp":
                    ops.append(PatchOp(kind, point, {"site": site}))
                    continue
                for replacement in family:
                    if replacement != node.op:
                        ops.append(
                            PatchOp(kind, point, {"site": site, "replacement": replacement})
                        )
        if isinstance(stmt, (IfStmt, WhileStmt)):
            ops.append(PatchOp("MutNegateCondition", point))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ops
