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

Children are copy-on-write at statement level, and `apply_patch_op`
makes every one. It resolves the modification point in the parent and
path-copies the function holding it (`copy_path`): the function, the
blocks on the point's path and the compound statements holding them are
fresh, and every other statement is the parent's own object. The kind's
family edit then changes the copied block at the point, cloning only
what it writes: the point statement for the template and mutation kinds,
an inserted ingredient for jgenprog. `_finish` nesting-checks the
statement the edit wrote, at the point's depth, and type-checks the
edited function against the unit's signatures, which no operator
changes; the child shares every other FunctionDef with its parent.

A discarded jgenprog draw pays no copy. Before it copies anything,
`apply_patch_op` rejects, with the `TypeCheckFailed` that `_finish` would
raise, each jgenprog op whose child is certain to fail the check
(`_certain_type_error`): an ingredient nested too deep at the point, one
that redeclares a visible name, a `return` of another type, a `let`
removed from before its uses, a body left without a return. It reads the
facts the ingredient records carry (`declares`, `height`), so an op it
cannot decide is copied and checked as before, and every child that is
kept is still checked whole.
Sharing is safe because no node is edited once the call that made it
(the parser or `apply_patch_op`) has returned: the parent is never
touched. Statement ids are positional (`iter_function_paths`), so a
shared statement needs no renumbering.

Every cost a child adds is per function: the binding environment before
each statement, keyed by path, and the function's ingredients, its own
statements, are cached on the FunctionDef when first asked for (`_envs`
by `function_envs`, `_ingredients` by `function_ingredients`), so a child
computes them only once drawn as a parent, and for its edited function
only. So are a function's modification points (`_points`, by
`function_points`), which the engine reads of the original. The unit
caches only its name index (`SourceUnit.function`), which a child shares;
ingredients are copied only when inserted. Pools are per parent:
`harvest_ingredients` deduplicates a unit's ingredients once into the
`pools` its caller keeps (the engine's search state, cleared each
generation), and a draw takes that pool without its point's own
statement. A draw resolves its point once: the pool, the ops of
`enumerate_ops` and so `apply_patch_op` take it `Located` from the step
before. A jgenprog draw builds one operation: `enumerate_ops` returns a
sequence that makes only the PatchOp indexed.

Inapplicable or stale operations raise a PatchSkip subclass, which
callers treat as "discard and draw again", never as a fatal error.
Template parameters left unresolved at enumeration time are drawn from
the caller's random stream on first application and recorded in the
returned concrete op, so a lineage of concrete ops replays
byte-for-byte.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from minirepair.minilang import SourceUnit, StatementId, resolve_container
from minirepair.minilang.checker import (
    UnitSignatures,
    check_function,
    returns_after_edit,
    statement_facts,
)
from minirepair.minilang.errors import MiniLangError
from minirepair.minilang.nodes import (
    ARITH_OPS,
    Binary,
    Call,
    Expr,
    FunctionDef,
    IfStmt,
    Index,
    IndexAssignStmt,
    IntLit,
    Len,
    LetStmt,
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
    copy_path,
    copy_statement,
    iter_depths,
    iter_function_paths,
    stmt_expr_nodes,
)
from minirepair.minilang.parser import MAX_NESTING, check_nesting
from minirepair.minilang.printer import print_stmt

# The whole-unit entry points, which no child needs since `_finish` checks
# one function. They stay importable from here because the benchmark's
# layer probes (`perfbench/spans.py`) name them.
from minirepair.minilang.checker import check_unit  # noqa: F401
from minirepair.minilang.nodes import normalize  # noqa: F401


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


@dataclass(frozen=True)
class Ingredient:
    """A statement of a unit offered for reuse. `stmt` is the unit's own
    node, shared and never edited; `text` is its condensed print.
    `free_vars`, `declares` and `height` are its `statement_facts`, and
    `is_return_rooted` says whether it is a `return`, found once here so
    that a draw reads it."""

    stmt: Stmt
    origin: StatementId
    free_vars: frozenset[tuple[str, str]]
    text: str
    declares: frozenset[str]
    height: int
    is_return_rooted: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_return_rooted", isinstance(self.stmt, ReturnStmt))


SCOPES = ("local", "global")


@dataclass(frozen=True)
class IngredientPool:
    entries: tuple[Ingredient, ...]
    # The `Located` point the pool was harvested for, when it resolves.
    located: Located | None = field(default=None, compare=False, repr=False)


EMPTY_POOL = IngredientPool(())


class Located(NamedTuple):
    """A point resolved in one unit: the block its path ends in and the
    index there, and the binding environment before it (None until asked
    for). The steps of one draw hand it on, so that a draw resolves its
    point once: `harvest_ingredients` in the pool, `enumerate_ops` in each
    op, and `apply_patch_op` reads it when the op is applied to `unit`."""

    unit: SourceUnit
    point: ModificationPoint
    block: list[Stmt]
    index: int
    env: dict[str, str] | None = None


@dataclass
class PatchOp:
    kind: str
    point: ModificationPoint
    payload: dict[str, Any] = field(default_factory=dict)
    generation: int | None = None
    # Where `enumerate_ops` resolved `point`; a concrete op carries none.
    located: Located | None = field(default=None, compare=False, repr=False)

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


def function_envs(unit: SourceUnit, fn: FunctionDef) -> dict[Path, dict[str, str]]:
    """The binding environment just before each statement of `fn`, a
    function of `unit`, by path, as `check_function` returns it. Built on
    first use and cached on the function as `_envs`; nothing else writes
    it."""
    envs = fn.__dict__.get("_envs")
    if envs is None:
        envs = fn._envs = check_function(fn, UnitSignatures(unit))
    return envs


def _env_before(unit: SourceUnit, point: ModificationPoint) -> dict[str, str]:
    """The binding environment before the statement `point` resolves to."""
    return function_envs(unit, unit.function(point.statement.function))[point.path]


def function_points(fn: FunctionDef) -> tuple[tuple[StatementId, ModificationPoint], ...]:
    """Every statement of `fn` as `(id, modification point)`, in pre-order.
    Built on first use and cached on the function as `_points`; nothing
    else writes it."""
    points = fn.__dict__.get("_points")
    if points is None:
        points = fn._points = tuple(
            (sid, ModificationPoint(sid, path)) for sid, path, _ in iter_function_paths(fn)
        )
    return points


def function_ingredients(unit: SourceUnit, fn: FunctionDef) -> tuple[Ingredient, ...]:
    """Every statement of `fn`, a function of `unit`, as an ingredient, in
    pre-order. Built on first use and cached on the function as
    `_ingredients`."""
    cached = fn.__dict__.get("_ingredients")
    if cached is None:
        envs = function_envs(unit, fn)
        cached = fn._ingredients = tuple(
            Ingredient(stmt, sid, free, _condense(print_stmt(stmt)), declares, height)
            for sid, path, stmt in iter_function_paths(fn)
            for free, declares, height in (statement_facts(stmt, envs[path]),)
        )
    return cached


def harvest_ingredients(
    unit: SourceUnit, point: ModificationPoint, scope: str, pools: dict | None = None
) -> IngredientPool:
    """Collect reusable statements for a modification point.

    Local scope draws from the point's function only; global from the
    whole unit, in declaration order. The statement the point's path
    resolves to is excluded (in a variant its position, and so its id,
    may differ from the point's), and structurally identical statements
    are deduplicated (first occurrence in program order wins).

    `pools` is a dict that the caller keeps while `unit` lives and clears
    when it likes (the engine: each generation). The scope's deduplicated
    pool of `unit`, with no statement excluded, is built there once, and a
    point takes it without its own statement's entry, by index. When that
    entry's text occurs again, its second occurrence takes the place the
    walk would give it.
    """
    name = point.statement.function
    located = resolve_container(unit, name, point.path)
    if located is not None:
        located = Located(unit, point, *located)
    at = None if located is None else located.block[located.index]
    if pools is None:
        pools = {}
    key = (id(unit), name if scope == "local" else None)
    held = pools.get(key)
    if held is None:  # the unit is held too, so that its id is not reused
        functions = unit.functions
        if scope == "local":
            functions = [fn for fn in functions if fn.name == name]
        held = pools[key] = (unit, *_deduplicate(unit, functions))
    _, entries, first, seconds = held
    index = first.get(id(at))
    if index is None:  # a later occurrence of a text: the pool already leaves it out
        return IngredientPool(entries, located)
    second = seconds.get(entries[index].text)
    if second is None:
        return IngredientPool(entries[:index] + entries[index + 1 :], located)
    ingredient, position = second
    before, after = entries[:index] + entries[index + 1 : position], entries[position:]
    return IngredientPool(before + (ingredient,) + after, located)


def _deduplicate(
    unit: SourceUnit, functions: list[FunctionDef]
) -> tuple[tuple[Ingredient, ...], dict[int, int], dict[str, tuple[Ingredient, int]]]:
    """The first occurrence of each text among the ingredients of
    `functions`; the index of each by the id of its statement; and, for
    each text that occurs again, its second occurrence and the number of
    first occurrences before it."""
    entries: list[Ingredient] = []
    first: dict[int, int] = {}
    seconds: dict[str, tuple[Ingredient, int]] = {}
    seen: set[str] = set()
    for fn in functions:
        for ingredient in function_ingredients(unit, fn):
            if ingredient.text not in seen:
                seen.add(ingredient.text)
                first[id(ingredient.stmt)] = len(entries)
                entries.append(ingredient)
            elif ingredient.text not in seconds:
                seconds[ingredient.text] = (ingredient, len(entries))
    return tuple(entries), first, seconds


# --- application ---------------------------------------------------------


def _locate(unit: SourceUnit, point: ModificationPoint, located: Located | None = None) -> Located:
    """`point` resolved in `unit`: `located` when it was resolved there
    already, else resolved now."""
    if located is not None and located.unit is unit and located.point is point:
        return located
    found = resolve_container(unit, point.statement.function, point.path)
    if found is None:
        raise StalePoint(f"point {point.statement} does not resolve")
    return Located(unit, point, *found)


def _finish(child: SourceUnit, fn: FunctionDef, written: Stmt | None, depth: int) -> None:
    """Nesting-check the statement an edit wrote, which sits at `depth`,
    then type-check `fn`, the edited function of `child`. Nothing else of
    the function is new, so nothing else can nest deeper than its parent
    did. The check builds no environment table: `function_envs` builds
    one if the child is drawn as a parent.

    A jgenprog draw that this check is certain to reject never gets here:
    `_certain_type_error` rejects it before the path copy, so a discarded
    draw pays no copy, no clone and no check. Every child that is kept is
    still judged here."""
    try:
        if written is not None:
            check_nesting([written], depth)
        check_function(fn, UnitSignatures(child), table=False)
    except MiniLangError as exc:
        raise TypeCheckFailed(str(exc)) from exc


def _admit_ingredient(kind: str, ingredient: Ingredient | None, env: dict[str, str]) -> None:
    """The jgenprog family's own conditions on an op, which need no copy:
    a `return` is never inserted, and every free variable of the
    ingredient is bound at the point, with its type."""
    if ingredient is None:  # a removal
        return
    if kind == "InsertBefore" and ingredient.is_return_rooted:
        raise NotApplicable("return statements are never inserted")
    if not env.items() >= ingredient.free_vars:  # a free variable unbound or retyped
        raise ScopeViolation(f"ingredient from {ingredient.origin} out of scope")


def _certain_type_error(
    parent: SourceUnit,
    fn: FunctionDef,
    path: Path,
    block: list[Stmt],
    index: int,
    kind: str,
    ingredient: Ingredient | None,
    env: dict[str, str],
) -> str | None:
    """Why `_finish` is certain to reject the child of an admitted jgenprog
    op, found in the parent before any copy; None when these rules cannot
    tell, and `_finish` decides. `fn` is the parent's function holding the
    point, `block[index]` the point statement and `env` the environment
    before it. Each rule rests on the parent's being well typed, and on
    the ingredient's coming from a unit with the parent's signatures:
    - an ingredient nests deeper than the limit at the point's depth;
    - it declares, at any depth, a name visible at the point, and MiniLang
      has no shadowing;
    - a `return` that replaces the point returns its origin function's
      type, since its free variables keep their types (`_admit_ingredient`),
      and that is not the point function's;
    - a removed or replaced `let x` leaves `x` unbound for each later
      statement of its block, none of which can declare `x` again, unless
      a `let x` replaces it;
    - the edit leaves the body with no statement that definitely returns.
    """
    if ingredient is not None:
        if len(path) + ingredient.height - 1 > MAX_NESTING:
            return f"nesting deeper than {MAX_NESTING} levels"
        if not env.keys().isdisjoint(ingredient.declares):
            return f"ingredient from {ingredient.origin} redeclares a visible name"
        if kind == "Replace" and ingredient.is_return_rooted:
            origin = parent.function(ingredient.origin.function)
            if origin is not None and origin.return_type != fn.return_type:
                return f"ingredient from {ingredient.origin} returns {origin.return_type}"
    if kind == "InsertBefore":
        return None
    written = None if ingredient is None else ingredient.stmt
    at = block[index]
    if isinstance(at, LetStmt) and not (isinstance(written, LetStmt) and written.name == at.name):
        # A node of a later statement named `x` is a use: a variable, an
        # indexed array or an assignment target.
        later = iter_depths(block[index + 1 :])
        if any(getattr(node, "name", None) == at.name for node, _ in later):
            return f"{at.name!r} is used after its `let` is gone"
    if not returns_after_edit(fn.body, path, written):
        return f"missing return on some path through function {fn.name!r}"
    return None


# Each family's edit changes the path-copied `block` in place at `index`,
# completes `payload` and returns the statement it wrote there that still
# needs its nesting checked (None for a removal, and for an ingredient,
# whose height `_certain_type_error` read). It copies whatever it changes
# below that block: the block is fresh, but the statements in it are the
# parent's. `env` is the parent's environment before the point.


def _genprog_edit(kind, block, index, payload, env, rng, parent) -> None:
    """Insert an ingredient before, replace, or remove the point statement;
    `_admit_ingredient` has admitted the op."""
    if kind == "Remove":
        del block[index]
    elif kind == "InsertBefore":
        block.insert(index, clone(payload["ingredient"].stmt))
    else:
        block[index] = clone(payload["ingredient"].stmt)


_MUTATION_FAMILIES = {"MutRelationalOp": REL_OPS, "MutLogicalOp": LOGIC_OPS, "MutArithmeticOp": ARITH_OPS}


def _mutation_edit(kind, block, index, payload, env, rng, parent) -> Stmt:
    """Swap one operator (or negate one condition) at the recorded site."""
    stmt = block[index] = copy_statement(block[index])
    if kind == "MutNegateCondition":
        if not isinstance(stmt, (IfStmt, WhileStmt)):
            raise NotApplicable("statement has no condition")
        stmt.cond = Unary("!", stmt.cond)
        return stmt
    sites = binary_sites(stmt, _MUTATION_FAMILIES[kind])
    site = payload.get("site", 0)
    if site >= len(sites):
        raise NotApplicable(f"no {kind} site #{site}")
    node = sites[site]
    payload.setdefault("original", node.op)
    if kind == "MutLogicalOp":
        node.op = _other_logic(node.op)
    else:
        replacement = payload["replacement"]
        if replacement == node.op:
            raise NotApplicable("replacement equals the original operator")
        node.op = replacement
    return stmt


def _template_edit(kind, block, index, payload, env, rng, parent) -> Stmt:
    """Apply one template; draws unresolved parameters from `rng`. The
    guard wraps the parent's statement, shared; the other templates
    rewrite a copy of it."""
    stmt = block[index]
    if kind == "TemplateGuardArrayAccess":
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
        return block[index]

    stmt = block[index] = copy_statement(stmt)
    if kind == "TemplateMutateConditionTerm":
        if not isinstance(stmt, (IfStmt, WhileStmt)):
            raise NotApplicable("statement has no condition")
        if "action" not in payload:
            payload.update(_draw_condition_edit(env, stmt, rng))
        if payload["action"] == "remove":
            cond = stmt.cond
            if not (isinstance(cond, Binary) and cond.op in LOGIC_OPS):
                raise NotApplicable("condition has no top-level term to remove")
            stmt.cond = cond.lhs if payload["keep"] == "lhs" else cond.rhs
        else:
            atom = Binary(payload["op"], Var(payload["lhs"]), Var(payload["rhs"]))
            stmt.cond = Binary(payload["connective"], stmt.cond, atom)

    else:  # TemplateSwapCallArg
        sites = call_sites(stmt)
        site = payload.get("site", 0)
        if site >= len(sites):
            raise NotApplicable("statement contains no such call")
        call = sites[site]
        payload["site"] = site
        if "arg_index" not in payload:
            payload.update(_draw_argument_swap(parent, env, call, rng))
        call.args[payload["arg_index"]] = Var(payload["var_name"])
    return stmt


def _require_rng(rng: random.Random | None) -> random.Random:
    if rng is None:
        raise ValueError("template parameters unresolved and no random stream provided")
    return rng


def _draw_condition_edit(
    env: dict[str, str], stmt: Stmt, rng: random.Random | None
) -> dict[str, Any]:
    rng = _require_rng(rng)
    int_vars = [name for name, type_ in env.items() if type_ == T_INT]
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
    unit: SourceUnit, env: dict[str, str], call: Call, rng: random.Random | None
) -> dict[str, Any]:
    rng = _require_rng(rng)
    sig = UnitSignatures(unit).get(call.fn)
    if sig is None:
        raise NotApplicable(f"call to unknown function {call.fn!r}")
    param_types = sig[0]
    choices: list[tuple[int, str]] = []
    for position, param_type in enumerate(param_types):
        current = call.args[position]
        current_name = current.name if isinstance(current, Var) else None
        for name, type_ in env.items():
            if type_ == param_type and name != current_name:
                choices.append((position, name))
    if not choices:
        raise NotApplicable("no in-scope replacement variable for any argument")
    position, name = rng.choice(choices)
    return {"arg_index": position, "var_name": name}


_EDITS = {
    kind: edit
    for kinds, edit in (
        (GENPROG_KINDS, _genprog_edit),
        (TEMPLATE_KINDS, _template_edit),
        (MUTATION_KINDS, _mutation_edit),
    )
    for kind in kinds
}


def apply_patch_op(
    parent: SourceUnit, op: PatchOp, rng: random.Random | None = None
) -> tuple[SourceUnit, PatchOp]:
    """Apply any operation; returns (child, concrete op suitable for replay).

    The point is resolved in the parent (an op of `enumerate_ops` on the
    parent carries it resolved), whose environment before it is what the
    edit's scope checks and draws read. A jgenprog op is admitted
    and, when certain to fail the type check, rejected there, before any
    copy. The kind's edit then changes the block the point ends in, in a
    path copy of its function. A removal that empties an else branch
    drops the branch, as the parser does, so the child is canonical.
    """
    edit = _EDITS.get(op.kind)
    if edit is None:
        raise NotApplicable(f"unknown operation kind {op.kind!r}")
    point = op.point
    _, _, at_block, at_index, env = _locate(parent, point, op.located)  # raises StalePoint
    if env is None:
        env = _env_before(parent, point)
    edited = parent.function(point.statement.function)
    if edit is _genprog_edit:
        ingredient = None if op.kind == "Remove" else op.payload["ingredient"]
        _admit_ingredient(op.kind, ingredient, env)
        error = _certain_type_error(
            parent, edited, point.path, at_block, at_index, op.kind, ingredient, env
        )
        if error is not None:
            raise TypeCheckFailed(error)
    fn, owner, block, index = copy_path(edited, point.path)
    payload = dict(op.payload)
    written = edit(op.kind, block, index, payload, env, rng, parent)
    if not block and isinstance(owner, IfStmt) and owner.else_body is block:
        owner.else_body = None
    child = parent.replacing(edited, fn)
    _finish(child, fn, written, len(point.path))
    return child, PatchOp(op.kind, point, payload, op.generation)


# --- enumeration ----------------------------------------------------------


class GenprogOps(Sequence):
    """The jgenprog operations at a point, in `enumerate_ops` order: Remove,
    then for each ingredient that fits the point's environment a Replace
    and, unless it is return-rooted, an InsertBefore. A draw takes one, so
    only the PatchOp indexed is built; it carries the point `located`."""

    def __init__(self, located: Located, fitting: list[Ingredient]):
        self.point = located.point
        self.located = located
        self.fitting = fitting
        rooted = sum([ingredient.is_return_rooted for ingredient in fitting])
        self.length = 1 + 2 * len(fitting) - rooted

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> PatchOp:
        if i == 0:
            return PatchOp("Remove", self.point, located=self.located)
        for ingredient in self.fitting if i > 0 else ():
            for kind in ("Replace",) if ingredient.is_return_rooted else ("Replace", "InsertBefore"):
                i -= 1
                if i == 0:
                    return PatchOp(kind, self.point, {"ingredient": ingredient}, located=self.located)
        raise IndexError("operation index out of range")


def enumerate_ops(
    mode: str, point: ModificationPoint, ast: SourceUnit, pool: IngredientPool = EMPTY_POOL
) -> Sequence[PatchOp]:
    """Every applicable operation of the mode at the point, in a fixed order.

    Template parameters that are drawn at application time are left
    unresolved here (one op per template kind per site); mutation ops
    are fully concrete (one per site per replacement operator). The
    jgenprog operations come as a `GenprogOps` sequence, the others as a
    list. Every op carries the point resolved in `ast`, where `pool`
    (harvested for this point of `ast`) found it already.
    """
    located = _locate(ast, point, pool.located)
    if mode == "jgenprog":
        # An ingredient fits when every free variable is bound, with its type.
        env = _env_before(ast, point)
        bound = env.items()
        fitting = [ing for ing in pool.entries if bound >= ing.free_vars]
        return GenprogOps(located._replace(env=env), fitting)
    stmt = located.block[located.index]
    ops: list[PatchOp] = []
    if mode == "jpar":
        for site in range(len(index_access_sites(stmt))):
            ops.append(PatchOp("TemplateGuardArrayAccess", point, {"site": site}, located=located))
        if isinstance(stmt, (IfStmt, WhileStmt)):
            ops.append(PatchOp("TemplateMutateConditionTerm", point, located=located))
        for site in range(len(call_sites(stmt))):
            ops.append(PatchOp("TemplateSwapCallArg", point, {"site": site}, located=located))
    elif mode == "jmutrepair":
        for kind, family in _MUTATION_FAMILIES.items():
            for site, node in enumerate(binary_sites(stmt, family)):
                if kind == "MutLogicalOp":
                    ops.append(PatchOp(kind, point, {"site": site}, located=located))
                    continue
                for replacement in family:
                    if replacement != node.op:
                        payload = {"site": site, "replacement": replacement}
                        ops.append(PatchOp(kind, point, payload, located=located))
        if isinstance(stmt, (IfStmt, WhileStmt)):
            ops.append(PatchOp("MutNegateCondition", point, located=located))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ops
