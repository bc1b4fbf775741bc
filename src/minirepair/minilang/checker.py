"""Static checks: typing, name binding, and return-path analysis.

MiniLang is statically typed with three types. `let` introduces a
block-scoped variable; redeclaring a name that is already visible
(including shadowing an outer binding) is an error, so every name has a
unique type at any program point. A function is well-formed only when
every control path that falls off its end is impossible, i.e. its body
definitely returns.

`check_unit`, its per-function part `check_function`, and `check_edit`
are the only code that infers types. `check_unit` only accepts or
rejects a unit. `check_function` also returns the binding environment
just before each statement of its function, which the repair operators
read; statements carry no id, so it keys that table by structural path,
in pre-order. Asked only to accept or reject, it builds no table, and
`UnitSignatures` gives it a unit's signatures one callee at a time.
`check_edit` judges the child of one repair edit as `check_function`
would, from the edit alone: what it wrote, the rest of that block, and
the function's return coverage.
"""

from __future__ import annotations

from minirepair.minilang.errors import CheckError
from minirepair.minilang.nodes import (
    ArrayLit,
    AssignStmt,
    Binary,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FunctionDef,
    IfStmt,
    Index,
    IndexAssignStmt,
    IntLit,
    Len,
    LetStmt,
    Path,
    ReturnStmt,
    SourceUnit,
    Stmt,
    T_BOOL,
    T_INT,
    T_INT_ARRAY,
    Unary,
    Var,
    WhileStmt,
    child_blocks,
    stmt_expr_nodes,
)

ARITH = {"+", "-", "*", "/", "%"}
COMPARE = {"<", "<=", ">", ">="}
EQUALITY = {"==", "!="}
LOGIC = {"&&", "||"}

Signature = tuple[tuple[str, ...], str]  # (parameter types, return type)
Env = dict[str, str]  # variable name -> type


def _loc(node) -> tuple[int | None, int | None]:
    return node.loc if node.loc else (None, None)


def _err(message: str, node) -> CheckError:
    line, col = _loc(node)
    return CheckError(message, line, col)


def signature(fn: FunctionDef) -> Signature:
    return tuple(t for _, t in fn.params), fn.return_type


def signatures(unit: SourceUnit) -> dict[str, Signature]:
    sigs: dict[str, Signature] = {}
    for fn in unit.functions:
        if fn.name in sigs:
            raise CheckError(f"duplicate function {fn.name!r}")
        sigs[fn.name] = signature(fn)
    return sigs


class UnitSignatures:
    """`signatures(unit)` read one name at a time, with no table built: its
    `get` finds the named function in the unit. It does not look for
    duplicate names; a unit that `check_unit` accepted has none, and no
    repair operator adds, removes or renames a function."""

    __slots__ = ("unit",)

    def __init__(self, unit: SourceUnit):
        self.unit = unit

    def get(self, name: str) -> Signature | None:
        fn = self.unit.function(name)
        return None if fn is None else signature(fn)


def check_unit(unit: SourceUnit) -> None:
    """Type-check the whole unit; raises CheckError on the first violation."""
    sigs = signatures(unit)
    for fn in unit.functions:
        check_function(fn, sigs, table=False)


def check_function(fn: FunctionDef, sigs, table: bool = True) -> dict[Path, Env] | None:
    """`check_unit` for one function against the unit's signatures: a
    function's typing depends on nothing else, so an edit to one function
    needs only this. `sigs` is a `signatures` dict or anything else with
    its `get`, such as `UnitSignatures`. Returns the binding environment
    just before each statement, keyed by its path, in pre-order: the
    parameters plus every `let` earlier in the same block or in an
    enclosing block. Without `table` it only accepts or rejects, and
    returns None."""
    env: Env = {}
    for name, type_ in fn.params:
        if name in env:
            raise CheckError(f"duplicate parameter {name!r} in function {fn.name!r}")
        env[name] = type_
    envs: dict[Path, Env] | None = {} if table else None
    _check_block(fn.body, "body", (), env, fn, sigs, envs)
    if not _block_returns(fn.body):
        raise CheckError(f"missing return on some path through function {fn.name!r}")
    return envs


def _check_block(block: list[Stmt], slot: str, prefix: Path, env: Env, fn, sigs, envs) -> None:
    """Check a block, which `prefix` and `slot` address, in `env`, then drop
    the names the block declared: with no redeclaration or shadowing, one
    flat dict serves every block. With no `envs` table, no path is made."""
    declared = []
    for index, stmt in enumerate(block):
        path = None
        if envs is not None:
            path = prefix + ((slot, index),)
            envs[path] = dict(env)
        _check_stmt(stmt, path, env, fn, sigs, envs)
        if isinstance(stmt, LetStmt):
            declared.append(stmt.name)
    for name in declared:
        del env[name]


def _check_stmt(stmt: Stmt, path: Path, env: Env, fn: FunctionDef, sigs, envs) -> None:
    if isinstance(stmt, LetStmt):
        value_t = _check_expr(stmt.value, env, sigs)
        if stmt.name in env:
            raise _err(f"redeclaration of {stmt.name!r}", stmt)
        env[stmt.name] = value_t
    elif isinstance(stmt, AssignStmt):
        var_t = env.get(stmt.name)
        if var_t is None:
            raise _err(f"assignment to unbound variable {stmt.name!r}", stmt)
        value_t = _check_expr(stmt.value, env, sigs)
        if value_t != var_t:
            raise _err(f"cannot assign {value_t} to {stmt.name!r} of type {var_t}", stmt)
    elif isinstance(stmt, IndexAssignStmt):
        arr_t = env.get(stmt.name)
        if arr_t is None:
            raise _err(f"unbound variable {stmt.name!r}", stmt)
        if arr_t != T_INT_ARRAY:
            raise _err(f"{stmt.name!r} is not an array", stmt)
        if _check_expr(stmt.index, env, sigs) != T_INT:
            raise _err("array index must be int", stmt)
        if _check_expr(stmt.value, env, sigs) != T_INT:
            raise _err("array element must be int", stmt)
    elif isinstance(stmt, (IfStmt, WhileStmt)):
        if _check_expr(stmt.cond, env, sigs) != T_BOOL:
            kind = "if" if isinstance(stmt, IfStmt) else "while"
            raise _err(f"{kind} condition must be bool", stmt)
        for slot, block in child_blocks(stmt):
            _check_block(block, slot, path, env, fn, sigs, envs)
    elif isinstance(stmt, ReturnStmt):
        value_t = _check_expr(stmt.value, env, sigs)
        if value_t != fn.return_type:
            raise _err(f"returning {value_t} from function of type {fn.return_type}", stmt)
    elif isinstance(stmt, ExprStmt):
        _check_expr(stmt.value, env, sigs)
    else:  # pragma: no cover - parser produces no other kinds
        raise _err(f"unknown statement kind {type(stmt).__name__}", stmt)


def _check_expr(expr: Expr, env: Env, sigs) -> str:
    if isinstance(expr, IntLit):
        return T_INT
    if isinstance(expr, BoolLit):
        return T_BOOL
    if isinstance(expr, Var):
        t = env.get(expr.name)
        if t is None:
            raise _err(f"unbound variable {expr.name!r}", expr)
        return t
    if isinstance(expr, Unary):
        operand_t = _check_expr(expr.operand, env, sigs)
        if expr.op == "-":
            if operand_t != T_INT:
                raise _err("unary '-' needs an int operand", expr)
            return T_INT
        if operand_t != T_BOOL:
            raise _err("'!' needs a bool operand", expr)
        return T_BOOL
    if isinstance(expr, Binary):
        lhs_t = _check_expr(expr.lhs, env, sigs)
        rhs_t = _check_expr(expr.rhs, env, sigs)
        if expr.op in ARITH:
            if lhs_t != T_INT or rhs_t != T_INT:
                raise _err(f"operator {expr.op!r} needs int operands", expr)
            return T_INT
        if expr.op in COMPARE:
            if lhs_t != T_INT or rhs_t != T_INT:
                raise _err(f"operator {expr.op!r} needs int operands", expr)
            return T_BOOL
        if expr.op in EQUALITY:
            if lhs_t != rhs_t:
                raise _err(f"operator {expr.op!r} needs same-typed operands", expr)
            return T_BOOL
        if expr.op in LOGIC:
            if lhs_t != T_BOOL or rhs_t != T_BOOL:
                raise _err(f"operator {expr.op!r} needs bool operands", expr)
            return T_BOOL
        raise _err(f"unknown operator {expr.op!r}", expr)
    if isinstance(expr, Index):
        arr_t = env.get(expr.name)
        if arr_t is None:
            raise _err(f"unbound variable {expr.name!r}", expr)
        if arr_t != T_INT_ARRAY:
            raise _err(f"{expr.name!r} is not an array", expr)
        if _check_expr(expr.index, env, sigs) != T_INT:
            raise _err("array index must be int", expr)
        return T_INT
    if isinstance(expr, Len):
        if _check_expr(expr.arg, env, sigs) != T_INT_ARRAY:
            raise _err("len() needs an array argument", expr)
        return T_INT
    if isinstance(expr, Call):
        sig = sigs.get(expr.fn)
        if sig is None:
            raise _err(f"call to unknown function {expr.fn!r}", expr)
        param_types, return_type = sig
        if len(expr.args) != len(param_types):
            raise _err(
                f"{expr.fn!r} takes {len(param_types)} arguments, got {len(expr.args)}", expr
            )
        for arg, want in zip(expr.args, param_types):
            if _check_expr(arg, env, sigs) != want:
                raise _err(f"argument type mismatch in call to {expr.fn!r}", expr)
        return return_type
    if isinstance(expr, ArrayLit):
        for item in expr.items:
            if _check_expr(item, env, sigs) != T_INT:
                raise _err("array literal elements must be int", expr)
        return T_INT_ARRAY
    raise _err(f"unknown expression kind {type(expr).__name__}", expr)  # pragma: no cover


def _block_returns(block: list[Stmt]) -> bool:
    return any(_stmt_returns(s) for s in block)


def _stmt_returns(stmt: Stmt) -> bool:
    if isinstance(stmt, ReturnStmt):
        return True
    if isinstance(stmt, IfStmt) and stmt.else_body is not None:
        return _block_returns(stmt.then_body) and _block_returns(stmt.else_body)
    return False


def returns_after_edit(block: list[Stmt], path: Path, written: list[Stmt]) -> bool:
    """`_block_returns(block)` once the statements `written` stand in place
    of the statement that `path` leads to from `block` (none for a
    removal). A branch that the edit empties returns no more, so an `if`
    whose emptied else branch is dropped is judged alike."""
    index = path[0][1]
    for i, stmt in enumerate(block):
        if i != index:
            returns = _stmt_returns(stmt)
        elif len(path) == 1:
            returns = _block_returns(written)
        else:
            slot = path[1][0]
            returns = (
                isinstance(stmt, IfStmt)
                and stmt.else_body is not None
                and all(
                    returns_after_edit(body, path[1:], written)
                    if name == slot
                    else _block_returns(body)
                    for name, body in child_blocks(stmt)
                )
            )
        if returns:
            return True
    return False


def check_edit(fn: FunctionDef, path: Path, written: list[Stmt], env: Env, sigs) -> None:
    """Type-check an edit of `fn`, a well-typed function, against the
    unit's signatures `sigs`: the statements `written` stand in place of
    the statement `path` leads to (none for a removal; the inserted
    statement and then that statement for an insertion), and `env` is the
    binding environment before it, which is left as it is. Raises
    CheckError exactly when `check_function` would on the edited
    function, checking in order:
    - `written`, typed in `env`;
    - the rest of their block, typed in the environment they leave;
    - return coverage (`returns_after_edit`).

    Nothing else can change the verdict: `fn` is well typed, and the names
    a block declares do not escape it, so every statement before the edit
    and every statement after the edited block is typed in the environment
    it has in `fn`."""
    block = fn.body
    for (_, index), (slot, _) in zip(path, path[1:]):
        block = dict(child_blocks(block[index]))[slot]
    env = dict(env)
    for stmt in written + block[path[-1][1] + 1 :]:
        _check_stmt(stmt, None, env, fn, sigs, None)
    if not returns_after_edit(fn.body, path, written):
        raise CheckError(f"missing return on some path through function {fn.name!r}")


def typed_free_vars(stmt: Stmt, origin_env: dict[str, str]) -> frozenset[tuple[str, str]]:
    """Variables a statement reads or writes without binding them itself.

    Types are taken from `origin_env`, the binding environment at the
    statement's original position. The walk is the module-level
    `_note_free`, not a nested closure: a closure that calls itself holds
    its own cell, a reference cycle that only the cyclic collector frees,
    and a search makes none (`engine.evolve` runs with it paused).
    """
    free: set[tuple[str, str]] = set()
    _note_free(stmt, [set()], origin_env, free)
    return frozenset(free)


def _note_free(stmt: Stmt, bound: list[set[str]], origin_env: dict[str, str], free: set) -> None:
    """Add to `free` each `(name, type)` that `stmt` uses and no frame of
    `bound`, the names bound by each enclosing block, binds."""
    names = [node.name for node in stmt_expr_nodes(stmt) if isinstance(node, (Var, Index))]
    if isinstance(stmt, (AssignStmt, IndexAssignStmt)):
        names.append(stmt.name)
    for name in names:
        if not any(name in frame for frame in bound):
            free.add((name, origin_env.get(name, "?")))
    if isinstance(stmt, LetStmt):
        bound[-1].add(stmt.name)
    for _, body in child_blocks(stmt):
        bound.append(set())
        for child in body:
            _note_free(child, bound, origin_env, free)
        bound.pop()
