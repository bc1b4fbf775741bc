"""Static checks: typing, name binding, and return-path analysis.

MiniLang is statically typed with three types. `let` introduces a
block-scoped variable; redeclaring a name that is already visible
(including shadowing an outer binding) is an error, so every name has a
unique type at any program point. A function is well-formed only when
every control path that falls off its end is impossible, i.e. its body
definitely returns.

`check_unit` and its per-function part `check_function` are the only
code that infers types: besides accepting or rejecting a unit, they
return the binding environment just before each statement, which the
repair operators read.
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
    ReturnStmt,
    SourceUnit,
    StatementId,
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


def signatures(unit: SourceUnit) -> dict[str, Signature]:
    sigs: dict[str, Signature] = {}
    for fn in unit.functions:
        if fn.name in sigs:
            raise CheckError(f"duplicate function {fn.name!r}")
        sigs[fn.name] = (tuple(t for _, t in fn.params), fn.return_type)
    return sigs


def check_unit(unit: SourceUnit) -> dict[StatementId, Env]:
    """Type-check the whole unit; raises CheckError on the first violation.

    Returns the binding environment just before each statement, keyed by
    its id (the unit is normalized): the parameters plus every `let`
    earlier in the same block or in an enclosing block.
    """
    sigs = signatures(unit)
    envs: dict[StatementId, Env] = {}
    for fn in unit.functions:
        envs |= check_function(fn, sigs)
    return envs


def check_function(fn: FunctionDef, sigs: dict[str, Signature]) -> dict[StatementId, Env]:
    """`check_unit` for one function against the unit's signatures: a
    function's typing depends on nothing else, so an edit to one function
    needs only this."""
    env: Env = {}
    for name, type_ in fn.params:
        if name in env:
            raise CheckError(f"duplicate parameter {name!r} in function {fn.name!r}")
        env[name] = type_
    envs: dict[StatementId, Env] = {}
    _check_block(fn.body, env, fn, sigs, envs)
    if not _block_returns(fn.body):
        raise CheckError(f"missing return on some path through function {fn.name!r}")
    return envs


def _check_block(block: list[Stmt], env: Env, fn: FunctionDef, sigs, envs) -> None:
    """Check a block in `env`, then drop the names the block declared:
    with no redeclaration or shadowing, one flat dict serves every block."""
    declared = []
    for stmt in block:
        envs[stmt.stmt_id] = dict(env)
        _check_stmt(stmt, env, fn, sigs, envs)
        if isinstance(stmt, LetStmt):
            declared.append(stmt.name)
    for name in declared:
        del env[name]


def _check_stmt(stmt: Stmt, env: Env, fn: FunctionDef, sigs, envs) -> None:
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
        for _, block in child_blocks(stmt):
            _check_block(block, env, fn, sigs, envs)
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
        if expr.fn not in sigs:
            raise _err(f"call to unknown function {expr.fn!r}", expr)
        param_types, return_type = sigs[expr.fn]
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


def typed_free_vars(stmt: Stmt, origin_env: dict[str, str]) -> frozenset[tuple[str, str]]:
    """Variables a statement reads or writes without binding them itself.

    Types are taken from `origin_env`, the binding environment at the
    statement's original position.
    """
    free: set[tuple[str, str]] = set()

    def note(name: str, bound: list[set[str]]) -> None:
        if any(name in frame for frame in bound):
            return
        free.add((name, origin_env.get(name, "?")))

    def visit_stmt(s: Stmt, bound: list[set[str]]) -> None:
        for node in stmt_expr_nodes(s):
            if isinstance(node, (Var, Index)):
                note(node.name, bound)
        if isinstance(s, LetStmt):
            bound[-1].add(s.name)
        elif isinstance(s, (AssignStmt, IndexAssignStmt)):
            note(s.name, bound)
        for _, body in child_blocks(s):
            bound.append(set())
            for child in body:
                visit_stmt(child, bound)
            bound.pop()

    visit_stmt(stmt, [set()])
    return frozenset(free)
