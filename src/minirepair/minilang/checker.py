"""Static checks: typing, name binding, and return-path analysis.

MiniLang is statically typed with three types. `let` introduces a
block-scoped variable; redeclaring a name that is already visible
(including shadowing an outer binding) is an error, so every name has a
unique type at any program point. A function is well-formed only when
every control path that falls off its end is impossible, i.e. its body
definitely returns.
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
)

ARITH = {"+", "-", "*", "/", "%"}
COMPARE = {"<", "<=", ">", ">="}
EQUALITY = {"==", "!="}
LOGIC = {"&&", "||"}

Signature = tuple[tuple[str, ...], str]  # (parameter types, return type)


def _loc(node) -> tuple[int | None, int | None]:
    return node.loc if node.loc else (None, None)


def _err(message: str, node) -> CheckError:
    line, col = _loc(node)
    return CheckError(message, line, col)


class _Scope:
    """Chain of block frames mapping names to types."""

    def __init__(self, params: list[tuple[str, str]], fn: FunctionDef):
        seen = set()
        for name, _ in params:
            if name in seen:
                raise CheckError(f"duplicate parameter {name!r} in function {fn.name!r}")
            seen.add(name)
        self.frames: list[dict[str, str]] = [dict(params)]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def lookup(self, name: str) -> str | None:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def declare(self, name: str, type_: str, node: Stmt) -> None:
        if self.lookup(name) is not None:
            raise _err(f"redeclaration of {name!r}", node)
        self.frames[-1][name] = type_


def signatures(unit: SourceUnit) -> dict[str, Signature]:
    sigs: dict[str, Signature] = {}
    for fn in unit.functions:
        if fn.name in sigs:
            raise CheckError(f"duplicate function {fn.name!r}")
        sigs[fn.name] = (tuple(t for _, t in fn.params), fn.return_type)
    return sigs


def check_unit(unit: SourceUnit) -> None:
    """Type-check the whole unit; raises CheckError on the first violation."""
    sigs = signatures(unit)
    for fn in unit.functions:
        scope = _Scope(fn.params, fn)
        _check_block(fn.body, scope, fn, sigs)
        if not _block_returns(fn.body):
            raise CheckError(f"missing return on some path through function {fn.name!r}")


def _check_block(block: list[Stmt], scope: _Scope, fn: FunctionDef, sigs) -> None:
    for stmt in block:
        _check_stmt(stmt, scope, fn, sigs)


def _check_stmt(stmt: Stmt, scope: _Scope, fn: FunctionDef, sigs) -> None:
    if isinstance(stmt, LetStmt):
        value_t = _check_expr(stmt.value, scope, sigs)
        scope.declare(stmt.name, value_t, stmt)
    elif isinstance(stmt, AssignStmt):
        var_t = scope.lookup(stmt.name)
        if var_t is None:
            raise _err(f"assignment to unbound variable {stmt.name!r}", stmt)
        value_t = _check_expr(stmt.value, scope, sigs)
        if value_t != var_t:
            raise _err(f"cannot assign {value_t} to {stmt.name!r} of type {var_t}", stmt)
    elif isinstance(stmt, IndexAssignStmt):
        arr_t = scope.lookup(stmt.name)
        if arr_t is None:
            raise _err(f"unbound variable {stmt.name!r}", stmt)
        if arr_t != T_INT_ARRAY:
            raise _err(f"{stmt.name!r} is not an array", stmt)
        if _check_expr(stmt.index, scope, sigs) != T_INT:
            raise _err("array index must be int", stmt)
        if _check_expr(stmt.value, scope, sigs) != T_INT:
            raise _err("array element must be int", stmt)
    elif isinstance(stmt, IfStmt):
        if _check_expr(stmt.cond, scope, sigs) != T_BOOL:
            raise _err("if condition must be bool", stmt)
        scope.push()
        _check_block(stmt.then_body, scope, fn, sigs)
        scope.pop()
        if stmt.else_body is not None:
            scope.push()
            _check_block(stmt.else_body, scope, fn, sigs)
            scope.pop()
    elif isinstance(stmt, WhileStmt):
        if _check_expr(stmt.cond, scope, sigs) != T_BOOL:
            raise _err("while condition must be bool", stmt)
        scope.push()
        _check_block(stmt.body, scope, fn, sigs)
        scope.pop()
    elif isinstance(stmt, ReturnStmt):
        value_t = _check_expr(stmt.value, scope, sigs)
        if value_t != fn.return_type:
            raise _err(f"returning {value_t} from function of type {fn.return_type}", stmt)
    elif isinstance(stmt, ExprStmt):
        _check_expr(stmt.value, scope, sigs)
    else:  # pragma: no cover - parser produces no other kinds
        raise _err(f"unknown statement kind {type(stmt).__name__}", stmt)


def _check_expr(expr: Expr, scope: _Scope, sigs) -> str:
    if isinstance(expr, IntLit):
        return T_INT
    if isinstance(expr, BoolLit):
        return T_BOOL
    if isinstance(expr, Var):
        t = scope.lookup(expr.name)
        if t is None:
            raise _err(f"unbound variable {expr.name!r}", expr)
        return t
    if isinstance(expr, Unary):
        operand_t = _check_expr(expr.operand, scope, sigs)
        if expr.op == "-":
            if operand_t != T_INT:
                raise _err("unary '-' needs an int operand", expr)
            return T_INT
        if operand_t != T_BOOL:
            raise _err("'!' needs a bool operand", expr)
        return T_BOOL
    if isinstance(expr, Binary):
        lhs_t = _check_expr(expr.lhs, scope, sigs)
        rhs_t = _check_expr(expr.rhs, scope, sigs)
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
        arr_t = scope.lookup(expr.name)
        if arr_t is None:
            raise _err(f"unbound variable {expr.name!r}", expr)
        if arr_t != T_INT_ARRAY:
            raise _err(f"{expr.name!r} is not an array", expr)
        if _check_expr(expr.index, scope, sigs) != T_INT:
            raise _err("array index must be int", expr)
        return T_INT
    if isinstance(expr, Len):
        if _check_expr(expr.arg, scope, sigs) != T_INT_ARRAY:
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
            if _check_expr(arg, scope, sigs) != want:
                raise _err(f"argument type mismatch in call to {expr.fn!r}", expr)
        return return_type
    if isinstance(expr, ArrayLit):
        for item in expr.items:
            if _check_expr(item, scope, sigs) != T_INT:
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


def binding_env_at(unit: SourceUnit, function: str, path: Path) -> dict[str, str] | None:
    """Names visible just before the statement addressed by `path`.

    Covers the parameters plus every `let` that dominates the position:
    earlier in the same block or earlier in any enclosing block on the
    path. Returns None when the path is stale.
    """
    fn = unit.function(function)
    if fn is None or not path or path[0][0] != "body":
        return None
    sigs = signatures(unit)
    env = dict(fn.params)
    block = fn.body
    for step, (_, index) in enumerate(path):
        if index >= len(block):
            return None
        for stmt in block[:index]:
            if isinstance(stmt, LetStmt):
                # Well-typed units make this total: `infer_expr_type`
                # mirrors the checker's rules without re-validating them.
                env[stmt.name] = infer_expr_type(stmt.value, env, sigs)
        if step == len(path) - 1:
            return env
        next_block = None
        stmt = block[index]
        if isinstance(stmt, IfStmt) and path[step + 1][0] == "then":
            next_block = stmt.then_body
        elif isinstance(stmt, IfStmt) and path[step + 1][0] == "else":
            next_block = stmt.else_body
        elif isinstance(stmt, WhileStmt) and path[step + 1][0] == "body":
            next_block = stmt.body
        if next_block is None:
            return None
        block = next_block
    return None


def infer_expr_type(expr: Expr, env: dict[str, str], sigs: dict[str, Signature]) -> str:
    if isinstance(expr, IntLit):
        return T_INT
    if isinstance(expr, BoolLit):
        return T_BOOL
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Unary):
        return T_INT if expr.op == "-" else T_BOOL
    if isinstance(expr, Binary):
        return T_INT if expr.op in ARITH else T_BOOL
    if isinstance(expr, (Index, Len)):
        return T_INT
    if isinstance(expr, Call):
        return sigs[expr.fn][1]
    if isinstance(expr, ArrayLit):
        return T_INT_ARRAY
    raise ValueError(f"unknown expression kind {type(expr).__name__}")


def typed_free_vars(stmt: Stmt, origin_env: dict[str, str]) -> frozenset[tuple[str, str]]:
    """Variables a statement reads or writes without binding them itself.

    Types are taken from `origin_env`, the binding environment at the
    statement's original position.
    """
    free: set[tuple[str, str]] = set()

    def visit_expr(expr: Expr, bound: list[set[str]]) -> None:
        if isinstance(expr, Var):
            note(expr.name, bound)
        elif isinstance(expr, Unary):
            visit_expr(expr.operand, bound)
        elif isinstance(expr, Binary):
            visit_expr(expr.lhs, bound)
            visit_expr(expr.rhs, bound)
        elif isinstance(expr, Index):
            note(expr.name, bound)
            visit_expr(expr.index, bound)
        elif isinstance(expr, Len):
            visit_expr(expr.arg, bound)
        elif isinstance(expr, Call):
            for arg in expr.args:
                visit_expr(arg, bound)
        elif isinstance(expr, ArrayLit):
            for item in expr.items:
                visit_expr(item, bound)

    def note(name: str, bound: list[set[str]]) -> None:
        if any(name in frame for frame in bound):
            return
        free.add((name, origin_env.get(name, "?")))

    def visit_stmt(s: Stmt, bound: list[set[str]]) -> None:
        if isinstance(s, LetStmt):
            visit_expr(s.value, bound)
            bound[-1].add(s.name)
        elif isinstance(s, AssignStmt):
            visit_expr(s.value, bound)
            note(s.name, bound)
        elif isinstance(s, IndexAssignStmt):
            note(s.name, bound)
            visit_expr(s.index, bound)
            visit_expr(s.value, bound)
        elif isinstance(s, IfStmt):
            visit_expr(s.cond, bound)
            for body in (s.then_body, s.else_body or []):
                bound.append(set())
                for child in body:
                    visit_stmt(child, bound)
                bound.pop()
        elif isinstance(s, WhileStmt):
            visit_expr(s.cond, bound)
            bound.append(set())
            for child in s.body:
                visit_stmt(child, bound)
            bound.pop()
        elif isinstance(s, (ReturnStmt, ExprStmt)):
            visit_expr(s.value, bound)

    visit_stmt(stmt, [set()])
    return frozenset(free)
