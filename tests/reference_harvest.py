"""The ingredient harvester and binding environment as they were before
the per-unit ingredient cache, kept as the test oracle.

`harvest_reference` walks every statement on each call, recomputes its
path and its origin's binding environment, and returns the pool as
(condensed text, origin, typed free variables) triples.
`binding_env_reference` rebuilds the unit's signatures for every
dominating `let` and infers its type with `infer_expr_type`, a second
inference that trusts the unit to be well typed. The statement copies the
old harvester made are left out: they do not change what the triples
hold. The statement excluded is the one the point's path resolves to.
Ids and paths come from the reference interpreter's own positional
numbering (`statement_positions`).
"""

from __future__ import annotations

from minirepair.minilang.checker import ARITH, signatures, typed_free_vars
from minirepair.minilang.nodes import (
    ArrayLit,
    Binary,
    BoolLit,
    Call,
    IfStmt,
    Index,
    IntLit,
    Len,
    LetStmt,
    T_BOOL,
    T_INT,
    T_INT_ARRAY,
    Unary,
    Var,
    WhileStmt,
    resolve_container,
)
from minirepair.minilang.printer import print_stmt

from reference_interpreter import statement_positions


def infer_expr_type(expr, env, sigs):
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


def binding_env_reference(unit, function, path):
    fn = unit.function(function)
    if fn is None or not path or path[0][0] != "body":
        return None
    env = dict(fn.params)
    block = fn.body
    for step, (_, index) in enumerate(path):
        if index >= len(block):
            return None
        for stmt in block[:index]:
            if isinstance(stmt, LetStmt):
                env[stmt.name] = infer_expr_type(stmt.value, env, signatures(unit))
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


def harvest_reference(unit, point, scope):
    entries = []
    seen = set()
    located = resolve_container(unit, point.statement.function, point.path)
    excluded = None if located is None else located[0][located[1]]
    for sid, path, stmt in statement_positions(unit):
        if stmt is excluded:
            continue
        if scope == "local" and sid.function != point.statement.function:
            continue
        text = " ".join(print_stmt(stmt).split())
        if text in seen:
            continue
        seen.add(text)
        env = binding_env_reference(unit, sid.function, path) or {}
        entries.append((text, sid, typed_free_vars(stmt, env)))
    return entries
