"""The ingredient harvester and binding environment as they were before
the per-unit ingredient cache, kept as the test oracle.

`harvest_reference` walks every statement on each call, recomputes its
path and its origin's binding environment, and returns the pool as
(condensed text, origin, typed free variables) triples.
`binding_env_reference` rebuilds the unit's signatures for every
dominating `let`. The statement copies the old harvester made are left
out: they do not change what the triples hold.
"""

from __future__ import annotations

from minirepair.minilang.checker import infer_expr_type, signatures, typed_free_vars
from minirepair.minilang.nodes import IfStmt, LetStmt, WhileStmt, iter_statements, path_of
from minirepair.minilang.printer import print_stmt


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
    for sid, stmt in iter_statements(unit):
        if sid == point.statement:
            continue
        if scope == "local" and sid.function != point.statement.function:
            continue
        text = " ".join(print_stmt(stmt).split())
        if text in seen:
            continue
        seen.add(text)
        env = binding_env_reference(unit, sid.function, path_of(unit, sid)) or {}
        entries.append((text, sid, typed_free_vars(stmt, env)))
    return entries
