"""The tree-walking interpreter that the compiled one replaced, kept as the
reference oracle for differential tests.

`interpret_reference` has the signature and the results of
`minirepair.minilang.interpreter.interpret` and walks the AST directly.
Each MiniLang call costs it about six Python frames plus one per level of
nesting, so deep recursion needs a raised recursion limit; the tests
raise it around each run.

Statements carry no id: `statement_positions` numbers them by its own
walk, the pre-order numbering that `normalize` once stored on each
statement, and the machine reads each statement's id from it.
"""

from __future__ import annotations

from minirepair.minilang.interpreter import (
    BUDGET_EXHAUSTED,
    INT_MAX,
    INT_MIN,
    RETURNED,
    RUNTIME_ERROR,
    ExecutionResult,
    Value,
    values_equal,
)
from minirepair.minilang.nodes import (
    ArrayLit,
    AssignStmt,
    Binary,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
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
    Unary,
    Var,
    WhileStmt,
)


def statement_positions(unit: SourceUnit):
    """Every statement of the unit as (id, path, statement): functions in
    declaration order, each function's statements numbered from 0 in
    pre-order (a statement before its then, else or loop body)."""
    for fn in unit.functions:
        count = 0

        def walk(block, slot, prefix):
            nonlocal count
            for index, stmt in enumerate(block):
                path = prefix + ((slot, index),)
                yield StatementId(fn.name, count), path, stmt
                count += 1
                if isinstance(stmt, IfStmt):
                    yield from walk(stmt.then_body, "then", path)
                    if stmt.else_body is not None:
                        yield from walk(stmt.else_body, "else", path)
                elif isinstance(stmt, WhileStmt):
                    yield from walk(stmt.body, "body", path)

        yield from walk(fn.body, "body", ())


class _Trap(Exception):
    def __init__(self, kind: str, at):
        self.kind = kind
        self.at = at


class _BudgetExhausted(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value):
        self.value = value


class _Machine:
    def __init__(self, unit: SourceUnit, step_budget: int, max_call_depth: int):
        self.functions = {fn.name: fn for fn in unit.functions}
        self.ids = {id(stmt): sid for sid, _, stmt in statement_positions(unit)}
        self.budget = step_budget
        self.max_call_depth = max_call_depth
        self.steps = 0
        self.executed: set[StatementId] = set()
        self.depth = 0
        self.current: StatementId | None = None

    def trap(self, kind: str) -> _Trap:
        return _Trap(kind, self.current)

    # -- statements ----------------------------------------------------

    def begin(self, stmt: Stmt) -> None:
        if self.steps >= self.budget:
            raise _BudgetExhausted()
        self.steps += 1
        self.current = self.ids[id(stmt)]
        self.executed.add(self.current)

    def exec_block(self, block: list[Stmt], env: list[dict]) -> None:
        for stmt in block:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: Stmt, env: list[dict]) -> None:
        if isinstance(stmt, WhileStmt):
            while True:
                self.begin(stmt)
                if not self.eval(stmt.cond, env):
                    return
                env.append({})
                try:
                    self.exec_block(stmt.body, env)
                finally:
                    env.pop()
            return
        self.begin(stmt)
        if isinstance(stmt, LetStmt):
            env[-1][stmt.name] = self.eval(stmt.value, env)
        elif isinstance(stmt, AssignStmt):
            value = self.eval(stmt.value, env)
            for frame in reversed(env):
                if stmt.name in frame:
                    frame[stmt.name] = value
                    return
            raise self.trap("unbound-variable")
        elif isinstance(stmt, IndexAssignStmt):
            array = self.load(stmt.name, env)
            index = self.eval(stmt.index, env)
            value = self.eval(stmt.value, env)
            if not 0 <= index < len(array):
                raise self.trap("index-out-of-bounds")
            array[index] = value
        elif isinstance(stmt, IfStmt):
            branch = stmt.then_body if self.eval(stmt.cond, env) else stmt.else_body
            if branch is not None:
                env.append({})
                try:
                    self.exec_block(branch, env)
                finally:
                    env.pop()
        elif isinstance(stmt, ReturnStmt):
            raise _Return(self.eval(stmt.value, env))
        elif isinstance(stmt, ExprStmt):
            self.eval(stmt.value, env)
        else:
            raise self.trap("unknown-statement")

    # -- expressions ---------------------------------------------------

    def load(self, name: str, env: list[dict]) -> Value:
        for frame in reversed(env):
            if name in frame:
                return frame[name]
        raise self.trap("unbound-variable")

    def eval(self, expr: Expr, env: list[dict]) -> Value:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Var):
            return self.load(expr.name, env)
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return self.check_int(-operand)
            return not operand
        if isinstance(expr, Binary):
            return self.eval_binary(expr, env)
        if isinstance(expr, Index):
            array = self.load(expr.name, env)
            index = self.eval(expr.index, env)
            if not 0 <= index < len(array):
                raise self.trap("index-out-of-bounds")
            return array[index]
        if isinstance(expr, Len):
            return len(self.eval(expr.arg, env))
        if isinstance(expr, Call):
            args = [self.eval(a, env) for a in expr.args]
            return self.call(expr.fn, args)
        if isinstance(expr, ArrayLit):
            return [self.eval(i, env) for i in expr.items]
        raise self.trap("unknown-expression")

    def eval_binary(self, expr: Binary, env: list[dict]) -> Value:
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.lhs, env)) and bool(self.eval(expr.rhs, env))
        if op == "||":
            return bool(self.eval(expr.lhs, env)) or bool(self.eval(expr.rhs, env))
        lhs = self.eval(expr.lhs, env)
        rhs = self.eval(expr.rhs, env)
        if op == "+":
            return self.check_int(lhs + rhs)
        if op == "-":
            return self.check_int(lhs - rhs)
        if op == "*":
            return self.check_int(lhs * rhs)
        if op == "/":
            if rhs == 0:
                raise self.trap("division-by-zero")
            return self.check_int(_trunc_div(lhs, rhs))
        if op == "%":
            if rhs == 0:
                raise self.trap("modulo-by-zero")
            return lhs - _trunc_div(lhs, rhs) * rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "==":
            return values_equal(lhs, rhs)
        if op == "!=":
            return not values_equal(lhs, rhs)
        raise self.trap("unknown-operator")

    def check_int(self, value: int) -> int:
        if not INT_MIN <= value <= INT_MAX:
            raise self.trap("integer-overflow")
        return value

    # -- calls -----------------------------------------------------------

    def call(self, fn_name: str, args: list[Value]) -> Value:
        fn = self.functions.get(fn_name)
        if fn is None:
            raise self.trap("unknown-function")
        if self.depth >= self.max_call_depth:
            raise self.trap("call-depth-exceeded")
        self.depth += 1
        caller_stmt = self.current
        env: list[dict] = [{name: value for (name, _), value in zip(fn.params, args)}]
        try:
            self.exec_block(fn.body, env)
        except _Return as ret:
            return ret.value
        finally:
            self.depth -= 1
            self.current = caller_stmt
        raise self.trap("missing-return")


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def interpret_reference(
    unit: SourceUnit,
    fn_name: str,
    args: list[Value],
    step_budget: int,
    max_call_depth: int = 200,
) -> ExecutionResult:
    """Run `fn_name(args)` by walking the AST; same contract as `interpret`."""
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    fn = unit.function(fn_name)
    if fn is None:
        raise ValueError(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise ValueError(f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    machine = _Machine(unit, step_budget, max_call_depth)
    call_args = [list(a) if isinstance(a, list) else a for a in args]
    try:
        value = machine.call(fn_name, call_args)
        return ExecutionResult(
            RETURNED, value=value, executed=machine.executed, steps_used=machine.steps
        )
    except _Trap as trap:
        return ExecutionResult(
            RUNTIME_ERROR,
            error_kind=trap.kind,
            error_at=trap.at,
            executed=machine.executed,
            steps_used=machine.steps,
        )
    except _BudgetExhausted:
        return ExecutionResult(
            BUDGET_EXHAUSTED, executed=machine.executed, steps_used=machine.steps
        )
