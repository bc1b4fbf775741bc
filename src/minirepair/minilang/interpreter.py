"""Closure-compiling interpreter with statement coverage and a step budget.

Execution is a pure function of (unit, call, budget): the language has
no I/O, no clock, and no randomness. Each statement evaluation costs one
step; re-evaluated loop headers pay again, which is what bounds infinite
loops. The `executed` set records exactly the ids of statements whose
evaluation began, at statement granularity (an if/while header is one
trace unit; its nested statements trace separately).

Semantics notes:
  - 64-bit signed integers with checked overflow.
  - `/` truncates toward zero, `%` takes the dividend's sign (C style);
    both trap on a zero divisor.
  - `&&` and `||` short-circuit.
  - Arrays are mutable references; array arguments are copied per call
    into the interpreter so runs never alias suite data.
  - MiniLang recursion is bounded by `MAX_CALL_DEPTH` in addition to the
    step budget; exceeding it is the `call-depth-exceeded` runtime error.

Compilation. A function is compiled on the first run that needs it, into
nested Python closures (Feeley & Lapalme, "Using closures for code
generation", 1987): variables become slots of one list per activation,
resolved when compiling, statements are numbered within their function
for coverage, and a runtime error is attributed to the statement that
contains the failing expression, also known when compiling. A call names
its callee, which each run looks up in its unit's name-to-code table when
the call is made, so a function's code depends on its own `FunctionDef`
alone. The code is kept on that object (`FunctionDef._code`) and the table
on the unit (`SourceUnit._compiled`); copies and pickles leave both out. A
variant that shares every function but one with its parent therefore
compiles one function. Contract: a function or unit is not edited after
its first run. Edit a copy and normalize it instead, as the repair
operators do. Units must be well typed (`check_unit` passes) and nest no
deeper than `MAX_NESTING`, as `parse` and every operator guarantee.

Loop cut. A run is deterministic and has no I/O, so a loop whose state at
its header repeats will repeat that stretch until the budget runs out.
Each loop entry snapshots its state at header visits 16, 32, 64, ... and
compares each of the next 64 visits with the snapshot. The state is every
binding visible at the header in the current activation, compared
type-strictly, with array contents and with which names share one array.
Caller frames cannot matter: a loop that never exits never returns. On a
match the run ends as budget exhaustion with `steps_used` equal to the
budget; `executed` is already final, since every statement of the repeated
stretch has begun once. `loop_cut_at` records the steps counted when the
cut fired.

Host stack. Compiling a function and running one MiniLang call each take
at most four Python frames per level of nesting, and no unit nests deeper
than `MAX_NESTING`. `interpret` raises the recursion limit by that
constant bound, `FRAMES_PER_CALL` (times `MAX_CALL_DEPTH`),
and restores it before returning, so `call-depth-exceeded` fires at the
declared depth however deep the caller's stack is.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from itertools import compress

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
    Unary,
    Var,
    WhileStmt,
)
from minirepair.minilang.parser import MAX_NESTING

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

RETURNED = "returned"
RUNTIME_ERROR = "runtime_error"
BUDGET_EXHAUSTED = "budget_exhausted"

Value = int | bool | list

# Loop cut: first snapshot at this header visit, then at every doubling;
# each snapshot is compared with the header visits that follow it, up to
# this many.
CUT_FIRST_SNAPSHOT = 16
CUT_WINDOW = 64

# MiniLang activations a run may hold at once.
MAX_CALL_DEPTH = 200

# Python frames of `interpret` itself and of the helpers a closure calls.
_FRAME_SLACK = 50
# Python frames of one MiniLang call, or of compiling one function.
FRAMES_PER_CALL = 4 * (MAX_NESTING + 1)


@dataclass
class ExecutionResult:
    status: str
    value: Value | None = None
    error_kind: str | None = None
    error_at: StatementId | None = None
    executed: set[StatementId] = field(default_factory=set)
    steps_used: int = 0
    # Steps counted when the loop cut ended the run (status is then
    # budget exhaustion with steps_used == budget); None otherwise.
    loop_cut_at: int | None = None


class _Trap(Exception):
    def __init__(self, kind: str, at):
        self.kind = kind
        self.at = at


class _BudgetExhausted(Exception):
    pass


class _LoopCut(_BudgetExhausted):
    pass


def values_equal(a: Value, b: Value) -> bool:
    """Type-strict value equality (bool is never equal to int)."""
    return type(a) is type(b) and a == b


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# -- per-run state ----------------------------------------------------------


class _Run:
    """Mutable state of one run, passed to every closure as `r`."""

    __slots__ = ("left", "hit", "depth", "functions", "entered")

    def __init__(self, budget: int, functions: dict[str, "_Function"]):
        self.left = budget  # steps still allowed
        self.hit: list[bool] = []  # the running function's, by statement number
        self.depth = 0
        self.functions = functions  # the unit's name-to-code table
        # name -> (frame size, body, hit list, statement ids) of every
        # function this run has entered
        self.entered: dict[str, tuple] = {}

    def enter(self, name: str) -> tuple | None:
        """The `entered` entry of function `name`, made on its first call,
        or None when the unit has no such function."""
        code = self.functions.get(name)
        if code is None:
            return None
        hit = [False] * len(code.sids)
        entered = self.entered[name] = (code.nslots, code.body, hit, code.sids)
        return entered


class _Function:
    """A compiled function: its frame size, body and statement ids, the
    ids in statement-number order."""

    __slots__ = ("nslots", "body", "sids")

    def __init__(self, nslots: int, body, sids: list):
        self.nslots = nslots
        self.body = body
        self.sids = sids


# -- compiler ---------------------------------------------------------------
#
# Statement closures take (L, r): the activation's slot list and the run
# state. Each begins by charging its step and marking its statement number
# in `r.hit`, written out in every closure because a shared helper would
# cost a Python call per step. They return None to continue, or the value
# of an executed `return` (MiniLang values are never None). Expression
# closures take the same arguments and return the value.

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _fail(kind: str, at, *operands):
    """An expression that evaluates `operands`, then traps."""

    def fail(L, r):
        for operand in operands:
            operand(L, r)
        raise _Trap(kind, at)

    return fail


def _evaluate(k: int, value):
    """A statement that evaluates `value` for its effects."""

    def evaluate(L, r):
        n = r.left
        if not n:
            raise _BudgetExhausted
        r.left = n - 1
        r.hit[k] = True
        value(L, r)

    return evaluate


class _Compiler:
    """Compiles one function; reads nothing but its `FunctionDef`."""

    def __init__(self):
        self.nslots = 0
        self.sids: list[StatementId | None] = []

    def function(self, fn: FunctionDef) -> _Function:
        scope: list[dict[str, int]] = [{}]
        for name, _ in fn.params:
            scope[0][name] = self.nslots
            self.nslots += 1
        body = self.block(fn.body, scope)
        return _Function(self.nslots, body, self.sids)

    # -- statements -------------------------------------------------------

    def block(self, stmts: list[Stmt], scope: list[dict[str, int]]):
        """Compile a block in a fresh scope frame."""
        scope.append({})
        compiled = tuple([self.stmt(s, scope) for s in stmts])
        scope.pop()
        if len(compiled) == 1:
            return compiled[0]

        def run_block(L, r):
            for stmt in compiled:
                value = stmt(L, r)
                if value is not None:
                    return value
            return None

        return run_block

    def stmt(self, stmt: Stmt, scope: list[dict[str, int]]):
        sid = stmt.stmt_id
        k = len(self.sids)
        self.sids.append(sid)
        if isinstance(stmt, WhileStmt):
            return self.while_stmt(stmt, scope, k)
        if isinstance(stmt, AssignStmt) and _lookup(scope, stmt.name) is None:
            value = self.expr(stmt.value, scope, sid)
            return _evaluate(k, _fail("unbound-variable", sid, value))
        if isinstance(stmt, (LetStmt, AssignStmt)):
            value = self.expr(stmt.value, scope, sid)
            slot = scope[-1].get(stmt.name) if isinstance(stmt, LetStmt) else _lookup(scope, stmt.name)
            if slot is None:
                slot = scope[-1][stmt.name] = self.nslots
                self.nslots += 1

            def store(L, r):
                n = r.left
                if not n:
                    raise _BudgetExhausted
                r.left = n - 1
                r.hit[k] = True
                L[slot] = value(L, r)

            return store
        if isinstance(stmt, IndexAssignStmt):
            array = self.load(stmt.name, scope, sid)
            index = self.expr(stmt.index, scope, sid)
            value = self.expr(stmt.value, scope, sid)

            def store_item(L, r):
                n = r.left
                if not n:
                    raise _BudgetExhausted
                r.left = n - 1
                r.hit[k] = True
                target = array(L, r)
                i = index(L, r)
                v = value(L, r)
                if not 0 <= i < len(target):
                    raise _Trap("index-out-of-bounds", sid)
                target[i] = v

            return store_item
        if isinstance(stmt, IfStmt):
            cond = self.expr(stmt.cond, scope, sid)
            then = self.block(stmt.then_body, scope)
            orelse = None if stmt.else_body is None else self.block(stmt.else_body, scope)

            def branch(L, r):
                n = r.left
                if not n:
                    raise _BudgetExhausted
                r.left = n - 1
                r.hit[k] = True
                if cond(L, r):
                    return then(L, r)
                if orelse is not None:
                    return orelse(L, r)
                return None

            return branch
        if isinstance(stmt, ReturnStmt):
            value = self.expr(stmt.value, scope, sid)

            def ret(L, r):
                n = r.left
                if not n:
                    raise _BudgetExhausted
                r.left = n - 1
                r.hit[k] = True
                return value(L, r)

            return ret
        if isinstance(stmt, ExprStmt):
            return _evaluate(k, self.expr(stmt.value, scope, sid))
        return _evaluate(k, _fail("unknown-statement", sid))

    def while_stmt(self, stmt: WhileStmt, scope: list[dict[str, int]], k: int):
        sid = stmt.stmt_id
        live = tuple(slot for frame in scope for slot in frame.values())
        cond = self.expr(stmt.cond, scope, sid)
        body = self.block(stmt.body, scope)

        def loop(L, r):
            visits = 0
            check_at = snapshot_at = CUT_FIRST_SNAPSHOT
            window_end = 0
            snapshot = None
            while True:
                n = r.left
                if not n:
                    raise _BudgetExhausted
                r.left = n - 1
                r.hit[k] = True
                if not cond(L, r):
                    return None
                value = body(L, r)
                if value is not None:
                    return value
                visits += 1
                if visits >= check_at:
                    if visits == snapshot_at:
                        snapshot = _loop_state(L, live)
                        snapshot_at *= 2
                        window_end = visits + CUT_WINDOW
                        check_at = visits + 1
                    else:
                        if _loop_state(L, live) == snapshot:
                            raise _LoopCut
                        check_at = visits + 1 if visits < window_end else snapshot_at

        return loop

    # -- expressions ------------------------------------------------------

    def load(self, name: str, scope, sid):
        slot = _lookup(scope, name)
        if slot is None:
            return _fail("unbound-variable", sid)
        return lambda L, r: L[slot]

    def expr(self, expr: Expr, scope: list[dict[str, int]], sid):
        if isinstance(expr, (IntLit, BoolLit)):
            constant = expr.value
            return lambda L, r: constant
        if isinstance(expr, Var):
            return self.load(expr.name, scope, sid)
        if isinstance(expr, Binary):
            return self.binary(expr, scope, sid)
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand, scope, sid)
            if expr.op != "-":
                return lambda L, r: not operand(L, r)

            def negate(L, r):
                v = -operand(L, r)
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return negate
        if isinstance(expr, Index):
            slot = _lookup(scope, expr.name)
            if slot is None:
                return _fail("unbound-variable", sid)
            index_slot = _slot_of(expr.index, scope)
            index = self.expr(expr.index, scope, sid)

            def item(L, r):
                array = L[slot]
                i = L[index_slot] if index_slot is not None else index(L, r)
                if 0 <= i < len(array):
                    return array[i]
                raise _Trap("index-out-of-bounds", sid)

            return item
        if isinstance(expr, Len):
            slot = _slot_of(expr.arg, scope)
            if slot is not None:
                return lambda L, r: len(L[slot])
            arg = self.expr(expr.arg, scope, sid)
            return lambda L, r: len(arg(L, r))
        if isinstance(expr, Call):
            return self.call(expr, scope, sid)
        if isinstance(expr, ArrayLit):
            items = tuple([self.expr(i, scope, sid) for i in expr.items])
            return lambda L, r: [item(L, r) for item in items]
        return _fail("unknown-expression", sid)

    def call(self, expr: Call, scope, sid):
        args = tuple([self.expr(a, scope, sid) for a in expr.args])
        name = expr.fn
        unknown = _fail("unknown-function", sid, *args)

        def call(L, r):
            entered = r.entered.get(name) or r.enter(name)
            if entered is None:
                return unknown(L, r)
            nslots, body, hit, _ = entered
            frame = [None] * nslots
            i = 0
            for arg in args:
                frame[i] = arg(L, r)
                i += 1
            depth = r.depth
            if depth >= MAX_CALL_DEPTH:
                raise _Trap("call-depth-exceeded", sid)
            r.depth = depth + 1
            caller_hit = r.hit
            r.hit = hit
            value = body(frame, r)
            if value is None:
                raise _Trap("missing-return", sid)
            r.hit = caller_hit
            r.depth = depth
            return value

        return call

    def binary(self, expr: Binary, scope, sid):
        op = expr.op
        lhs = self.expr(expr.lhs, scope, sid)
        rhs = self.expr(expr.rhs, scope, sid)
        lslot = _slot_of(expr.lhs, scope)
        if op == "&&":
            return lambda L, r: lhs(L, r) and rhs(L, r)
        if op == "||":
            return lambda L, r: lhs(L, r) or rhs(L, r)
        if op in _COMPARE:
            compare = _COMPARE[op]
            if lslot is not None:
                return lambda L, r: compare(L[lslot], rhs(L, r))
            return lambda L, r: compare(lhs(L, r), rhs(L, r))
        if op in _ARITH:
            arith = _ARITH[op]
            if lslot is not None and isinstance(expr.rhs, IntLit):
                constant = expr.rhs.value

                def arith_var_const(L, r):
                    v = arith(L[lslot], constant)
                    if INT_MIN <= v <= INT_MAX:
                        return v
                    raise _Trap("integer-overflow", sid)

                return arith_var_const

            def checked_arith(L, r):
                v = arith(lhs(L, r), rhs(L, r))
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return checked_arith
        if op == "/":

            def div(L, r):
                a = lhs(L, r)
                b = rhs(L, r)
                if b == 0:
                    raise _Trap("division-by-zero", sid)
                v = _trunc_div(a, b)
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return div
        if op == "%":

            def mod(L, r):
                a = lhs(L, r)
                b = rhs(L, r)
                if b == 0:
                    raise _Trap("modulo-by-zero", sid)
                return a - _trunc_div(a, b) * b

            return mod
        if op == "==":
            return lambda L, r: values_equal(lhs(L, r), rhs(L, r))
        if op == "!=":
            return lambda L, r: not values_equal(lhs(L, r), rhs(L, r))
        return _fail("unknown-operator", sid, lhs, rhs)


def _lookup(scope: list[dict[str, int]], name: str) -> int | None:
    for frame in reversed(scope):
        if name in frame:
            return frame[name]
    return None


def _slot_of(expr: Expr, scope) -> int | None:
    return _lookup(scope, expr.name) if isinstance(expr, Var) else None


def _loop_state(L: list, live: tuple[int, ...]) -> list:
    """The bindings in `live` as a comparable value: types, contents, sharing."""
    state = []
    first_seen: dict[int, int] = {}
    for position, slot in enumerate(live):
        value = L[slot]
        if type(value) is list:
            owner = first_seen.setdefault(id(value), position)
            state.append((owner, tuple(value), tuple(map(type, value))))
        else:
            state.append((type(value), value))
    return state


# -- entry point --------------------------------------------------------------


def interpret(
    unit: SourceUnit,
    fn_name: str,
    args: list[Value],
    step_budget: int,
) -> ExecutionResult:
    """Run `fn_name(args)` and report outcome, coverage, and steps used.

    Deterministic: identical inputs always yield identical results.
    Incoming array arguments are copied, so callers may reuse them.
    """
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    fn = unit.function(fn_name)
    if fn is None:
        raise ValueError(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise ValueError(f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    limit = sys.getrecursionlimit()
    functions = unit.__dict__.get("_compiled")
    if functions is None:
        sys.setrecursionlimit(limit + FRAMES_PER_CALL + _FRAME_SLACK)
        try:
            functions = unit._compiled = {f.name: _code_of(f) for f in unit.functions}
        finally:
            sys.setrecursionlimit(limit)
    run = _Run(step_budget, functions)
    nslots, body, run.hit, _ = run.enter(fn_name)
    frame = [None] * nslots
    frame[: len(args)] = [list(a) if isinstance(a, list) else a for a in args]
    sys.setrecursionlimit(limit + (MAX_CALL_DEPTH + 1) * FRAMES_PER_CALL + _FRAME_SLACK)
    try:
        run.depth = 1
        value = body(frame, run)
        if value is None:
            raise _Trap("missing-return", None)
        result = ExecutionResult(RETURNED, value=value)
    except _Trap as trap:
        result = ExecutionResult(RUNTIME_ERROR, error_kind=trap.kind, error_at=trap.at)
    except _LoopCut:
        result = ExecutionResult(BUDGET_EXHAUSTED, loop_cut_at=step_budget - run.left)
    except _BudgetExhausted:
        result = ExecutionResult(BUDGET_EXHAUSTED)
    finally:
        sys.setrecursionlimit(limit)
    result.steps_used = step_budget if result.status == BUDGET_EXHAUSTED else step_budget - run.left
    for _, _, hit, sids in run.entered.values():
        result.executed.update(compress(sids, hit))
    result.executed.discard(None)
    return result


def _code_of(fn: FunctionDef) -> _Function:
    """The compiled code of `fn`, made on first use and kept on it."""
    code = fn.__dict__.get("_code")
    if code is None:
        code = fn._code = _Compiler().function(fn)
    return code
