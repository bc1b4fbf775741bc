"""Closure-compiling interpreter with statement coverage and a step budget;
hot loops run as compiled Python.

Execution is a pure function of (unit, call, budget): the language has
no I/O, no clock, and no randomness. Each statement evaluation costs one
step; re-evaluated loop headers pay again, which is what bounds infinite
loops. The `executed` set records exactly the ids of statements whose
evaluation began, at statement granularity (an if/while header is one
trace unit; its nested statements trace separately).

Semantics notes:
  - `interpret` checks its arguments at entry (`value_type`), unless a
    `load_suite` test's were checked at load, and units are well typed,
    so a value always has its static type: no closure, hot loop or loop
    cut tests a type at run time.
  - 64-bit signed integers with checked overflow.
  - `/` truncates toward zero, `%` takes the dividend's sign (C style);
    both trap on a zero divisor.
  - `&&` and `||` short-circuit.
  - Arrays are mutable references; array arguments are copied per call
    into the interpreter so runs never alias suite data.
  - MiniLang recursion is bounded by `MAX_CALL_DEPTH` in addition to the
    step budget; exceeding it is the `call-depth-exceeded` runtime error.

Compilation. A function is compiled when a run first calls it, into
nested Python closures (Feeley & Lapalme, "Using closures for code
generation", 1987): variables become slots of one list per activation,
resolved when compiling; statements are numbered within their function
in pre-order, so statement number k is the one whose positional id is
`StatementId(function name, k)`, which coverage records; and a runtime
error is attributed to the statement that contains the failing
expression, also known when compiling. A call names its callee, which
the run finds in its unit (`SourceUnit.function`) the first time the call
is made, so a function's code depends on its own `FunctionDef` alone. The
code is kept on that object (`FunctionDef._code`); copies and pickles
leave it out, and the unit keeps no table. A variant that shares every
function but one with its parent therefore compiles at most one function,
and a function that no run enters is never compiled.
Contract: no node is edited after its first run. Variants share
statements, which may sit at different positions in different functions,
so an edit changes a path copy of its function (`copy_path`) and fresh
copies of the statements it writes, as the repair operators do; the copy
is a new `FunctionDef` and compiles with its own numbering. Units must be
well typed (`check_unit` passes) and nest no deeper than `MAX_NESTING`,
as `parse` and every operator guarantee.

Traps. A run of a checked unit traps only on its values and its call
depth: `index-out-of-bounds`, `integer-overflow`, `division-by-zero`,
`modulo-by-zero` and `call-depth-exceeded`; a run checks nothing that
the checker decided. For a hand-edited unit the checker would reject, the compiler
raises ValueError, naming the function, at an unbound name, an unknown
node kind or an unknown operator, and a call raises ValueError when the
running unit lacks its callee: compiled code is shared across units, so
each run finds its callees itself. The argument counts of the unit's own
calls, operand types and a body that can fall off its end are checked
only by `check_unit`; a unit that gets them wrong runs with unspecified
results.

Each statement and each expression compiles one way, to one closure of
its node kind, which calls the closures of its operands in source order:
a variable is a read of its slot, a literal returns its value. A statement
closure charges its step and marks its statement number before any of its
expressions run. The long runs of a search run as hot loops (below).

Loop cut. A run is deterministic and has no I/O, so a loop whose state at
its header repeats will repeat that stretch until the budget runs out.
Each loop entry snapshots its state at header visits 16, 32, 64, ... and
compares each of the next 64 visits with the snapshot. The state is every
binding visible at the header in the current activation, compared
with array contents and with which names share one array.
Caller frames cannot matter: a loop that never exits never returns. On a
match the run ends as budget exhaustion with `steps_used` equal to the
budget; `executed` is already final, since every statement of the repeated
stretch has begun once. `loop_cut_at` records the steps counted when the
cut fired. One `_Cut` per entry, made at its first check, owns the
schedule, the snapshot and the in-place comparison.
The cut is the closures' alone; the hot form (below) compares nothing.
The closures finish an entry the hot form hands back with the visit count
and `_Cut` the switch left them: the count then lags the header's, so
checks fall on other visits than in the closure form, but a match is
still a true repeat. A state that first repeats after the switch runs to
the budget, with the result, steps and coverage a cut gives and no
`loop_cut_at`: `while (i < 1000) { if (i > 100) { i = 100; } i = i + 1; }`,
which the closure form cuts at visit 129, takes 2.5-3.4 ms at a
100,000-step budget instead of 0.23 ms (warm runs, CPython 3.11, a shared
2-vCPU machine). Every cut of the benchmark's pools and of longer
searches over its loop cases fires before the switch at 64 visits.

Hot loops. A loop entry whose header reaches `HOT_LOOP_VISITS` visits
hands the rest of the entry to one Python function for the whole loop,
header and body, whose source `hotloop.loop_source` writes and
`compile()` compiles. The code is cached by (statement id, text) in one
module dict of at most `_HOT_CODE_LIMIT` entries, and each build makes a
function of it with its own `_SIDS`: the text names slots and statement
numbers, not MiniLang names, so the variants of a function whose loop
emits the same text compile it once. Each compiled key has its own filename
(`<hot loop sum_all:2 #7>`: the loop's statement id and the count of keys
this process has compiled), so a profile keeps the hot loops of two
variants of one function apart when their texts differ. The loop's
closure keeps the built function, so it is built at most once per
compiled function and reused by every later run, and a run whose loops
stay short builds nothing; the closures stay the only form of cold code.
Building the loop of a corpus array loop whose increment became
`i = i * 1` costs its emit, 50-90 us, when its code is cached, and
0.3-0.4 ms more for the `compile()` of a new key (CPython 3.11, a shared
2-vCPU machine), against about 0.4 us per closure step of that loop.
64 visits are at least 128 steps, so a loop that gets this far has paid
for a cached build by the time it has run as long again; a loop that
runs to a 100,000-step budget pays for either many times over, and
`genprog-wide`'s runaway candidates (budget 2,000) tier up too. The
emitter declines a loop outside `hotloop`'s language (a call, a nested
`while`, whose inner loop still tiers up on its own, an array store or
literal, a rebound array, an `else`, an expression statement), and a
`compile()` that fails declines it too; a declined loop stays on
closures and is not tried again. The emitter is
imported with this module: at 64 visits nearly every search builds hot
loops, and importing it here, rather than at the first build, keeps the
memory of compiling its source (where no bytecode is cached) out of the
peak of a long run, about 0.5 MB of a 2,700-job `loop-mut` run.

The hot form is exact in results, steps and coverage. It runs the
iterations in segments, each as many as the budget cannot interrupt, and
tests the budget only between segments; when fewer steps are left than
one iteration can charge, or an accumulator's segment cap is spent
(`x = x + e` near INT_MAX), it hands the entry back (`_HandBack`), and
the closure loop finishes it statement by statement, never trying the
hot form again for that entry. So the closures stay the only code that
runs out of budget. The hot form charges the header and top-level steps
of a whole segment at once, and a branch's when it runs, and gives back
those of statements and iterations not reached when a trap, a `return`
or the header's exit leaves early, and it marks each statement in a
branch before its expressions (the header and the statements outside any
branch are marked already, by the visits before the switch). It raises
the same traps at the same statements, and leaves out only checks that
cannot fire: the upper bound of `v[i]` that a header `i < len(v)` implies
until `i` is stored, the overflow check of `x * 1`, `x / 1`, `x + 0` and
`x - 0`, and that of an accumulator's store, which the segment cap rules
out; `/` and `%` by a positive constant skip the general truncating
division. So results, steps and coverage stay those of the closures.

Host stack. Compiling a function and running one MiniLang call each take
at most four Python frames per level of nesting, and no unit nests deeper
than `MAX_NESTING`; so does building a hot loop, which covers the levels
below the loop's own, and a hot loop runs as one frame more, taken from
`_FRAME_SLACK`. A callee is compiled on top of at most
`MAX_CALL_DEPTH` activations, before the depth check. `interpret` raises
the recursion limit once by that constant bound, `FRAMES_PER_CALL` times
`MAX_CALL_DEPTH + 1`, around compiling and running alike, and restores it
before returning, so `call-depth-exceeded` fires at the declared depth
however deep the caller's stack is.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from itertools import compress, count
from types import CodeType, FunctionType

from minirepair.minilang.nodes import (
    INT_MAX,
    INT_MIN,
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
)
from minirepair.minilang import hotloop
from minirepair.minilang.parser import MAX_NESTING

RETURNED = "returned"
RUNTIME_ERROR = "runtime_error"
BUDGET_EXHAUSTED = "budget_exhausted"

Value = int | bool | list

# The loop cut's schedule (see "Loop cut"): first snapshot, window length.
CUT_FIRST_SNAPSHOT = 16
CUT_WINDOW = 64

# A loop entry whose header reaches this many visits runs the rest of the
# entry as one compiled Python function (see "Hot loops").
HOT_LOOP_VISITS = 64
_NEVER = float("inf")

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


class _HandBack:
    """What a hot loop returns, the class itself and no instance, when it
    hands its entry back to the closures."""


def value_type(value) -> str | None:
    """The MiniLang type of a value passed in from outside a run, or None
    when it has none: an exact int in the signed 64-bit range, a bool, or a
    list or tuple of such ints. The one rule for suite values and for the
    arguments `interpret` takes."""
    t = type(value)
    if t is int:
        return T_INT if INT_MIN <= value <= INT_MAX else None
    if t is bool:
        return T_BOOL
    # the element test runs in C: the element types, then the extremes
    if (t is list or t is tuple) and (
        not value or _INT_ONLY.issuperset(map(type, value)) and INT_MIN <= min(value) and max(value) <= INT_MAX
    ):
        return T_INT_ARRAY
    return None


_INT_ONLY = frozenset([int])


def values_equal(a: Value, b: Value) -> bool:
    """Type-strict value equality (bool is never equal to int)."""
    return type(a) is type(b) and a == b


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# -- per-run state ----------------------------------------------------------


class _Run:
    """Mutable state of one run, passed to every closure as `r`."""

    __slots__ = ("steps_left", "hit", "depth", "unit", "entered")

    def __init__(self, budget: int, unit: SourceUnit):
        self.steps_left = budget
        self.hit: list[bool] = []  # the running function's, by statement number
        self.depth = 0
        self.unit = unit  # whose functions the calls name
        # name -> (frame size, body, hit list, statement ids) of every
        # function this run has entered
        self.entered: dict[str, tuple] = {}

    def enter(self, fn: FunctionDef) -> tuple:
        """The `entered` entry of `fn`, made (and `fn` compiled, if no run
        has yet) on its first call in this run."""
        code = _code_of(fn)
        hit = [False] * len(code.sids)
        entered = self.entered[fn.name] = (code.nslots, code.body, hit, code.sids)
        return entered


class _Function:
    """A compiled function: its frame size, body and statement ids, the
    ids in statement-number order, and its parameters' types, which its
    first slots hold."""

    __slots__ = ("nslots", "body", "sids", "kinds")

    def __init__(self, nslots: int, body, sids: list, kinds: tuple[str, ...]):
        self.nslots = nslots
        self.body = body
        self.sids = sids
        self.kinds = kinds


# -- compiler ---------------------------------------------------------------
#
# Statement closures take (L, r): the activation's slot list and the run
# state. Each begins by charging its step and marking its statement number
# in `r.hit`, written out in every closure because a shared helper would
# cost a Python call per step. They return None to continue, or the value
# of an executed `return` (MiniLang values are never None). Expression
# closures take the same arguments and return the value.

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _evaluate(k: int, value):
    """A statement that evaluates `value` for its effects."""

    def evaluate(L, r):
        n = r.steps_left
        if not n:
            raise _BudgetExhausted
        r.steps_left = n - 1
        r.hit[k] = True
        value(L, r)

    return evaluate


class _Compiler:
    """Compiles one function; reads nothing but its `FunctionDef`."""

    def __init__(self):
        self.name = ""
        self.nslots = 0
        self.sids: list[StatementId] = []

    def function(self, fn: FunctionDef) -> _Function:
        self.name = fn.name
        scope: list[dict[str, int]] = [{}]
        for name, _ in fn.params:
            scope[0][name] = self.nslots
            self.nslots += 1
        stmts = self.block(fn.body, scope)
        kinds = tuple(kind for _, kind in fn.params)
        if len(stmts) == 1:
            return _Function(self.nslots, stmts[0], self.sids, kinds)

        def body(L, r):
            for stmt in stmts:
                value = stmt(L, r)
                if value is not None:
                    return value
            return None

        return _Function(self.nslots, body, self.sids, kinds)

    # -- statements -------------------------------------------------------

    def block(self, stmts: list[Stmt], scope: list[dict[str, int]]) -> tuple:
        """Compile a block in a fresh scope frame, as its statement closures."""
        scope.append({})
        compiled = tuple([self.stmt(s, scope) for s in stmts])
        scope.pop()
        return compiled

    def stmt(self, stmt: Stmt, scope: list[dict[str, int]]):
        k = len(self.sids)
        sid = StatementId(self.name, k)
        self.sids.append(sid)
        if isinstance(stmt, WhileStmt):
            return self.while_stmt(stmt, scope, k, sid)
        if isinstance(stmt, (LetStmt, AssignStmt)):
            return self.store(stmt, scope, k, sid)
        if isinstance(stmt, IndexAssignStmt):
            array = self.expr(Var(stmt.name), scope, sid)
            index = self.expr(stmt.index, scope, sid)
            value = self.expr(stmt.value, scope, sid)

            def store_item(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
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
            orelse = () if stmt.else_body is None else self.block(stmt.else_body, scope)

            def branch(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                for stmt in then if cond(L, r) else orelse:
                    value = stmt(L, r)
                    if value is not None:
                        return value
                return None

            return branch
        if isinstance(stmt, ReturnStmt):
            value = self.expr(stmt.value, scope, sid)

            def ret(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                return value(L, r)

            return ret
        if isinstance(stmt, ExprStmt):
            return _evaluate(k, self.expr(stmt.value, scope, sid))
        raise self.error(f"unknown statement kind {type(stmt).__name__}")

    def store(self, stmt: LetStmt | AssignStmt, scope: list[dict[str, int]], k: int, sid: StatementId):
        """A `let` or an assignment to a bound name."""
        compute = self.expr(stmt.value, scope, sid)
        # Every operand is resolved before a `let` binds its own name.
        if isinstance(stmt, AssignStmt):
            slot = self.slot(scope, stmt.name)
        else:
            slot = scope[-1].get(stmt.name)
            if slot is None:
                slot = scope[-1][stmt.name] = self.nslots
                self.nslots += 1

        def store(L, r):
            n = r.steps_left
            if not n:
                raise _BudgetExhausted
            r.steps_left = n - 1
            r.hit[k] = True
            L[slot] = compute(L, r)

        return store

    def while_stmt(self, stmt: WhileStmt, scope: list[dict[str, int]], k: int, sid: StatementId):
        live = tuple(slot for frame in scope for slot in frame.values())
        names = {name: slot for frame in scope for name, slot in frame.items()}
        base = self.nslots
        sids = self.sids
        cond = self.expr(stmt.cond, scope, sid)
        body = self.block(stmt.body, scope)
        # The hot form once built, False once declined. `names` and `base`
        # let the emitter resolve the loop's names as this compiler did.
        hot = None

        def loop(L, r):
            nonlocal hot
            visits = 0
            cut = None  # made at the first check
            check_at = CUT_FIRST_SNAPSHOT
            hot_at = _NEVER if hot is False else HOT_LOOP_VISITS
            next_at = check_at if check_at < hot_at else hot_at
            hit = r.hit  # a call made in the loop restores it on return
            while True:
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                hit[k] = True
                if not cond(L, r):
                    return None
                for statement in body:
                    value = statement(L, r)
                    if value is not None:
                        return value
                visits += 1
                if visits >= next_at:
                    if visits >= check_at:
                        cut = cut or _Cut(live)
                        check_at = cut.check(L, visits)
                    if visits >= hot_at:
                        if hot is None:
                            hot = _hot_loop(stmt, names, base, k, sids) or False
                        if hot:
                            value = hot(L, r, hit)
                            if value is not _HandBack:
                                return value
                        hot_at = _NEVER
                    next_at = check_at if check_at < hot_at else hot_at

        return loop

    # -- expressions ------------------------------------------------------

    def expr(self, expr: Expr, scope: list[dict[str, int]], sid):
        """`expr` compiled once, as a closure."""
        if isinstance(expr, (IntLit, BoolLit)):
            c = expr.value
            return lambda L, r: c
        if isinstance(expr, Var):
            slot = self.slot(scope, expr.name)
            return lambda L, r: L[slot]
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
            slot = self.slot(scope, expr.name)
            index = self.expr(expr.index, scope, sid)

            def item(L, r):
                array = L[slot]
                i = index(L, r)
                if 0 <= i < len(array):
                    return array[i]
                raise _Trap("index-out-of-bounds", sid)

            return item
        if isinstance(expr, Len):
            arg = self.expr(expr.arg, scope, sid)
            return lambda L, r: len(arg(L, r))
        if isinstance(expr, Call):
            return self.call(expr, scope, sid)
        if isinstance(expr, ArrayLit):
            items = tuple([self.expr(i, scope, sid) for i in expr.items])
            return lambda L, r: [item(L, r) for item in items]
        raise self.error(f"unknown expression kind {type(expr).__name__}")

    def call(self, expr: Call, scope, sid):
        args = tuple([self.expr(a, scope, sid) for a in expr.args])
        name = expr.fn

        def call(L, r):
            entered = r.entered.get(name)
            if entered is None:
                fn = r.unit.function(name)
                if fn is None:
                    raise ValueError(f"{sid.function!r} calls {name!r}, which the running unit lacks")
                entered = r.enter(fn)
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
            r.hit = caller_hit
            r.depth = depth
            return value

        return call

    def binary(self, expr: Binary, scope, sid):
        op = expr.op
        lhs = self.expr(expr.lhs, scope, sid)
        rhs = self.expr(expr.rhs, scope, sid)
        if op == "&&":
            return lambda L, r: lhs(L, r) and rhs(L, r)
        if op == "||":
            return lambda L, r: lhs(L, r) or rhs(L, r)
        if op in _COMPARE:
            compare = _COMPARE[op]
            return lambda L, r: compare(lhs(L, r), rhs(L, r))
        if op in _ARITH:
            arith = _ARITH[op]

            def checked_arith(L, r):
                v = arith(lhs(L, r), rhs(L, r))
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return checked_arith
        if op == "/":

            def div(L, r):
                x = lhs(L, r)
                y = rhs(L, r)
                if y == 0:
                    raise _Trap("division-by-zero", sid)
                v = _trunc_div(x, y)
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return div
        if op == "%":

            def mod(L, r):
                x = lhs(L, r)
                y = rhs(L, r)
                if y == 0:
                    raise _Trap("modulo-by-zero", sid)
                return x - _trunc_div(x, y) * y

            return mod
        raise self.error(f"unknown operator {op!r}")

    def slot(self, scope: list[dict[str, int]], name: str) -> int:
        """The slot `name` is bound to in `scope`."""
        for frame in reversed(scope):
            if name in frame:
                return frame[name]
        raise self.error(f"unbound name {name!r}")

    def error(self, problem: str) -> ValueError:
        """The error for a unit `check_unit` rejects (see "Traps")."""
        return ValueError(f"{self.name!r}: {problem}; interpret takes units that check_unit passes")


# -- loop cut -----------------------------------------------------------------


class _Cut:
    """One loop entry's loop cut in the closures, made at its first check:
    the schedule, snapshot and comparison."""

    __slots__ = ("live", "snapshot_at", "window_end", "values", "arrays")

    def __init__(self, live: tuple[int, ...]):
        self.live = live
        self.snapshot_at = CUT_FIRST_SNAPSHOT
        self.window_end = 0

    def check(self, L: list, visits: int) -> int:
        """Snapshot on a snapshot visit, else raise `_LoopCut` if the state
        matches the snapshot; return the next visit to check."""
        if visits == self.snapshot_at:
            self.snapshot_at *= 2
            self.window_end = visits + CUT_WINDOW
            # scalars first, so that most mismatches stop before an array
            bound = sorted([(slot, L[slot]) for slot in self.live], key=lambda b: type(b[1]) is list)
            self.values = [(slot, v[:] if type(v) is list else v) for slot, v in bound]
            self.arrays = [(slot, self.owner(L, L[slot])) for slot, old in self.values if type(old) is list]
        elif self.matches(L):
            raise _LoopCut
        return visits + 1 if visits < self.window_end else self.snapshot_at

    def matches(self, L: list) -> bool:
        """Whether every binding in `live` equals the snapshot's, compared in
        place: values, then, once all of those match, which names share one
        array. A slot keeps its static type, so equal values are equal
        states."""
        for slot, old in self.values:
            if L[slot] != old:
                return False
        return all(self.owner(L, L[slot]) == owner for slot, owner in self.arrays)

    def owner(self, L: list, array: list) -> int:
        """The first slot in `live` bound to `array`."""
        return next(slot for slot in self.live if L[slot] is array)


# -- hot loops ----------------------------------------------------------------

# The code of compiled hot loops by (statement id, text): a variant whose
# loop emits a text already compiled for its statement makes its function
# from the same code, with its own `_SIDS`. At most `_HOT_CODE_LIMIT`
# entries, the oldest dropped first.
_HOT_CODE: dict[tuple[StatementId, str], CodeType] = {}
_HOT_CODE_LIMIT = 256
# Numbers the compiled keys, so that each compiles under its own filename
# and a profile keeps the loops of two variants of one function apart.
_BUILDS = count(1)


def _hot_loop(stmt: WhileStmt, names: dict, base: int, k: int, sids: list):
    """The hot form of a loop, compiled from `hotloop.loop_source`, or None
    when the emitter declines the loop or `compile()` fails."""
    try:
        key = (sids[k], hotloop.loop_source(stmt, names, base, k))
        code = _HOT_CODE.get(key)
        if code is None:
            module = compile(key[1], f"<hot loop {sids[k]} #{next(_BUILDS)}>", "exec")
            code = next(const for const in module.co_consts if isinstance(const, CodeType))
            if len(_HOT_CODE) >= _HOT_CODE_LIMIT:
                del _HOT_CODE[next(iter(_HOT_CODE))]
            _HOT_CODE[key] = code
    except (hotloop.Declined, SyntaxError, RecursionError, MemoryError):
        return None
    return FunctionType(code, {"_Trap": _Trap, "_HandBack": _HandBack, "_SIDS": sids})


# -- entry point --------------------------------------------------------------


def interpret(
    unit: SourceUnit,
    fn_name: str,
    args: list | tuple,
    step_budget: int,
    kinds: tuple[str, ...] | None = None,
) -> ExecutionResult:
    """Run `fn_name(args)` and report outcome, coverage, and steps used.

    Deterministic: identical inputs always yield identical results.
    `unit` must pass `check_unit` (see "Traps" in the module docstring).
    `step_budget` must be an int (not a bool) of at least 1, else
    ValueError: a fractional budget would never count down to 0. Each
    argument must have its parameter's type (`value_type`), else
    ValueError names the parameter; so every value in the run has its
    static type. Each array argument, a list or a tuple, is copied into a
    fresh list, so callers may reuse it. `kinds` is `value_type` of each
    argument, found by a caller whose arguments cannot change since, such
    as a `load_suite` test's; without it they are checked here.
    """
    if type(step_budget) is not int or step_budget < 1:
        raise ValueError(f"step_budget must be an int >= 1, got {step_budget!r}")
    fn = unit.function(fn_name)
    if fn is None:
        raise ValueError(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise ValueError(f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    if kinds is not None and len(kinds) != len(args):
        raise ValueError(f"{fn_name!r}: {len(kinds)} kinds for {len(args)} arguments")
    run = _Run(step_budget, unit)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + (MAX_CALL_DEPTH + 1) * FRAMES_PER_CALL + _FRAME_SLACK)
    try:
        if kinds is None:
            kinds = tuple(map(value_type, args))
        if kinds != _code_of(fn).kinds:
            name, kind = next(p for p, got in zip(fn.params, kinds) if p[1] != got)
            raise ValueError(f"{fn_name!r}: argument {name!r} must have type {kind}")
        nslots, body, run.hit, _ = run.enter(fn)
        frame = [None] * nslots
        frame[: len(args)] = [list(a) if type(a) is tuple or type(a) is list else a for a in args]
        run.depth = 1
        result = ExecutionResult(RETURNED, value=body(frame, run))
    except _Trap as trap:
        result = ExecutionResult(RUNTIME_ERROR, error_kind=trap.kind, error_at=trap.at)
    except _LoopCut:
        result = ExecutionResult(BUDGET_EXHAUSTED, loop_cut_at=step_budget - run.steps_left)
    except _BudgetExhausted:
        result = ExecutionResult(BUDGET_EXHAUSTED)
    finally:
        sys.setrecursionlimit(limit)
    result.steps_used = step_budget if result.status == BUDGET_EXHAUSTED else step_budget - run.steps_left
    for _, _, hit, sids in run.entered.values():
        result.executed.update(compress(sids, hit))
    return result


def _code_of(fn: FunctionDef) -> _Function:
    """The compiled code of `fn`, made on first use and kept on it."""
    code = fn.__dict__.get("_code")
    if code is None:
        code = fn._code = _Compiler().function(fn)
    return code
