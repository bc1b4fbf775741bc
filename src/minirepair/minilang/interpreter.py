"""Closure-compiling interpreter with statement coverage and a step budget;
hot loops run as compiled Python.

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

The common shapes compile to one fused closure each rather than a chain
of calls, as superoperators do for a bytecode interpreter (Proebsting,
"Optimizing an ANSI C interpreter with superoperators", POPL 1995):
  - `while` and `if` run their statement closures inline, with no call
    per iteration or branch;
  - `x = y op e` and `let x = y op e`, with `y` a bound variable and `op`
    one of + - *, charge, compute, check for overflow and store in one
    closure, which reads `e` itself when it is a constant or an element
    `v[i]` of bound variables; so do `x = y / c` and `x = y % c` for an
    int constant `c > 0`;
  - a comparison reads a bound variable, a constant or the length of a
    bound variable on either side without a call (`i < len(v)`, `x < c`,
    `x < y`), swapping such an operand to its right, and so does
    arithmetic on a bound variable and a constant (`x + c`);
  - `==` and `!=` are inlined, and so is an ordered comparison against
    an int constant; `/` and `%` by an int constant `c > 0` skip the
    general truncating division.
A fused closure charges its statement's one step and marks its statement
number first, exactly where the unfused chain did, before any of its
expressions run. Its operands run in the chain's order, except that an
operand that can neither trap nor change anything may be read before
or after the other; and a trap is attributed to the same statement. So
steps, coverage, traps and the loop cut stay those of the unfused chain.

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
cut fired. One `_Cut` per entry, made at its first check, owns the
schedule, the snapshot and the in-place comparison for both forms.

Hot loops. A loop entry whose header reaches `HOT_LOOP_VISITS` visits
hands the rest of the entry to one Python function for the whole loop,
header and body, whose source `hotloop.loop_source` writes and
`compile()` compiles, each build under its own filename
(`<hot loop sum_all:2 #7>`: the loop's statement id and the process's
build count), so a profile keeps the hot loops of two variants of one
function apart. The loop's closure keeps it, so it is built at most
once per compiled function and reused by every later run, and a run whose
loops stay short builds nothing; the closures stay the only form of cold
code. Building the loop of a corpus array loop whose increment became
`i = i * 1` costs 0.3-0.7 ms, some 600-1,700 closure steps (CPython
3.11, a shared 2-vCPU machine). 1,024 visits are at least 2,048 steps,
so a loop that gets this far has paid for its build. The emitter
declines a loop that makes a call or holds a nested `while` (the inner
loop still tiers up on its own), names an unbound variable or has a
shape it does not know, and a `compile()` that fails declines it too; a
declined loop stays on closures and is not tried again. The hot form is exact. It runs the iterations in segments,
each as many as neither the budget nor the next loop-cut check can
interrupt, and tests neither inside a segment; when fewer steps are left
than one iteration can charge, it hands the entry back (`_HandBack`), and
the closure loop finishes it statement by statement with the same visits
and `_Cut`, never trying the hot form again for that entry. So the
closures stay the only code that runs out of budget. The hot form charges
the steps of a block at once and gives back those of statements not
reached when a trap, a `return` or the header's exit leaves early, and it
marks each statement in a branch before its expressions (the header and
the statements outside any branch are marked already, by the visits
before the switch). It raises the same traps at the same statements, and
leaves out only checks that cannot fire: the upper bound of `v[i]` that a
header `i < len(v)` implies until `i` is stored, the overflow check of
`x * 1`, `x / 1`, `x + 0` and `x - 0`, and the type test of `==` against
an int constant whose other operand is an arithmetic result or a length;
`/` and `%` by a positive constant or a nonzero length skip the general
truncating division. It takes over the entry's `_Cut` after the visit's
check and writes its locals back to the frame before each later one. So
results, steps, coverage and `loop_cut_at` stay those of the closures.

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
    Unary,
    Var,
    WhileStmt,
)
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
HOT_LOOP_VISITS = 1024
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
    """What a hot loop returns when it hands its entry back to the closures:
    the header visits so far."""

    __slots__ = ("visits",)

    def __init__(self, visits: int):
        self.visits = visits


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

    def enter(self, fn: FunctionDef | None) -> tuple | None:
        """The `entered` entry of `fn`, made (and `fn` compiled, if no run
        has yet) on its first call in this run; None when the unit has no
        such function."""
        if fn is None:
            return None
        code = _code_of(fn)
        hit = [False] * len(code.sids)
        entered = self.entered[fn.name] = (code.nslots, code.body, hit, code.sids)
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
#
# A binary operator or a fused store reads each operand by its shape: a
# bound variable is its slot (_SLOT), a literal its value (_CONST), the
# length of a bound variable that variable's slot (_LEN), an element
# `a[i]` of bound variables their two slots (_ITEM), and anything else a
# closure (_EXPR). Reading a slot, a constant or a length cannot trap, and
# no expression rebinds a caller's slot or resizes an array, so such a
# pure operand (shape _SLOT or above) reads the same value before or after
# the other operand runs: a comparison may swap its operands to bring the
# purer one to its right.

_EXPR, _ITEM, _SLOT, _LEN, _CONST = range(5)

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# `/` and `%` by a positive divisor: on a non-negative dividend, C style
# is floor style.
_FLOOR = {"/": operator.floordiv, "%": operator.mod}
_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

# An ordered comparison with an int constant on its right, inlined per
# operator: (left operand a slot, left operand a closure).
_AGAINST_CONSTANT = {
    "<": (lambda a, c: lambda L, r: L[a] < c, lambda a, c: lambda L, r: a(L, r) < c),
    "<=": (lambda a, c: lambda L, r: L[a] <= c, lambda a, c: lambda L, r: a(L, r) <= c),
    ">": (lambda a, c: lambda L, r: L[a] > c, lambda a, c: lambda L, r: a(L, r) > c),
    ">=": (lambda a, c: lambda L, r: L[a] >= c, lambda a, c: lambda L, r: a(L, r) >= c),
}

# An ordered comparison by its operator function, for each pair of shapes
# read without a call.
_COMPARE_SHAPES = {
    (_SLOT, _SLOT): lambda f, a, b: lambda L, r: f(L[a], L[b]),
    (_SLOT, _LEN): lambda f, a, b: lambda L, r: f(L[a], len(L[b])),
    (_EXPR, _SLOT): lambda f, a, b: lambda L, r: f(a(L, r), L[b]),
    (_EXPR, _LEN): lambda f, a, b: lambda L, r: f(a(L, r), len(L[b])),
}


def _read(kind: int, x, sid):
    """An operand of shape `kind` as a closure."""
    if kind == _EXPR:
        return x
    if kind == _ITEM:
        a, i = x

        def item_at_slot(L, r):
            array = L[a]
            index = L[i]
            if 0 <= index < len(array):
                return array[index]
            raise _Trap("index-out-of-bounds", sid)

        return item_at_slot
    if kind == _SLOT:
        return lambda L, r: L[x]
    if kind == _LEN:
        return lambda L, r: len(L[x])
    return lambda L, r: x


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
        if len(stmts) == 1:
            return _Function(self.nslots, stmts[0], self.sids)

        def body(L, r):
            for stmt in stmts:
                value = stmt(L, r)
                if value is not None:
                    return value
            return None

        return _Function(self.nslots, body, self.sids)

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
        if isinstance(stmt, AssignStmt) and _lookup(scope, stmt.name) is None:
            value = self.expr(stmt.value, scope, sid)
            return _evaluate(k, _fail("unbound-variable", sid, value))
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
        return _evaluate(k, _fail("unknown-statement", sid))

    def store(self, stmt: LetStmt | AssignStmt, scope: list[dict[str, int]], k: int, sid: StatementId):
        """A `let` or an assignment to a bound name. With `y` a bound
        variable, `x = y op e` for `op` one of + - * is one closure that
        charges, computes, checks for overflow and stores, and so is
        `x = y op c` for `op` one of / % and an int constant `c > 0`."""
        value = stmt.value
        a = _slot_of(value.lhs, scope) if isinstance(value, Binary) else None
        op = None if a is None else value.op
        if op in _ARITH:
            kind, b = self.operand(value.rhs, scope, sid)
        elif op in _FLOOR and _positive_constant(value.rhs):
            kind, b = _CONST, value.rhs.value
        else:
            op = None
            compute = self.expr(value, scope, sid)
        # Every operand is resolved before a `let` binds its own name.
        slot = scope[-1].get(stmt.name) if isinstance(stmt, LetStmt) else _lookup(scope, stmt.name)
        if slot is None:
            slot = scope[-1][stmt.name] = self.nslots
            self.nslots += 1
        if op is None:

            def store(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                L[slot] = compute(L, r)

            return store
        if op in _FLOOR:
            floor = _FLOOR[op]

            def store_divide_constant(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                v = L[a]
                L[slot] = floor(v, b) if v >= 0 else -floor(-v, b)

            return store_divide_constant
        arith = _ARITH[op]
        if kind == _CONST:

            def store_arith_constant(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                v = arith(L[a], b)
                if not INT_MIN <= v <= INT_MAX:
                    raise _Trap("integer-overflow", sid)
                L[slot] = v

            return store_arith_constant
        if kind == _ITEM:
            array, i = b

            def store_arith_item(L, r):
                n = r.steps_left
                if not n:
                    raise _BudgetExhausted
                r.steps_left = n - 1
                r.hit[k] = True
                items = L[array]
                index = L[i]
                if not 0 <= index < len(items):
                    raise _Trap("index-out-of-bounds", sid)
                v = arith(L[a], items[index])
                if not INT_MIN <= v <= INT_MAX:
                    raise _Trap("integer-overflow", sid)
                L[slot] = v

            return store_arith_item
        rhs = _read(kind, b, sid)

        def store_arith(L, r):
            n = r.steps_left
            if not n:
                raise _BudgetExhausted
            r.steps_left = n - 1
            r.hit[k] = True
            v = arith(L[a], rhs(L, r))
            if not INT_MIN <= v <= INT_MAX:
                raise _Trap("integer-overflow", sid)
            L[slot] = v

        return store_arith

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
                            cut = cut or _Cut(live)
                            value = hot(L, r, hit, visits, cut)
                            if type(value) is not _HandBack:
                                return value
                            visits, check_at = value.visits, cut.check_at
                        hot_at = _NEVER
                    next_at = check_at if check_at < hot_at else hot_at

        return loop

    # -- expressions ------------------------------------------------------

    def expr(self, expr: Expr, scope: list[dict[str, int]], sid):
        return _read(*self.operand(expr, scope, sid), sid)

    def operand(self, expr: Expr, scope: list[dict[str, int]], sid) -> tuple[int, object]:
        """`expr` compiled once, as (shape, how to read it): a slot, a pair
        of slots, a constant or a closure."""
        if isinstance(expr, (IntLit, BoolLit)):
            return _CONST, expr.value
        if isinstance(expr, Var):
            slot = _lookup(scope, expr.name)
            if slot is None:
                return _EXPR, _fail("unbound-variable", sid)
            return _SLOT, slot
        if isinstance(expr, Binary):
            return _EXPR, self.binary(expr, scope, sid)
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand, scope, sid)
            if expr.op != "-":
                return _EXPR, lambda L, r: not operand(L, r)

            def negate(L, r):
                v = -operand(L, r)
                if INT_MIN <= v <= INT_MAX:
                    return v
                raise _Trap("integer-overflow", sid)

            return _EXPR, negate
        if isinstance(expr, Index):
            slot = _lookup(scope, expr.name)
            if slot is None:
                return _EXPR, _fail("unbound-variable", sid)
            index_slot = _slot_of(expr.index, scope)
            if index_slot is not None:
                return _ITEM, (slot, index_slot)
            index = self.expr(expr.index, scope, sid)

            def item(L, r):
                array = L[slot]
                i = index(L, r)
                if 0 <= i < len(array):
                    return array[i]
                raise _Trap("index-out-of-bounds", sid)

            return _EXPR, item
        if isinstance(expr, Len):
            slot = _slot_of(expr.arg, scope)
            if slot is not None:
                return _LEN, slot
            arg = self.expr(expr.arg, scope, sid)
            return _EXPR, lambda L, r: len(arg(L, r))
        if isinstance(expr, Call):
            return _EXPR, self.call(expr, scope, sid)
        if isinstance(expr, ArrayLit):
            items = tuple([self.expr(i, scope, sid) for i in expr.items])
            return _EXPR, lambda L, r: [item(L, r) for item in items]
        return _EXPR, _fail("unknown-expression", sid)

    def call(self, expr: Call, scope, sid):
        args = tuple([self.expr(a, scope, sid) for a in expr.args])
        name = expr.fn
        unknown = _fail("unknown-function", sid, *args)

        def call(L, r):
            entered = r.entered.get(name) or r.enter(r.unit.function(name))
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
        """One closure for the operator and every operand it reads without a
        call; a comparison first swaps a pure left operand to the right."""
        op = expr.op
        lk, a = self.operand(expr.lhs, scope, sid)
        rk, b = self.operand(expr.rhs, scope, sid)
        if op in _SWAPPED and lk > rk and lk >= _SLOT:
            op, lk, a, rk, b = _SWAPPED[op], rk, b, lk, a
        if lk == _ITEM:
            lk, a = _EXPR, _read(lk, a, sid)
        if op in _COMPARE:
            if rk == _CONST and lk in (_EXPR, _SLOT):
                return _AGAINST_CONSTANT[op][lk == _EXPR](a, b)
            shape = _COMPARE_SHAPES.get((lk, rk))
            if shape is not None:
                return shape(_COMPARE[op], a, b)
        if op in ("==", "!=") and rk == _CONST and lk in (_EXPR, _SLOT):
            return _equal_constant(op == "!=", lk, a, b)
        if op in _FLOOR and rk == _CONST and _positive_constant(expr.rhs) and lk in (_EXPR, _SLOT):
            return _divide_by_constant(_FLOOR[op], lk, a, b)
        lhs = _read(lk, a, sid)
        rhs = _read(rk, b, sid)
        if op == "&&":
            return lambda L, r: lhs(L, r) and rhs(L, r)
        if op == "||":
            return lambda L, r: lhs(L, r) or rhs(L, r)
        if op in _COMPARE:
            compare = _COMPARE[op]
            return lambda L, r: compare(lhs(L, r), rhs(L, r))
        if op in _ARITH:
            arith = _ARITH[op]
            if lk == _SLOT and rk == _CONST:

                def arith_slot_constant(L, r):
                    v = arith(L[a], b)
                    if INT_MIN <= v <= INT_MAX:
                        return v
                    raise _Trap("integer-overflow", sid)

                return arith_slot_constant

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
        if op == "==":

            def equal(L, r):
                x = lhs(L, r)
                y = rhs(L, r)
                return type(x) is type(y) and x == y

            return equal
        if op == "!=":

            def not_equal(L, r):
                x = lhs(L, r)
                y = rhs(L, r)
                return type(x) is not type(y) or x != y

            return not_equal
        return _fail("unknown-operator", sid, lhs, rhs)


def _equal_constant(negated: bool, kind: int, a, c):
    """`x == c` or `x != c` for a constant `c`, `x` a slot or a closure;
    type-strict, as `values_equal` is."""
    t = type(c)
    if kind == _SLOT:
        if negated:
            return lambda L, r: L[a] != c or type(L[a]) is not t
        return lambda L, r: L[a] == c and type(L[a]) is t
    if negated:

        def not_equal_constant(L, r):
            x = a(L, r)
            return x != c or type(x) is not t

        return not_equal_constant

    def equal_constant(L, r):
        x = a(L, r)
        return x == c and type(x) is t

    return equal_constant


def _positive_constant(expr: Expr) -> bool:
    return isinstance(expr, IntLit) and expr.value > 0


def _divide_by_constant(floor, kind: int, a, c: int):
    """`x / c` or `x % c` for an int constant `c > 0` and `x` a slot or a
    closure, by `floor`, the matching floor operator. C style, as
    `_trunc_div` is: a negative dividend divides as its negation, negated.
    The quotient cannot overflow."""
    if kind == _SLOT:
        return lambda L, r: floor(L[a], c) if L[a] >= 0 else -floor(-L[a], c)

    def divide_constant(L, r):
        v = a(L, r)
        return floor(v, c) if v >= 0 else -floor(-v, c)

    return divide_constant


def _lookup(scope: list[dict[str, int]], name: str) -> int | None:
    for frame in reversed(scope):
        if name in frame:
            return frame[name]
    return None


def _slot_of(expr: Expr, scope) -> int | None:
    return _lookup(scope, expr.name) if isinstance(expr, Var) else None


# -- loop cut -----------------------------------------------------------------


class _Cut:
    """One loop entry's loop cut, made at its first check (or at an earlier
    switch to the hot form) and shared by the closures and the hot form:
    the schedule, snapshot and comparison."""

    __slots__ = ("live", "check_at", "snapshot_at", "window_end", "values", "arrays")

    def __init__(self, live: tuple[int, ...]):
        self.live = live
        self.check_at = self.snapshot_at = CUT_FIRST_SNAPSHOT
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
            self.arrays = [(slot, old, self.owner(L, L[slot])) for slot, old in self.values if type(old) is list]
        elif self.matches(L):
            raise _LoopCut
        self.check_at = visits + 1 if visits < self.window_end else self.snapshot_at
        return self.check_at

    def matches(self, L: list) -> bool:
        """Whether every binding in `live` equals the snapshot's, compared in
        place: types and values, then, once all of those match, the element
        types of each array and which names share one."""
        for slot, old in self.values:
            value = L[slot]
            if type(value) is not type(old) or value != old:
                return False
        return all(
            self.owner(L, L[slot]) == owner and all(map(operator.is_, map(type, L[slot]), map(type, old)))
            for slot, old, owner in self.arrays
        )

    def owner(self, L: list, array: list) -> int:
        """The first slot in `live` bound to `array`."""
        return next(slot for slot in self.live if L[slot] is array)


# -- hot loops ----------------------------------------------------------------

# Numbers this process's hot-loop builds, so that each compiles under its
# own filename and a profile keeps the loops of two variants of one
# function apart.
_BUILDS = count(1)


def _hot_loop(stmt: WhileStmt, names: dict, base: int, k: int, sids: list):
    """The hot form of a loop, compiled from `hotloop.loop_source`, or None
    when the emitter declines the loop or `compile()` fails."""
    # Imported on the first build, so that a process whose loops stay short
    # never loads the emitter.
    from minirepair.minilang import hotloop

    namespace = {"_Trap": _Trap, "_HandBack": _HandBack, "_SIDS": sids}
    try:
        source = hotloop.loop_source(stmt, names, base, k)
        exec(compile(source, f"<hot loop {sids[k]} #{next(_BUILDS)}>", "exec"), namespace)
    except (hotloop.Declined, SyntaxError, RecursionError, MemoryError):
        return None
    return namespace["hot"]


# -- entry point --------------------------------------------------------------


def interpret(
    unit: SourceUnit,
    fn_name: str,
    args: list | tuple,
    step_budget: int,
) -> ExecutionResult:
    """Run `fn_name(args)` and report outcome, coverage, and steps used.

    Deterministic: identical inputs always yield identical results.
    Each array argument, a list or a tuple, is copied into a fresh list,
    so callers may reuse it.
    """
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    fn = unit.function(fn_name)
    if fn is None:
        raise ValueError(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise ValueError(f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    run = _Run(step_budget, unit)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + (MAX_CALL_DEPTH + 1) * FRAMES_PER_CALL + _FRAME_SLACK)
    try:
        nslots, body, run.hit, _ = run.enter(fn)
        frame = [None] * nslots
        frame[: len(args)] = [list(a) if isinstance(a, (list, tuple)) else a for a in args]
        run.depth = 1
        value = body(frame, run)
        if value is None:
            raise _Trap("missing-return", None)
        result = ExecutionResult(RETURNED, value=value)
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
