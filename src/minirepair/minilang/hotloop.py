"""Hot loops: one MiniLang `while` loop as the source text of one Python
function, which the interpreter compiles once the loop has run long (see
"Hot loops" in `interpreter`).

`loop_source` reads the loop, the slots of the names visible at its
header, the first slot its body's `let`s take and its statement number,
and returns the text of

    hot(frame, run, marks)

which runs the rest of one loop entry with the results, steps and
coverage of the closures: `frame` is the activation's slot list, `run`
the run state and `marks` the running function's coverage list. `hot`
returns None when the header exits, the value of a `return`, or
`_HandBack` when it hands the entry back. It knows nothing of the loop
cut, which is the closures' alone (see "Loop cut" in `interpreter`).

It takes only the loops that the corpus programs and the repair
operators build, and raises `Declined` for any other, which stays on the
closures. The hot language is:
  - statements `let x = e;`, `x = e;`, `return e;` and an `if` with no
    `else`;
  - int and bool literals, variables, unary `-` and `!`, the binary
    operators, and `v[e]` and `len(v)` with `v` an array bound at the
    header that the loop never rebinds.
So a hot loop makes no call, holds no loop and never writes an array,
and the arrays it reads cannot change during the entry: their lengths
are loaded once at entry (the local `n3` for slot 3).

The iterations run in segments. A segment begins with

    m = min(steps_left // most, caps...)

(`m = steps_left // most` for a loop with no accumulator), where `most`
is the most steps any path through one iteration can charge (the header,
each statement, and each `if`'s branch), and each accumulator (below)
adds a cap: `m` is the number of iterations that the budget cannot
interrupt and that no accumulator can overflow in. Then
`for j in range(m - 1, -1, -1):` runs them with no test of either, `j`
counting the iterations left after the current one, and its `else`
begins the next segment. `m` is below 1 only when fewer than `most`
steps are left or an accumulator's cap is spent: `hot` then writes its
locals back and hands the entry back, and the closures finish it,
trapping where an accumulator overflows. So `hot` never runs out of
budget, and it hands back at the iteration where a test before every
iteration would.

Steps are charged per segment and per branch: before its `for`, a
segment charges the header and the body's top-level statements of all
its `m` iterations with one decrement, and each `if` branch charges its
own statements when it runs. A trap, a `return` and the header's exit
give back the steps charged for statements not yet reached: the count
the emitter knows statically for this iteration (the sum over the open
blocks), and the header and top-level statements of the `j` iterations
left, so `run.steps_left` is written exact. Each statement in a branch is
marked before its expressions; the header and the top-level statements
ran in each visit before the switch, so they are marked already.

An accumulator is a slot visible at the header that the loop changes
only by `x = x + e`, `x = x - e` or `x = e + x`, where `e` is an int
literal or an array element, which no iteration can change. Each entry reads the
bound of `x`'s increments once: the sum over its stores of `abs` of the
literal or of the array's largest `abs` (the local `b3` for slot 3, or a
constant when every `e` is a literal; a sum of 0 is read as 1). The cap
`(INT_MAX - abs(x)) // bound` keeps `|x| + m * bound <= INT_MAX` over
the segment, so `x`'s stores are emitted without their overflow check:
the checks that Sol et al., "Dynamic elimination of overflow tests in a
trace compiler" (CC 2011), drop once a range guard has passed. At
`abs(x)` near INT_MAX the cap reaches 0 (or -1 at INT_MIN) and the entry
is handed back.

Slots live in Python locals (MiniLang slot 3 is the local `s3`), all
loaded at entry; the ones visible at the header that the loop assigns are
written back to `frame` at a hand-back and at a normal exit. A trap or a `return` ends the activation, so they write
nothing back, and an arithmetic store may compute into its slot before
the overflow check. The steps left live in a local too, written back to
`run` at the same points and before every trap and return.

Checks that cannot fire are left out too, so that the loops of mutation
candidates, which rewrite an increment `i = i + 1` as `i * 1`, `i / 1`
or `i % 1`, pay for little more than their own arithmetic:
  - Under a header `i < len(v)`, alone or as a conjunct of an `&&`
    header, `v[i]` tests only `i >= 0`, from the header up to the first
    store to `i`'s slot in emission order (a store in a branch ends it
    for every statement emitted after it): bounds-check elimination from
    a dominating test, as in Bodik, Gupta and Sarkar, "ABCD: eliminating
    array bounds checks on demand", PLDI 2000.
  - `x * 1`, `x / 1`, `x + 0` and `x - 0` are `x`, and `x % 1` is 0,
    after the checks of `x`; none of them can overflow.

Expressions compile to straight-line code: each check that can trap is a
statement of its own, emitted in the order the closures evaluate, and
each operand is a side-effect-free Python expression that is evaluated
after its checks. MiniLang expressions change nothing (a hot loop makes
no call), so reading an operand later cannot change its value. A value
always has its static type (`interpret` checks its arguments at entry),
so `==` and `!=` are emitted as Python's, like `<`, with no type test.

The text holds only slot numbers, statement numbers, step counts,
operators from the tables below and the repr of int and bool literals; no
MiniLang name enters it. Its globals supply the rest: `_Trap`,
`_HandBack` and `_SIDS` (statement ids by number). It raises no budget
exhaustion, so it needs no `_BudgetExhausted`.
"""

from __future__ import annotations

from minirepair.minilang.nodes import (
    INT_MAX,
    INT_MIN,
    AssignStmt,
    Binary,
    BoolLit,
    Expr,
    IfStmt,
    Index,
    IntLit,
    Len,
    LetStmt,
    ReturnStmt,
    Stmt,
    Unary,
    Var,
    WhileStmt,
    iter_depths,
)


class Declined(Exception):
    """The loop holds a shape that `loop_source` does not take."""


_ARITH = ("+", "-", "*")
_COMPARE = ("<", "<=", ">", ">=", "==", "!=")
# `/` and `%` as Python operators, and the trap of a zero divisor.
_DIVIDE = {"/": ("//", "division-by-zero"), "%": ("%", "modulo-by-zero")}
# `x op c` that is `x`, or 0 for `%`, for every int `x`.
_IDENTITIES = {("+", 0), ("-", 0), ("*", 1), ("/", 1), ("%", 1)}

def loop_source(stmt: WhileStmt, names: dict[str, int], base: int, k: int) -> str:
    """The text of `hot` for the loop `stmt`, statement number `k`, whose
    header sees `names` (name -> slot) and whose body's `let`s take slots
    from `base` on, as the closure compiler assigns them."""
    return _Emitter(names, base, k).loop(stmt)


class _Emitter:
    def __init__(self, names: dict[str, int], base: int, k: int):
        self.scope = [dict(names)]
        self.live = set(names.values())
        self.nslots = base
        self.number = k  # the next statement number
        self.k = k  # the statement being emitted, which its traps name
        self.lines: list[str] = []
        self.depth = 3  # indentation, in levels: `def`, `while`, `for`
        self.temps = 0
        self.used: set[int] = set()
        self.assigned: set[int] = set()
        self.fixed: set[int] = set()  # header slots the loop never rebinds
        self.lengths: set[int] = set()  # fixed lengths the text reads
        # (index slot, array slot) pairs whose `index < len(array)` the
        # header implies and no store emitted since has ended
        self.bounds: set[tuple[int, int]] = set()
        self.branches = 0  # the `if` branches around the statement
        self.ahead = 0  # steps charged for statements not yet reached
        self.top = 1  # steps one iteration charges before its branches
        self.unchecked: set[int] = set()  # ids of accumulator stores the cap bounds

    def loop(self, stmt: WhileStmt) -> str:
        nodes = [node for node, _ in iter_depths(stmt.body)]
        rebound = {node.name for node in nodes if isinstance(node, (LetStmt, AssignStmt))}
        self.fixed = {slot for name, slot in self.scope[0].items() if name not in rebound}
        increments = self.accumulators(nodes)
        self.top = 1 + len(stmt.body)
        self.k = self.number
        self.number += 1
        self.ahead = len(stmt.body)
        cond, _ = self.value(stmt.cond)
        self.line(f"if not {cond}:")
        self.line("    break")
        self.ahead = 0
        self.bounds = self.implied_bounds(stmt.cond)
        most = 1 + self.block(stmt.body)
        bounds, caps = self.caps(increments)
        write_back = [f"frame[{s}] = s{s}" for s in sorted(self.assigned & self.live)]
        head = ["def hot(frame, run, marks):"]
        head += [f"    s{s} = frame[{s}]" for s in sorted(self.used)]
        head += [f"    n{s} = len(s{s})" for s in sorted(self.lengths)]
        head += ["    " + line for line in bounds]
        head += ["    steps_left = run.steps_left", "    while True:"]
        budget = f"steps_left // {most}"
        head += [f"        m = min({', '.join([budget] + caps)})" if caps else f"        m = {budget}"]
        head += ["        if m <= 0:"]
        head += ["            " + line for line in write_back + ["run.steps_left = steps_left", "return _HandBack"]]
        head += [f"        steps_left -= {_times('m', self.top)}", "        for j in range(m - 1, -1, -1):"]
        tail = ["        else:", "            continue", "        break"]
        tail += ["    " + line for line in write_back]
        tail += [f"    run.steps_left = {self.steps(len(stmt.body))}", "    return None", ""]
        return "\n".join(head + self.lines + tail)

    def accumulators(self, nodes: list) -> dict[int, list[Expr]]:
        """The increments `e` of each accumulator among the header's slots:
        one that the loop, whose statements and expressions are `nodes`,
        changes only by `x = x + e`, `x = x - e` or `x = e + x`, each `e`
        an int literal or an array element, which cannot change in a hot
        loop. Its stores that are not identities go into `unchecked`."""
        header = self.scope[0]
        lets = {node.name for node in nodes if isinstance(node, LetStmt)}
        stores: dict[str, list[AssignStmt]] = {}
        for node in nodes:
            if isinstance(node, AssignStmt) and node.name in header and node.name not in lets:
                stores.setdefault(node.name, []).append(node)
        increments = {}
        for name, assigns in stores.items():
            found = [self.increment(store) for store in assigns]
            if None in found:
                continue
            increments[header[name]] = found
            for store, e in zip(assigns, found):
                if not (isinstance(e, IntLit) and (store.value.op, e.value) in _IDENTITIES):
                    self.unchecked.add(id(store))
        return increments

    def increment(self, store: AssignStmt) -> Expr | None:
        """The `e` of an accumulator store `x = x + e`, `x = x - e` or
        `x = e + x`, or None when `store` is not one."""
        value = store.value
        if not isinstance(value, Binary) or value.op not in ("+", "-"):
            return None
        if isinstance(value.lhs, Var) and value.lhs.name == store.name:
            e = value.rhs
        elif value.op == "+" and isinstance(value.rhs, Var) and value.rhs.name == store.name:
            e = value.lhs
        else:
            return None
        if isinstance(e, IntLit):
            return e if type(e.value) is int else None
        return e if isinstance(e, Index) else None

    def caps(self, increments: dict[int, list[Expr]]) -> tuple[list[str], list[str]]:
        """The entry's bound of each accumulator's increments per iteration
        (`b3` for slot 3, from its arrays' largest `abs`; literals add in as
        constants), read once, and the
        segment caps that keep every accumulator within `|x| <= INT_MAX`."""
        bounds, caps = [], []
        for slot, found in sorted(increments.items()):
            literals = sum(abs(e.value) for e in found if isinstance(e, IntLit))
            terms = [f"max(map(abs, s{self.scope[0][e.name]}), default=0)" for e in found if isinstance(e, Index)]
            room = f"{INT_MAX} - abs(s{slot})"
            if terms:
                total = " + ".join(terms + ([str(literals)] if literals else []))
                bounds.append(f"b{slot} = {total} or 1")
                caps.append(f"({room}) // b{slot}")
            elif literals:
                caps.append(room if literals == 1 else f"({room}) // {literals}")
        return bounds, caps

    def implied_bounds(self, cond: Expr) -> set[tuple[int, int]]:
        """(index slot, array slot) of each conjunct `i < len(v)` of the
        header `cond`, whose text is emitted, so `v` has a fixed binding."""
        if not isinstance(cond, Binary):
            return set()
        if cond.op == "&&":
            return self.implied_bounds(cond.lhs) | self.implied_bounds(cond.rhs)
        index, length = cond.lhs, cond.rhs
        if cond.op == "<" and isinstance(index, Var) and isinstance(length, Len) and isinstance(length.arg, Var):
            return {(self.slot(index.name), self.slot(length.arg.name))}
        return set()

    # -- text ----------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def steps(self, ahead: int) -> str:
        """The steps left, with the steps charged but not reached given back:
        `ahead` in this iteration and all of each later one in the segment,
        `j` of them."""
        back = _times("j", self.top)
        return f"steps_left + {back} + {ahead}" if ahead else f"steps_left + {back}"

    def trap(self, condition: str, kind: str) -> None:
        self.line(f"if {condition}:")
        self.line(f"    run.steps_left = {self.steps(self.ahead)}")
        self.line(f"    raise _Trap({kind!r}, _SIDS[{self.k}])")

    def in_range(self, value: str) -> None:
        self.trap(f"not {INT_MIN} <= {value} <= {INT_MAX}", "integer-overflow")

    def in_bounds(self, array: str, expr: Expr, index: str) -> None:
        """The bounds check of `array[expr]`, `index` the text of `expr`:
        only `index >= 0` while the header's `i < len(v)` holds for it."""
        if isinstance(expr, Var) and (self.slot(expr.name), self.slot(array)) in self.bounds:
            self.trap(f"{index} < 0", "index-out-of-bounds")
        else:
            self.trap(f"not 0 <= {index} < {self.length(array)}", "index-out-of-bounds")

    def slot(self, name: str) -> int:
        """The slot of `name`, which the closure compiler has resolved."""
        for frame in reversed(self.scope):
            if name in frame:
                self.used.add(frame[name])
                return frame[name]

    def length(self, array: str) -> str:
        """The length of the array named `array`, of fixed binding, loaded
        at entry."""
        slot = self.slot(array)
        if slot not in self.fixed:
            raise Declined(f"rebound array {array!r}")
        self.lengths.add(slot)
        return f"n{slot}"

    # -- statements ----------------------------------------------------------

    def block(self, stmts: list[Stmt]) -> int:
        """The statements of a block, in a fresh scope frame, whose steps
        its enclosing block has charged; returns the most steps one pass
        through them can charge."""
        self.scope.append({})
        most = 0
        for i, stmt in enumerate(stmts):
            rest = len(stmts) - 1 - i
            self.ahead += rest
            most += self.stmt(stmt)
            self.ahead -= rest
        self.scope.pop()
        return most

    def branch(self, stmts: list[Stmt]) -> int:
        """An `if` branch, which charges its own statements and marks each
        one before its expressions: the visits before the switch may not
        have taken it."""
        self.depth += 1
        self.branches += 1
        self.line(f"steps_left -= {len(stmts)}" if stmts else "pass")
        most = self.block(stmts)
        self.branches -= 1
        self.depth -= 1
        return most

    def stmt(self, stmt: Stmt) -> int:
        """Emit `stmt`, whose step is charged already; returns the most
        steps it can charge, its own and those of its branches."""
        self.k = self.number
        self.number += 1
        if self.branches:
            self.line(f"marks[{self.k}] = True")
        if isinstance(stmt, (LetStmt, AssignStmt)):
            if isinstance(stmt, AssignStmt):
                slot = self.slot(stmt.name)
            else:
                slot = self.scope[-1].get(stmt.name, self.nslots)
            if id(stmt) in self.unchecked:
                value = self.accumulate(stmt.value)
            else:
                value, _ = self.value(stmt.value, into=f"s{slot}")
            if slot == self.nslots:
                # operands are resolved before a `let` binds its own name
                self.scope[-1][stmt.name] = slot
                self.nslots += 1
            self.used.add(slot)
            self.assigned.add(slot)
            self.bounds = {bound for bound in self.bounds if bound[0] != slot}
            if value != f"s{slot}":
                self.line(f"s{slot} = {value}")
        elif isinstance(stmt, IfStmt) and stmt.else_body is None:
            cond, _ = self.value(stmt.cond)
            self.line(f"if {cond}:")
            return 1 + self.branch(stmt.then_body)
        elif isinstance(stmt, ReturnStmt):
            value, _ = self.value(stmt.value)
            self.line(f"run.steps_left = {self.steps(self.ahead)}")
            self.line(f"return {value}")
        else:
            raise Declined(type(stmt).__name__)
        return 1

    # -- expressions ---------------------------------------------------------

    def accumulate(self, expr: Binary) -> str:
        """An accumulator's `x + e`, `x - e` or `e + x`, after the checks of
        `e` and with no overflow check: the segment cap keeps it in range."""
        lhs, _ = self.value(expr.lhs)
        rhs, _ = self.value(expr.rhs)
        return f"{lhs} {expr.op} {rhs}"

    def atom(self, expr: Expr) -> str:
        """`expr` as a local or a literal, which may be read more than once."""
        value, atomic = self.value(expr)
        if atomic:
            return value
        t = self.temp()
        self.line(f"{t} = {value}")
        return t

    def value(self, expr: Expr, into: str | None = None) -> tuple[str, bool]:
        """Emit the checks of `expr` and return (text, atomic): its value as
        a Python expression with no side effect, which binds tighter than
        any binary operator, to be evaluated once; atomic when it is a
        local or a literal. Arithmetic, computed in one line, is computed
        into the local `into` when one is given."""
        if isinstance(expr, (IntLit, BoolLit)):
            if type(expr.value) not in (int, bool):
                raise Declined(f"literal {type(expr.value).__name__}")
            return (repr(expr.value) if expr.value >= 0 else f"({expr.value!r})"), True
        if isinstance(expr, Var):
            return f"s{self.slot(expr.name)}", True
        if isinstance(expr, Binary):
            return self.binary(expr, into)
        if isinstance(expr, Unary):
            operand, _ = self.value(expr.operand)
            if expr.op != "-":
                return f"(not {operand})", False
            t = into or self.temp()
            self.line(f"{t} = -{operand}")
            self.in_range(t)
            return t, True
        if isinstance(expr, Index):
            array = f"s{self.slot(expr.name)}"
            index = self.atom(expr.index)
            self.in_bounds(expr.name, expr.index, index)
            return f"{array}[{index}]", False
        if isinstance(expr, Len) and isinstance(expr.arg, Var):
            return self.length(expr.arg.name), True
        raise Declined(type(expr).__name__)

    def binary(self, expr: Binary, into: str | None) -> tuple[str, bool]:
        op = expr.op
        if op in ("&&", "||"):
            return self.short_circuit(expr)
        if isinstance(expr.rhs, IntLit) and (op, expr.rhs.value) in _IDENTITIES:
            return self.identity(expr, into)
        if op in _ARITH:
            lhs, _ = self.value(expr.lhs)
            rhs, _ = self.value(expr.rhs)
            t = into or self.temp()
            self.line(f"{t} = {lhs} {op} {rhs}")
            self.in_range(t)
            return t, True
        if op in _DIVIDE:
            return self.divide(expr)
        if op in _COMPARE:
            lhs, _ = self.value(expr.lhs)
            rhs, _ = self.value(expr.rhs)
            return f"({lhs} {op} {rhs})", False
        raise Declined(f"operator {op!r}")

    def identity(self, expr: Binary, into: str | None) -> tuple[str, bool]:
        """`x * 1`, `x / 1`, `x + 0` and `x - 0` as `x`, and `x % 1` as 0,
        after the checks of `x`, which can overflow in none of them."""
        if expr.op == "%":
            self.value(expr.lhs)  # its checks; the value itself is unused
            return "0", True
        return self.value(expr.lhs, into)

    def short_circuit(self, expr: Binary) -> tuple[str, bool]:
        """`&&` and `||`, whose right operand's checks run only when the
        left operand does not decide."""
        lhs, _ = self.value(expr.lhs)
        start = len(self.lines)
        self.depth += 1
        rhs, _ = self.value(expr.rhs)
        self.depth -= 1
        word = "and" if expr.op == "&&" else "or"
        if len(self.lines) == start:
            return f"({lhs} {word} {rhs})", False
        t = self.temp()
        indent = "    " * self.depth
        test = t if word == "and" else f"not {t}"
        self.lines[start:start] = [f"{indent}{t} = {lhs}", f"{indent}if {test}:"]
        self.line(f"    {t} = {rhs}")
        return t, True

    def divide(self, expr: Binary) -> tuple[str, bool]:
        """`/` and `%`: C style, truncating toward zero. By an int constant
        `c > 0`, a negative dividend divides as its negation, negated, and
        the quotient cannot overflow."""
        python_op, zero_trap = _DIVIDE[expr.op]
        lhs = self.atom(expr.lhs)
        rhs = self.atom(expr.rhs)
        if isinstance(expr.rhs, IntLit) and expr.rhs.value > 0:
            return f"({lhs} {python_op} {rhs} if {lhs} >= 0 else -(-{lhs} {python_op} {rhs}))", False
        self.trap(f"{rhs} == 0", zero_trap)
        q = self.temp()
        self.line(f"{q} = abs({lhs}) // abs({rhs})")
        self.line(f"if ({lhs} < 0) != ({rhs} < 0):")
        self.line(f"    {q} = -{q}")
        if expr.op == "/":
            self.in_range(q)
            return q, True
        return f"({lhs} - {q} * {rhs})", False


def _times(name: str, count: int) -> str:
    """`name * count` as text, or `name` for a count of 1."""
    return f"{name} * {count}" if count != 1 else name
