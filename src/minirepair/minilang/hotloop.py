"""Hot loops: one MiniLang `while` loop as the source text of one Python
function, which the interpreter compiles once the loop has run long (see
"Hot loops" in `interpreter`).

`loop_source` reads the loop, the slots of the names visible at its
header, the first slot its body's `let`s take and its statement number,
and returns the text of

    hot(frame, run, marks, nvisits, cut)

which runs the rest of one loop entry exactly as the closures would:
`frame` is the activation's slot list, `run` the run state, `marks` the
running function's coverage list, `nvisits` the header visits so far and
`cut` the entry's loop cut, checked as the closures check it. `hot`
returns None when the header exits, the value of a `return`, or
`_HandBack(nvisits)` when it hands the entry back. It raises `Declined`
for a loop that holds a call or a nested `while`, names an unbound
variable, or has a statement, expression, operator or literal it does
not know.

The iterations run in segments. A segment begins with

    m = min(steps_left // most, check_at - nvisits)

where `most` is the most steps any path through one iteration can charge
(the header, each statement, and the longer branch of each `if`): `m` is
the number of iterations that neither the budget nor the next loop-cut
check can interrupt. Then `for _ in range(m):` runs them with no test of
either, and its `else` adds the `m` visits and checks the cut if its
visit has come. The next check always lies ahead of the visits so far, so
`m` is 0 only when fewer than `most` steps are left: `hot` then writes
its locals back and hands the entry back, and the closures finish it. So
`hot` never runs out of budget, and it hands back at the iteration where
a test before every iteration would.

Steps are charged per block, with one decrement before the block's first
statement: the iteration charges the header and the body's top-level
statements, and each `if` branch charges its own. A trap, a `return` and
the header's exit give back the steps charged for statements not yet
reached, a count the emitter knows statically (the sum over the open
blocks), so `run.steps_left` is written exact. Each statement in a
branch is marked before its expressions; the header and the top-level
statements ran in each visit before the switch, so they are marked
already.

Slots live in Python locals (MiniLang slot 3 is the local `s3`), all
loaded at entry; the ones visible at the header that the loop assigns are
written back to `frame` before each loop-cut check, at a hand-back and at
a normal exit. A trap or a `return` ends the activation, so they write
nothing back, and an arithmetic store may compute into its slot before
the overflow check. The steps left live in a local too, written back to
`run` at the same points and before every trap and return. A
MiniLang array never changes length, so an array name bound at the header
that no statement of the loop assigns or `let`s again has its length
loaded once at entry (the local `n3` for slot 3), which `len` and the
index bounds read; other lengths are read at each use.

Checks that cannot fire are left out, so that the loops of mutation
candidates, which rewrite an increment `i = i + 1` as `i * 1`, `i / 1`
or `i % 1`, pay for little more than their own arithmetic:
  - Under a header `i < len(v)` or `len(v) > i`, alone or as a conjunct
    of an `&&` header, with `v` of fixed length, `v[i]` and `v[i] = e`
    test only `i >= 0`, from the header up to the first store to `i`'s
    slot in emission order (a store in a branch ends it for every
    statement emitted after it): bounds-check elimination from a
    dominating test, as in Bodik, Gupta and Sarkar, "ABCD: eliminating
    array bounds checks on demand", PLDI 2000.
  - `x * 1`, `x / 1`, `x + 0` and `x - 0` are `x`, and `x % 1` is 0,
    after the checks of `x`; none of them can overflow. A variable or an
    element `x` is read as `+x`, an int even where an argument of the
    wrong type made `x` a bool, as the closures' arithmetic would.
  - `==` and `!=` against an int constant compare without a type test
    when the other operand can only be an int: an arithmetic result or a
    length.
  - `/` and `%` by a length, past its zero check, take the path of a
    positive constant divisor.

Expressions compile to straight-line code: each check that can trap is a
statement of its own, emitted in the order the closures evaluate, and
each operand is a side-effect-free Python expression that is evaluated
after its checks. MiniLang expressions change nothing (a hot loop makes
no call), so reading an operand later cannot change its value.

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
    ArrayLit,
    AssignStmt,
    Binary,
    BoolLit,
    Expr,
    ExprStmt,
    IfStmt,
    Index,
    IndexAssignStmt,
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
_ORDER = ("<", "<=", ">", ">=")
# `/` and `%` as Python operators, and the trap of a zero divisor.
_DIVIDE = {"/": ("//", "division-by-zero"), "%": ("%", "modulo-by-zero")}
_TYPE_NAMES = {int: "int", bool: "bool"}
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

    def loop(self, stmt: WhileStmt) -> str:
        rebound = {node.name for node, _ in iter_depths(stmt.body) if isinstance(node, (LetStmt, AssignStmt))}
        self.fixed = {slot for name, slot in self.scope[0].items() if name not in rebound}
        self.k = self.number
        self.number += 1
        self.ahead = len(stmt.body)
        cond, _ = self.value(stmt.cond)
        self.line(f"if not {cond}:")
        self.line("    break")
        self.ahead = 0
        self.bounds = self.implied_bounds(stmt.cond)
        most = 1 + self.block(stmt.body)
        write_back = [f"frame[{s}] = s{s}" for s in sorted(self.assigned & self.live)]
        save = write_back + ["run.steps_left = steps_left"]
        head = ["def hot(frame, run, marks, nvisits, cut):"]
        head += [f"    s{s} = frame[{s}]" for s in sorted(self.used)]
        head += [f"    n{s} = len(s{s})" for s in sorted(self.lengths)]
        head += ["    steps_left = run.steps_left", "    check_at = cut.check_at", "    while True:"]
        head += [f"        m = min(steps_left // {most}, check_at - nvisits)", "        if not m:"]
        head += ["            " + line for line in save + ["return _HandBack(nvisits)"]]
        head += ["        for _ in range(m):", f"            steps_left -= {1 + len(stmt.body)}"]
        tail = ["        else:", "            nvisits += m", "            if nvisits >= check_at:"]
        tail += ["                " + line for line in save + ["check_at = cut.check(frame, nvisits)"]]
        tail += ["            continue", "        break"]
        tail += ["    " + line for line in write_back]
        tail += [f"    run.steps_left = {self.steps(len(stmt.body))}", "    return None", ""]
        return "\n".join(head + self.lines + tail)

    def implied_bounds(self, cond: Expr) -> set[tuple[int, int]]:
        """(index slot, array slot) of each conjunct `i < len(v)` or
        `len(v) > i` of the header `cond` whose array `v` has a fixed
        length."""
        if not isinstance(cond, Binary):
            return set()
        if cond.op == "&&":
            return self.implied_bounds(cond.lhs) | self.implied_bounds(cond.rhs)
        if cond.op == "<":
            index, length = cond.lhs, cond.rhs
        elif cond.op == ">":
            index, length = cond.rhs, cond.lhs
        else:
            return set()
        if isinstance(index, Var) and isinstance(length, Len) and isinstance(length.arg, Var):
            array = self.slot(length.arg.name)
            if array in self.fixed:
                return {(self.slot(index.name), array)}
        return set()

    # -- text ----------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    @staticmethod
    def steps(ahead: int) -> str:
        """The steps left, with `ahead` steps charged but not reached given back."""
        return f"steps_left + {ahead}" if ahead else "steps_left"

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
        for frame in reversed(self.scope):
            if name in frame:
                self.used.add(frame[name])
                return frame[name]
        raise Declined(f"unbound variable {name!r}")

    def length(self, array: str) -> str:
        """The length of the array named `array`: a fixed length loaded at
        entry, or read where it is used."""
        slot = self.slot(array)
        if slot in self.fixed:
            self.lengths.add(slot)
            return f"n{slot}"
        return f"len(s{slot})"

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
        elif isinstance(stmt, IndexAssignStmt):
            array = f"s{self.slot(stmt.name)}"
            index = self.atom(stmt.index)
            value, _ = self.value(stmt.value)
            self.in_bounds(stmt.name, stmt.index, index)
            self.line(f"{array}[{index}] = {value}")
        elif isinstance(stmt, IfStmt):
            cond, _ = self.value(stmt.cond)
            self.line(f"if {cond}:")
            most = self.branch(stmt.then_body)
            if stmt.else_body is not None:
                self.line("else:")
                most = max(most, self.branch(stmt.else_body))
            return 1 + most
        elif isinstance(stmt, ReturnStmt):
            value, _ = self.value(stmt.value)
            self.line(f"run.steps_left = {self.steps(self.ahead)}")
            self.line(f"return {value}")
        elif isinstance(stmt, ExprStmt):
            self.value(stmt.value)  # its checks; the value itself is unused
        else:
            raise Declined(type(stmt).__name__)
        return 1

    # -- expressions ---------------------------------------------------------

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
            if type(expr.value) not in _TYPE_NAMES:
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
        if isinstance(expr, Len):
            if isinstance(expr.arg, Var):
                length = self.length(expr.arg.name)
                return length, not length.startswith("len(")
            arg, _ = self.value(expr.arg)
            return f"len({arg})", False
        if isinstance(expr, ArrayLit):
            items = [self.value(item)[0] for item in expr.items]
            return f"[{', '.join(items)}]", False
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
        if op in _ORDER:
            lhs, _ = self.value(expr.lhs)
            rhs, _ = self.value(expr.rhs)
            return f"({lhs} {op} {rhs})", False
        if op in ("==", "!="):
            lhs = self.atom(expr.lhs)
            rhs = self.atom(expr.rhs)
            if isinstance(expr.lhs, (IntLit, BoolLit)):
                lhs, rhs, constant, other = rhs, lhs, expr.lhs.value, expr.rhs
            elif isinstance(expr.rhs, (IntLit, BoolLit)):
                constant, other = expr.rhs.value, expr.lhs
            else:
                if op == "==":
                    return f"(type({lhs}) is type({rhs}) and {lhs} == {rhs})", False
                return f"(type({lhs}) is not type({rhs}) or {lhs} != {rhs})", False
            if type(constant) is int and _is_int(other):
                return f"({lhs} {op} {rhs})", False
            # type-strict against a constant, as the closures compare, unless
            # the other operand can only be an int
            name = _TYPE_NAMES[type(constant)]
            if op == "==":
                return f"({lhs} == {rhs} and type({lhs}) is {name})", False
            return f"({lhs} != {rhs} or type({lhs}) is not {name})", False
        raise Declined(f"operator {op!r}")

    def identity(self, expr: Binary, into: str | None) -> tuple[str, bool]:
        """`x * 1`, `x / 1`, `x + 0` and `x - 0` as `x`, and `x % 1` as 0,
        after the checks of `x`, which can overflow in none of them. An `x`
        that is not an int by its shape (a variable or an element, which an
        argument of the wrong type may make a bool) is read as `+x`, an int,
        as the closures' arithmetic makes it."""
        if expr.op == "%":
            self.value(expr.lhs)  # its checks; the value itself is unused
            return "0", True
        if _is_int(expr.lhs):
            return self.value(expr.lhs, into)
        x, _ = self.value(expr.lhs)
        return f"(+{x})", False

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
        """`/` and `%`: C style, truncating toward zero. By a positive
        divisor, an int constant `c > 0` or a length past its zero check, a
        negative dividend divides as its negation, negated, and the quotient
        cannot overflow."""
        python_op, zero_trap = _DIVIDE[expr.op]
        lhs = self.atom(expr.lhs)
        positive = isinstance(expr.rhs, IntLit) and expr.rhs.value > 0
        rhs = self.atom(expr.rhs)
        if not positive:
            self.trap(f"{rhs} == 0", zero_trap)
        if positive or isinstance(expr.rhs, Len):
            return f"({lhs} {python_op} {rhs} if {lhs} >= 0 else -(-{lhs} {python_op} {rhs}))", False
        q = self.temp()
        self.line(f"{q} = abs({lhs}) // abs({rhs})")
        self.line(f"if ({lhs} < 0) != ({rhs} < 0):")
        self.line(f"    {q} = -{q}")
        if expr.op == "/":
            self.in_range(q)
            return q, True
        return f"({lhs} - {q} * {rhs})", False


def _is_int(expr: Expr) -> bool:
    """Whether `expr` evaluates to an int whatever the types of its
    operands: an int literal, a length or an arithmetic result."""
    if isinstance(expr, Binary):
        return expr.op in _ARITH or expr.op in _DIVIDE
    if isinstance(expr, Unary):
        return expr.op == "-"
    return isinstance(expr, Len) or isinstance(expr, IntLit) and type(expr.value) is int
