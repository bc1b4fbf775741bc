"""Random well-typed MiniLang program generator for round-trip and
differential testing.

Programs are built directly as ASTs so well-typedness holds by
construction: every let introduces a fresh name (no shadowing), all
operators see correctly typed operands, and every function body ends in
a return of the declared type. The printer tests parse and print them;
the interpreter tests execute them against the tree-walking reference.
Loops need not terminate and calls may recurse without bound: the
interpreters end such runs by step budget or call depth.

The generator favours the shapes that the repair searches run most, so
that the differential tests reach each of them often:
`x = y op c` and `x = y op v[i]` stores, `i < len(v)` loop headers, and
operators with a constant on their right, such as `e % c` and `e == c`.
It also favours the shapes the hot-loop emitter treats apart. Counted
loops, `let i = 0;` and a loop guarded by `i < len(v)` (or `len(v) > i`,
alone or in an `&&`), read and write `v[i]` often and store to `i` in
the middle of their body, and at times in a branch, so that `v[i]` is
read both before and after a store to `i`; they make no call and hold
no loop, either of which would keep them off the hot form. One time in
three a counted loop also moves an accumulator that starts within 60 of
INT_MAX or INT_MIN toward that end, so that the hot form caps its
segments and hands back before the overflow. Half the constant right
operands of arithmetic make an identity: `x * 1`, `x / 1`, `x % 1`,
`x + 0` or `x - 0`. And inside a loop three indexes in four are 0 or 1,
inside most arrays, so that fewer loops trap in their first iteration.
(Such indexes everywhere let more runs reach calls, and so enter more
functions, which leaves too few tests for `test_test_selection` to skip.)

`random_hot_unit` draws every loop, header and body, from the hot-loop
emitter's language alone (see `minirepair.minilang.hotloop`), so that
its loops tier up instead of staying on the closures. Inside a loop it
draws no call, nested loop, index store, `else`, expression statement,
array literal, array `let` or store, or `len` of anything but a
variable; a counted loop's header is `i < len(v)` (alone or in an `&&`),
and an accumulator moves by a constant or `v[i]`. `random_unit`'s units
are drawn as before.

`random_lineage` grows a random unit by the repair operators, so that
tests can check each child against its parent.
"""

from __future__ import annotations

import random

from minirepair.minilang.checker import check_unit
from minirepair.minilang.nodes import (
    INT_MAX,
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
    Stmt,
    T_BOOL,
    T_INT,
    T_INT_ARRAY,
    Unary,
    Var,
    WhileStmt,
    all_statement_ids,
    normalize,
    path_of,
)
from minirepair.operators import (
    EMPTY_POOL,
    SCOPES,
    ModificationPoint,
    PatchSkip,
    apply_patch_op,
    enumerate_ops,
    harvest_ingredients,
)

TYPES = (T_INT, T_BOOL, T_INT_ARRAY)
ARITH = ("+", "-", "*", "/", "%")
COMPARE = ("<", "<=", ">", ">=")
LOGIC = ("&&", "||")


class ProgramGenerator:
    def __init__(self, rng: random.Random, hot: bool = False):
        self.rng = rng
        self.hot = hot  # draw loops from the hot-loop emitter's language
        self.in_hot_loop = False  # drawing a loop's header or body, when `hot`
        self.signatures: dict[str, tuple[tuple[str, ...], str]] = {}
        self._name_counter = 0
        # (i, v) of the enclosing counted loop, guarded by `i < len(v)`
        self.guard: tuple[str, str] | None = None
        self.loops = 0  # the loops around the statement being drawn

    def unit(self) -> SourceUnit:
        count = self.rng.randint(1, 3)
        names = [f"f{i}" for i in range(count)]
        self.signatures = {}
        for name in names:
            params = tuple(self.rng.choice(TYPES) for _ in range(self.rng.randint(0, 3)))
            self.signatures[name] = (params, self.rng.choice(TYPES))
        functions = [self._function(name) for name in names]
        unit = normalize(SourceUnit(functions, source_name="generated"))
        check_unit(unit)  # generator invariant, not an input check
        return unit

    def _function(self, name: str) -> FunctionDef:
        param_types, return_type = self.signatures[name]
        params = [(f"p{i}", t) for i, t in enumerate(param_types)]
        self._name_counter = 0
        scope = [dict(params)]
        body = self._block(scope, depth=0, return_type=return_type)
        body.append(ReturnStmt(self._expr(return_type, scope, depth=2)))
        return FunctionDef(name, params, return_type, body)

    def _fresh(self) -> str:
        self._name_counter += 1
        return f"v{self._name_counter}"

    def _vars_of(self, type_: str, scope: list[dict]) -> list[str]:
        return [name for frame in scope for name, t in frame.items() if t == type_]

    def _block(self, scope: list[dict], depth: int, return_type: str) -> list[Stmt]:
        count = self.rng.randint(1, 4 - depth) if depth < 3 else 1
        scope.append({})
        stmts = []
        for _ in range(count):
            nested = self.guard or self.in_hot_loop
            if depth < 2 and not nested and self._vars_of(T_INT_ARRAY, scope) and self.rng.random() < 0.2:
                stmts += self._counted_loop(scope, depth, return_type)
            else:
                stmts.append(self._stmt(scope, depth, return_type))
        scope.pop()
        # keep the block's bindings visible to the generator caller only
        return stmts

    def _stmt(self, scope: list[dict], depth: int, return_type: str) -> Stmt:
        if self.in_hot_loop:
            return self._hot_stmt(scope, depth, return_type)
        choices = ["let", "let", "expr"]
        if any(self._vars_of(t, scope) for t in TYPES):
            choices.append("assign")
        if self._vars_of(T_INT_ARRAY, scope):
            choices.append("index_assign")
        if depth < 2:
            choices.extend(["if", "if"] if self.guard else ["if", "if", "while"])
        kind = self.rng.choice(choices)
        if kind == "let":
            type_ = self.rng.choice(TYPES)
            name = self._fresh()
            stmt = LetStmt(name, self._value(type_, scope))
            scope[-1][name] = type_
            return stmt
        if kind == "assign":
            typed = [t for t in TYPES if self._vars_of(t, scope)]
            type_ = self.rng.choice(typed)
            name = self.rng.choice(self._vars_of(type_, scope))
            if type_ == T_INT and self.guard and self.rng.random() < 0.3:
                name = self.guard[0]
            return AssignStmt(name, self._value(type_, scope))
        if kind == "index_assign":
            if self.guard and self.rng.random() < 0.8:
                i, name = self.guard
                return IndexAssignStmt(name, Var(i), self._expr(T_INT, scope, depth=1))
            name = self.rng.choice(self._vars_of(T_INT_ARRAY, scope))
            return IndexAssignStmt(name, self._index(scope, depth=1), self._expr(T_INT, scope, depth=1))
        if kind == "if":
            cond = self._expr(T_BOOL, scope, depth=2)
            then_body = self._block(scope, depth + 1, return_type)
            else_body = self._block(scope, depth + 1, return_type) if self.rng.random() < 0.4 else None
            return IfStmt(cond, then_body, else_body)
        if kind == "while":
            self.in_hot_loop = self.hot
            cond = self._header(scope)
            self.loops += 1
            body = self._block(scope, depth + 1, return_type)
            self.loops -= 1
            self.in_hot_loop = False
            return WhileStmt(cond, body)
        return ExprStmt(self._expr(self.rng.choice(TYPES), scope, depth=2))

    def _hot_stmt(self, scope: list[dict], depth: int, return_type: str) -> Stmt:
        """A statement of a loop body in the hot language: a `let` or a
        store of an int or a bool, or an `if` with no `else`."""
        rng = self.rng
        kind = rng.choice(["let", "let", "assign", "if"] if depth < 2 else ["let", "let", "assign"])
        if kind == "if":
            return IfStmt(self._expr(T_BOOL, scope, depth=2), self._block(scope, depth + 1, return_type), None)
        type_ = rng.choice((T_INT, T_INT, T_BOOL))
        names = self._vars_of(type_, scope)
        if kind == "let" or not names:
            name = self._fresh()
            stmt = LetStmt(name, self._value(type_, scope))
            scope[-1][name] = type_
            return stmt
        name = rng.choice(names)
        if type_ == T_INT and self.guard and rng.random() < 0.3:
            name = self.guard[0]
        return AssignStmt(name, self._value(type_, scope))

    def _value(self, type_: str, scope: list[dict]) -> Expr:
        """A stored value; for an int, three times in four `y op e` on a
        bound `y`, with a constant or an element `v[i]` as `e` more often
        than not."""
        rng = self.rng
        ints = self._vars_of(T_INT, scope)
        if type_ != T_INT or not ints or rng.random() < 0.25:
            return self._expr(type_, scope, depth=2)
        arrays = self._vars_of(T_INT_ARRAY, scope)
        op = rng.choice(ARITH)
        roll = rng.random()
        if roll < 0.4:
            rhs = IntLit(self._constant(op))
        elif roll < 0.8 and arrays:
            rhs = self._element(scope, depth=0)
        else:
            rhs = self._expr(T_INT, scope, depth=1)
        return Binary(op, Var(rng.choice(ints)), rhs)

    def _header(self, scope: list[dict]) -> Expr:
        """A loop condition; half the time, when it can be, `i op len(v)`."""
        ints, arrays = self._vars_of(T_INT, scope), self._vars_of(T_INT_ARRAY, scope)
        if ints and arrays and self.rng.random() < 0.5:
            return Binary(self.rng.choice(COMPARE), Var(self.rng.choice(ints)), Len(Var(self.rng.choice(arrays))))
        return self._expr(T_BOOL, scope, depth=2)

    def _counted_loop(self, scope: list[dict], depth: int, return_type: str) -> list[Stmt]:
        """`let i = 0;` and a loop guarded by `i < len(v)`, written
        `i < len(v)`, `len(v) > i` or `i < len(v) && e`, whose body stores
        `i = i op c` between two statements; one time in three with an
        accumulator near the end of the int range (see `_accumulator`)."""
        rng = self.rng
        i, v = self._fresh(), rng.choice(self._vars_of(T_INT_ARRAY, scope))
        scope[-1][i] = T_INT
        self.in_hot_loop = self.hot
        form = rng.choice(("<", "&&") if self.hot else ("<", ">", "&&"))
        cond = Binary(">", Len(Var(v)), Var(i)) if form == ">" else Binary("<", Var(i), Len(Var(v)))
        if form == "&&":
            cond = Binary("&&", cond, self._expr(T_BOOL, scope, depth=1))
        self.guard = (i, v)
        self.loops += 1
        stmts = [LetStmt(i, IntLit(0))]
        accumulate = rng.random() < 1 / 3
        if accumulate:
            let, store = self._accumulator(scope)
            stmts.append(let)
        scope.append({})
        before = self._stmt(scope, depth + 1, return_type)
        op = rng.choice(ARITH)
        step = AssignStmt(i, Binary(op, Var(i), IntLit(self._constant(op))))
        after = self._stmt(scope, depth + 1, return_type)
        body = [before, step, after]
        if accumulate:
            body.insert(rng.randint(0, 3), store)
        scope.pop()
        self.guard = None
        self.loops -= 1
        self.in_hot_loop = False
        return stmts + [WhileStmt(cond, body)]

    def _accumulator(self, scope: list[dict]) -> tuple[LetStmt, AssignStmt]:
        """`let a = c;` with `c` within 60 of INT_MAX or of -INT_MAX, and a
        store that moves `a` toward that end: `a = a + e` (or `e + a`) or
        `a = a - e`, with `e` a small constant, the guard's `v[i]` or, but
        in a hot unit, an int variable. Nothing else names `a`, so the hot
        form caps its segments by `a` and hands the entry back as `a` nears
        the end of the range.
        Called with the guard set, before the loop's body is drawn."""
        rng = self.rng
        a = self._fresh()  # kept out of `scope`: no other statement reads or stores it
        near = IntLit(INT_MAX - rng.randint(0, 60))
        i, v = self.guard
        ints = [name for name in self._vars_of(T_INT, scope) if name != i]
        e = rng.choice([IntLit(rng.randint(1, 9)), Index(v, Var(i))] + ([Var(rng.choice(ints))] if ints and not self.hot else []))
        if rng.random() < 0.5:
            return LetStmt(a, Unary("-", near)), AssignStmt(a, Binary("-", Var(a), e))
        value = Binary("+", e, Var(a)) if rng.random() < 0.3 else Binary("+", Var(a), e)
        return LetStmt(a, near), AssignStmt(a, value)

    def _element(self, scope: list[dict], depth: int) -> Index:
        """An element of a bound array at an index from `_index`, or, four
        times in five inside a counted loop, the guard's `v[i]`."""
        if self.guard and self.rng.random() < 0.8:
            i, v = self.guard
            return Index(v, Var(i))
        return Index(self.rng.choice(self._vars_of(T_INT_ARRAY, scope)), self._index(scope, depth))

    def _index(self, scope: list[dict], depth: int) -> Expr:
        """An index: inside a loop three times in four 0 or 1, inside most
        arrays the programs make or receive, and otherwise any int
        expression."""
        if self.loops and self.rng.random() < 0.75:
            return IntLit(self.rng.randint(0, 1))
        return self._expr(T_INT, scope, depth)

    def _constant(self, op: str) -> int:
        """An int constant right operand of `op`: half the time one that
        makes `x op c` an identity (0 for + and -, 1 for *, / and %)."""
        if op in ARITH and self.rng.random() < 0.5:
            return 0 if op in "+-" else 1
        return self.rng.randint(0, 9)

    def _rhs(self, op: str, type_: str, scope: list[dict], depth: int) -> Expr:
        """The right operand of `op`, a constant one time in three."""
        if type_ == T_INT and self.rng.random() < 1 / 3:
            return IntLit(self._constant(op))
        return self._expr(type_, scope, depth)

    def _expr(self, type_: str, scope: list[dict], depth: int) -> Expr:
        rng = self.rng
        if depth <= 0:
            return self._leaf(type_, scope)
        if type_ == T_INT:
            kinds = ["leaf", "arith", "unary"]
            if self._vars_of(T_INT_ARRAY, scope):
                kinds.extend(["index", "len"])
            if self._callables(T_INT):
                kinds.append("call")
            kind = rng.choice(kinds)
            if kind == "arith":
                op = rng.choice(ARITH)
                return Binary(op, self._expr(T_INT, scope, depth - 1), self._rhs(op, T_INT, scope, depth - 1))
            if kind == "unary":
                return Unary("-", self._expr(T_INT, scope, depth - 1))
            if kind == "index":
                return self._element(scope, depth - 1)
            if kind == "len":
                if self.in_hot_loop:
                    return Len(Var(rng.choice(self._vars_of(T_INT_ARRAY, scope))))
                return Len(self._expr(T_INT_ARRAY, scope, depth - 1))
            if kind == "call":
                return self._call(T_INT, scope, depth)
            return self._leaf(type_, scope)
        if type_ == T_BOOL:
            kinds = ["leaf", "compare", "logic", "not", "equal"]
            if self._callables(T_BOOL):
                kinds.append("call")
            kind = rng.choice(kinds)
            if kind == "compare":
                op = rng.choice(COMPARE)
                return Binary(op, self._expr(T_INT, scope, depth - 1), self._rhs(op, T_INT, scope, depth - 1))
            if kind == "logic":
                return Binary(
                    rng.choice(LOGIC),
                    self._expr(T_BOOL, scope, depth - 1),
                    self._expr(T_BOOL, scope, depth - 1),
                )
            if kind == "not":
                return Unary("!", self._expr(T_BOOL, scope, depth - 1))
            if kind == "equal":
                op, operand = rng.choice(("==", "!=")), rng.choice((T_INT, T_BOOL))
                return Binary(op, self._expr(operand, scope, depth - 1), self._rhs(op, operand, scope, depth - 1))
            if kind == "call":
                return self._call(T_BOOL, scope, depth)
            return self._leaf(type_, scope)
        kinds = ["leaf", "literal"]
        if self._callables(T_INT_ARRAY):
            kinds.append("call")
        kind = rng.choice(kinds)
        if kind == "literal":
            return ArrayLit([self._expr(T_INT, scope, 0) for _ in range(rng.randint(0, 3))])
        if kind == "call":
            return self._call(T_INT_ARRAY, scope, depth)
        return self._leaf(type_, scope)

    def _leaf(self, type_: str, scope: list[dict]) -> Expr:
        names = self._vars_of(type_, scope)
        if names and self.rng.random() < 0.6:
            return Var(self.rng.choice(names))
        if type_ == T_INT:
            return IntLit(self.rng.randint(0, 99))
        if type_ == T_BOOL:
            return BoolLit(self.rng.random() < 0.5)
        return ArrayLit([IntLit(self.rng.randint(0, 9)) for _ in range(self.rng.randint(0, 2))])

    def _callables(self, return_type: str) -> list[str]:
        if self.guard or self.in_hot_loop:
            return []
        return [name for name, (_, ret) in self.signatures.items() if ret == return_type]

    def _call(self, return_type: str, scope: list[dict], depth: int) -> Expr:
        name = self.rng.choice(self._callables(return_type))
        param_types, _ = self.signatures[name]
        return Call(name, [self._expr(t, scope, depth - 1) for t in param_types])


def random_unit(seed: int) -> SourceUnit:
    return ProgramGenerator(random.Random(seed)).unit()


def random_hot_unit(seed: int) -> SourceUnit:
    """A random unit whose loops are all in the hot-loop emitter's language."""
    return ProgramGenerator(random.Random(seed), hot=True).unit()


def random_lineage(seed: int, mode: str, generations: int = 4, draws: int = 40):
    """(parent, concrete op, child) triples of one random lineage in `mode`,
    starting from `random_unit(seed)`: each child is made from its parent,
    the previous child, by `apply_patch_op`. Each generation draws a point,
    an ingredient scope and an op at random until one applies, at most
    `draws` times; the lineage ends early when none does."""
    rng = random.Random(seed)
    parent = random_unit(seed)
    for _ in range(generations):
        for _ in range(draws):
            sid = rng.choice(all_statement_ids(parent))
            point = ModificationPoint(sid, path_of(parent, sid))
            pool = EMPTY_POOL
            if mode == "jgenprog":
                pool = harvest_ingredients(parent, point, rng.choice(SCOPES))
            ops = enumerate_ops(mode, point, parent, pool)
            if not ops:
                continue
            try:
                child, op = apply_patch_op(parent, ops[rng.randrange(len(ops))], rng)
            except PatchSkip:
                continue
            yield parent, op, child
            parent = child
            break
        else:
            return
