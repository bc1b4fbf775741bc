"""Random well-typed MiniLang program generator for round-trip and
differential testing.

Programs are built directly as ASTs so well-typedness holds by
construction: every let introduces a fresh name (no shadowing), all
operators see correctly typed operands, and every function body ends in
a return of the declared type. The printer tests parse and print them;
the interpreter tests execute them against the tree-walking reference.
Loops need not terminate and calls may recurse without bound: the
interpreters end such runs by step budget or call depth.

The generator favours the shapes that the interpreter compiles to one
fused closure, so that the differential tests reach each of them:
`x = y op c` and `x = y op v[i]` stores, `i < len(v)` loop headers, and
operators with a constant on their right, such as `e % c` and `e == c`.
It also favours the shapes the hot-loop emitter treats apart. Counted
loops, `let i = 0;` and a loop guarded by `i < len(v)` (or `len(v) > i`,
alone or in an `&&`), read and write `v[i]` often and store to `i` in
the middle of their body, and at times in a branch, so that `v[i]` is
read both before and after a store to `i`; they make no call and hold
no loop, either of which would keep them off the hot form. And half the
constant right operands of arithmetic make an identity: `x * 1`,
`x / 1`, `x % 1`, `x + 0` or `x - 0`.

`random_lineage` grows a random unit by the repair operators, so that
tests can check each child against its parent.
"""

from __future__ import annotations

import random

from minirepair.minilang.checker import check_unit
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
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.signatures: dict[str, tuple[tuple[str, ...], str]] = {}
        self._name_counter = 0
        # (i, v) of the enclosing counted loop, guarded by `i < len(v)`
        self.guard: tuple[str, str] | None = None

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
            if depth < 2 and not self.guard and self._vars_of(T_INT_ARRAY, scope) and self.rng.random() < 0.2:
                stmts += self._counted_loop(scope, depth, return_type)
            else:
                stmts.append(self._stmt(scope, depth, return_type))
        scope.pop()
        # keep the block's bindings visible to the generator caller only
        return stmts

    def _stmt(self, scope: list[dict], depth: int, return_type: str) -> Stmt:
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
            return IndexAssignStmt(
                name, self._expr(T_INT, scope, depth=1), self._expr(T_INT, scope, depth=1)
            )
        if kind == "if":
            cond = self._expr(T_BOOL, scope, depth=2)
            then_body = self._block(scope, depth + 1, return_type)
            else_body = self._block(scope, depth + 1, return_type) if self.rng.random() < 0.4 else None
            return IfStmt(cond, then_body, else_body)
        if kind == "while":
            return WhileStmt(self._header(scope), self._block(scope, depth + 1, return_type))
        return ExprStmt(self._expr(self.rng.choice(TYPES), scope, depth=2))

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
            rhs = self._element(Var(rng.choice(ints)), scope)
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
        `i = i op c` between two statements."""
        rng = self.rng
        i, v = self._fresh(), rng.choice(self._vars_of(T_INT_ARRAY, scope))
        scope[-1][i] = T_INT
        form = rng.choice(("<", ">", "&&"))
        cond = Binary(">", Len(Var(v)), Var(i)) if form == ">" else Binary("<", Var(i), Len(Var(v)))
        if form == "&&":
            cond = Binary("&&", cond, self._expr(T_BOOL, scope, depth=1))
        self.guard = (i, v)
        scope.append({})
        before = self._stmt(scope, depth + 1, return_type)
        op = rng.choice(ARITH)
        step = AssignStmt(i, Binary(op, Var(i), IntLit(self._constant(op))))
        after = self._stmt(scope, depth + 1, return_type)
        scope.pop()
        self.guard = None
        return [LetStmt(i, IntLit(0)), WhileStmt(cond, [before, step, after])]

    def _element(self, index: Expr, scope: list[dict]) -> Index:
        """An element of a bound array at `index`, or, four times in five
        inside a counted loop, the guard's `v[i]`."""
        if self.guard and self.rng.random() < 0.8:
            i, v = self.guard
            return Index(v, Var(i))
        return Index(self.rng.choice(self._vars_of(T_INT_ARRAY, scope)), index)

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
                return self._element(self._expr(T_INT, scope, depth - 1), scope)
            if kind == "len":
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
        if self.guard:
            return []
        return [name for name, (_, ret) in self.signatures.items() if ret == return_type]

    def _call(self, return_type: str, scope: list[dict], depth: int) -> Expr:
        name = self.rng.choice(self._callables(return_type))
        param_types, _ = self.signatures[name]
        return Call(name, [self._expr(t, scope, depth - 1) for t in param_types])


def random_unit(seed: int) -> SourceUnit:
    return ProgramGenerator(random.Random(seed)).unit()


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
