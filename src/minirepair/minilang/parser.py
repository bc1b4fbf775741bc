"""Lexer and recursive-descent parser for MiniLang.

Grammar sketch (see README for the full description):

    program  := function*
    function := "fn" IDENT "(" [param ("," param)*] ")" "->" type block
    param    := IDENT ":" type
    type     := "int" | "int" "[" "]" | "bool"
    block    := "{" stmt* "}"
    stmt     := "let" IDENT "=" expr ";"
              | "if" "(" expr ")" block ["else" block]
              | "while" "(" expr ")" block
              | "return" expr ";"
              | expr ["=" expr] ";"        (assignment target: var or index)

Binary operator precedence, loosest first: "||" < "&&" < comparisons
< "+ -" < "* / %" < unary "- !". `parse` returns a normalized,
type-checked SourceUnit.

Nesting is bounded by MAX_NESTING, so that neither the recursive-descent
parser nor the recursive passes over the tree (checker, printer, copies,
compiled code) run out of Python stack: open blocks, sub-expressions and
unary operators count while parsing, and every statement and expression
node counts by its depth in the finished tree (`check_nesting`, which the
repair operators apply to the statement each edit writes, at its depth),
where a chain such as `a + b + c` nests one level per operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from minirepair.minilang.errors import ParseError
from minirepair.minilang.checker import check_unit
from minirepair.minilang.nodes import (
    ArrayLit,
    AssignStmt,
    Binary,
    BoolLit,
    Call,
    INT_MAX,
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
    iter_depths,
    normalize,
)

MAX_NESTING = 64

KEYWORDS = {"fn", "let", "if", "else", "while", "return", "true", "false", "int", "bool", "len"}

_TWO_CHAR = ("->", "==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR = "(){}[],;:=<>+-*/%!"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "kw", or the operator/punctuation text
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(two, two, line, col))
            i, col = i + 2, col + 2
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            lit = text[start:i]
            digits = lit.lstrip("0") or "0"  # converted only when at most 20 long
            if len(digits) > 20 or int(digits) > INT_MAX:
                quoted = lit if len(lit) <= 20 else f"{lit[:20]}... ({len(lit)} digits)"
                raise ParseError(f"integer literal out of range: {quoted}", line, col)
            tokens.append(Token("int", digits, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(Token("kw" if word in KEYWORDS else "ident", word, line, col))
            col += i - start
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(ch, ch, line, col))
            i, col = i + 1, col + 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open blocks, sub-expressions and unary operators

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            got = tok.text or "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        return self.expect("kw", word)

    # --- declarations -------------------------------------------------

    def parse_unit(self, source_name: str) -> SourceUnit:
        functions = []
        while not self.at("eof"):
            functions.append(self.parse_function())
        return SourceUnit(functions, source_name=source_name)

    def parse_function(self) -> FunctionDef:
        self.expect_kw("fn")
        name = self.expect("ident").text
        self.expect("(")
        params: list[tuple[str, str]] = []
        if not self.at(")"):
            while True:
                pname = self.expect("ident").text
                self.expect(":")
                params.append((pname, self.parse_type()))
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        self.expect("->")
        return_type = self.parse_type()
        body = self.parse_block()
        return FunctionDef(name, params, return_type, body)

    def parse_type(self) -> str:
        tok = self.peek()
        if self.at("kw", "int"):
            self.advance()
            if self.at("["):
                self.advance()
                self.expect("]")
                return T_INT_ARRAY
            return T_INT
        if self.at("kw", "bool"):
            self.advance()
            return T_BOOL
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    # --- statements ---------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        self.nest()
        body: list[Stmt] = []
        while not self.at("}"):
            body.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        return body

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        loc = (tok.line, tok.col)
        if self.at("kw", "let"):
            self.advance()
            name = self.expect("ident").text
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return LetStmt(name, value, loc=loc)
        if self.at("kw", "if"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block()
            else_body = None
            if self.at("kw", "else"):
                self.advance()
                else_body = self.parse_block()
            return IfStmt(cond, then_body, else_body, loc=loc)
        if self.at("kw", "while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return WhileStmt(cond, self.parse_block(), loc=loc)
        if self.at("kw", "return"):
            self.advance()
            value = self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, loc=loc)
        expr = self.parse_expr()
        if self.at("="):
            self.advance()
            value = self.parse_expr()
            self.expect(";")
            if isinstance(expr, Var):
                return AssignStmt(expr.name, value, loc=loc)
            if isinstance(expr, Index):
                return IndexAssignStmt(expr.name, expr.index, value, loc=loc)
            raise ParseError("invalid assignment target", loc[0], loc[1])
        self.expect(";")
        return ExprStmt(expr, loc=loc)

    # --- expressions --------------------------------------------------

    def parse_expr(self) -> Expr:
        self.nest()
        expr = self._parse_binary(0)
        self.depth -= 1
        return expr

    _LEVELS = (("||",), ("&&",), ("<", "<=", ">", ">=", "==", "!="), ("+", "-"), ("*", "/", "%"))

    def _parse_binary(self, level: int) -> Expr:
        if level == len(self._LEVELS):
            return self.parse_unary()
        expr = self._parse_binary(level + 1)
        while self.peek().kind in self._LEVELS[level]:
            op = self.advance()
            rhs = self._parse_binary(level + 1)
            expr = Binary(op.text, expr, rhs, loc=(op.line, op.col))
        return expr

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "!"):
            self.advance()
            self.nest()
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(tok.text, operand, loc=(tok.line, tok.col))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        loc = (tok.line, tok.col)
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text), loc=loc)
        if self.at("kw", "true") or self.at("kw", "false"):
            self.advance()
            return BoolLit(tok.text == "true", loc=loc)
        if self.at("kw", "len"):
            self.advance()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Len(arg, loc=loc)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args: list[Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.at(","):
                            break
                        self.advance()
                self.expect(")")
                return Call(tok.text, args, loc=loc)
            if self.at("["):
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                return Index(tok.text, index, loc=loc)
            return Var(tok.text, loc=loc)
        if self.at("("):
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if self.at("["):
            self.advance()
            items: list[Expr] = []
            if not self.at("]"):
                while True:
                    items.append(self.parse_expr())
                    if not self.at(","):
                        break
                    self.advance()
            self.expect("]")
            return ArrayLit(items, loc=loc)
        got = tok.text or "end of input"
        raise ParseError(f"expected an expression, found {got!r}", tok.line, tok.col)


def parse(text: str, source_name: str = "<unit>") -> SourceUnit:
    """Parse, normalize, and type-check a MiniLang source text.

    Raises ParseError or CheckError with a source location on failure.
    """
    parser = _Parser(tokenize(text))
    unit = parser.parse_unit(source_name)
    for fn in unit.functions:
        check_nesting(fn.body)
    normalize(unit)
    check_unit(unit)
    return unit


def check_nesting(nodes: list[Stmt], depth: int = 1) -> None:
    """Raise ParseError when a node of the trees rooted at `nodes`, whose
    roots sit at nesting `depth` (1 for a function body), nests deeper
    than MAX_NESTING."""
    for node, depth in iter_depths(nodes, depth):
        if depth > MAX_NESTING:
            line, col = node.loc or (None, None)
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
