"""Boolean expression front-end.

Programs are sequences of statements ``name = expr;`` over operators
``~`` (not), ``&`` (and), ``^`` (xor), ``|`` (or), parentheses, the
constants 0/1, and ``#`` line comments.  Precedence from tightest to
loosest: ~, &, ^, |; binary operators associate left.

Input variables are not declared: every name that is read but never
assigned is an input, in first-use order.  A name assigned anywhere in
the program must not be read before its defining statement.  Assigned
names that no later statement reads are the program outputs.

``~`` applied directly to a parenthesized ``|`` (or ``&``) chain folds
into an n-ary NOR (NAND) node so the natural way of writing a NOR
reaches the lowerer as one gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "And", "Const", "Expr", "Nand", "Nor", "Not", "Or", "ParseError",
    "Program", "Statement", "Var", "Xor", "eval_expr", "parse_expr",
    "parse_program",
]


TOO_DEEP = "expression nests too deeply"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Expr:
    # source positions are metadata: keyword-only and excluded from
    # structural equality, so Var("a") == Var("a") wherever they parsed
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Var(Expr):
    name: str = ""


@dataclass(frozen=True)
class Const(Expr):
    value: int = 0


@dataclass(frozen=True)
class Not(Expr):
    a: Expr = None


@dataclass(frozen=True)
class And(Expr):
    a: Expr = None
    b: Expr = None


@dataclass(frozen=True)
class Or(Expr):
    a: Expr = None
    b: Expr = None


@dataclass(frozen=True)
class Xor(Expr):
    a: Expr = None
    b: Expr = None


@dataclass(frozen=True)
class Nor(Expr):
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Nand(Expr):
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Statement:
    name: str
    expr: Expr
    line: int
    col: int


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<const>[01])|(?P<punct>[~&|^()=;])|(?P<bad>.)"
)


class _Token:
    """A lexeme's kind ("name", "const", a punct char or "eof"), text, line and column."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _tokenize(text: str) -> list[_Token]:
    """One scan; a token's column counts from the last newline before it."""
    tokens = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(text):
        group, value = m.lastgroup, m.group()
        if group == "name" or group == "const":
            tokens.append(_Token(group, value, line, m.start() - line_start + 1))
        elif group == "punct":
            tokens.append(_Token(value, value, line, m.start() - line_start + 1))
        elif group == "ws" and "\n" in value:
            line += value.count("\n")
            line_start = m.start() + value.rfind("\n") + 1
        elif group == "bad":
            raise ParseError(f"unexpected character {value!r}", line,
                             m.start() - line_start + 1)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.line, self.cur.col,
            )
        return self.advance()

    # precedence climbing: | is loosest, then ^, then &, then unary ~

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        e = self.xor_expr()
        while self.cur.kind == "|":
            tok = self.advance()
            e = Or(e, self.xor_expr(), line=tok.line, col=tok.col)
        return e

    def xor_expr(self) -> Expr:
        e = self.and_expr()
        while self.cur.kind == "^":
            tok = self.advance()
            e = Xor(e, self.and_expr(), line=tok.line, col=tok.col)
        return e

    def and_expr(self) -> Expr:
        e = self.unary()
        while self.cur.kind == "&":
            tok = self.advance()
            e = And(e, self.unary(), line=tok.line, col=tok.col)
        return e

    def unary(self) -> Expr:
        if self.cur.kind == "~":
            tok = self.advance()
            inner = self.unary()
            return _fold_negation(inner, tok.line, tok.col)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "name":
            self.advance()
            return Var(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "const":
            self.advance()
            return Const(int(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(
            f"expected an operand, found {tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )

    def statement(self) -> Statement:
        name_tok = self.expect("name")
        self.expect("=")
        try:
            e = self.expr()
        except RecursionError:
            raise ParseError(TOO_DEEP, name_tok.line, name_tok.col) from None
        self.expect(";")
        return Statement(name_tok.text, e, name_tok.line, name_tok.col)


def _flatten(expr: Expr, op) -> list[Expr]:
    if isinstance(expr, op):
        return _flatten(expr.a, op) + _flatten(expr.b, op)
    return [expr]


def _fold_negation(inner: Expr, line: int, col: int) -> Expr:
    if isinstance(inner, Or):
        return Nor(tuple(_flatten(inner, Or)), line=line, col=col)
    if isinstance(inner, And):
        return Nand(tuple(_flatten(inner, And)), line=line, col=col)
    return Not(inner, line=line, col=col)


def _walk_vars(expr: Expr) -> Iterator[Var]:
    """The expression's variables, left to right, at any nesting depth."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        if isinstance(expr, Var):
            yield expr
        elif isinstance(expr, Not):
            stack.append(expr.a)
        elif isinstance(expr, (And, Or, Xor)):
            stack += expr.b, expr.a
        elif isinstance(expr, (Nor, Nand)):
            stack += reversed(expr.args)


def parse_program(text: str) -> Program:
    """Parse a full program and infer its input and output name lists."""
    parser = _Parser(_tokenize(text))
    statements: list[Statement] = []
    while parser.cur.kind != "eof":
        statements.append(parser.statement())
    if not statements:
        tok = parser.cur
        raise ParseError("no statements", tok.line, tok.col)

    assigned_anywhere = {}
    for st in statements:
        if st.name in assigned_anywhere:
            raise ParseError(f"{st.name!r} is assigned more than once", st.line, st.col)
        assigned_anywhere[st.name] = st

    inputs: list[str] = []
    defined: set[str] = set()
    referenced: set[str] = set()
    for st in statements:
        for var in _walk_vars(st.expr):
            referenced.add(var.name)
            if var.name in defined:
                continue
            if var.name in assigned_anywhere:
                raise ParseError(
                    f"{var.name!r} is used before its definition", var.line, var.col
                )
            if var.name not in inputs:
                inputs.append(var.name)
        defined.add(st.name)

    outputs = tuple(st.name for st in statements if st.name not in referenced)
    return Program(tuple(statements), tuple(inputs), outputs)


def parse_expr(text: str) -> Expr:
    """Parse one expression; a single ``name = expr`` statement also works
    (with or without the trailing semicolon)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    if tokens[0].kind == "name" and tokens[1].kind == "=":
        parser.advance()
        parser.advance()
    try:
        e = parser.expr()
    except RecursionError:
        raise ParseError(TOO_DEEP, tokens[0].line, tokens[0].col) from None
    if parser.cur.kind == ";":
        parser.advance()
    parser.expect("eof")
    return e


def eval_expr(expr: Expr, env: dict[str, int]) -> int:
    """Truth-table oracle: direct recursive evaluation of the AST.  An
    expression nested too deeply to recurse raises ParseError at its
    position."""
    try:
        return _eval(expr, env)
    except RecursionError:
        raise ParseError(TOO_DEEP, expr.line, expr.col) from None


def _eval(expr: Expr, env: dict[str, int]) -> int:
    if isinstance(expr, Var):
        if expr.name not in env:
            raise KeyError(f"no value bound for variable {expr.name!r}")
        return int(env[expr.name]) & 1
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 1 - _eval(expr.a, env)
    if isinstance(expr, And):
        return _eval(expr.a, env) & _eval(expr.b, env)
    if isinstance(expr, Or):
        return _eval(expr.a, env) | _eval(expr.b, env)
    if isinstance(expr, Xor):
        return _eval(expr.a, env) ^ _eval(expr.b, env)
    if isinstance(expr, Nor):
        return int(not any(_eval(a, env) for a in expr.args))
    if isinstance(expr, Nand):
        return int(not all(_eval(a, env) for a in expr.args))
    raise TypeError(f"not an expression node: {expr!r}")
