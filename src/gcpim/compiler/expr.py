"""Boolean expression front-end.

Programs are sequences of statements ``name = expr;`` over operators
``~`` (not), ``&`` (and), ``^`` (xor), ``|`` (or), parentheses, the
constants 0/1, and ``#`` line comments.  Precedence from tightest to
loosest: ~, &, ^, |; binary operators associate left.

Input variables are not declared: every name that is read but never
assigned is an input, in first-use order.  A name assigned anywhere in
the program must not be read before its defining statement.  Assigned
names that no later statement reads are the program outputs.

The parser returns plain syntax: one node per operator, chains nested
to the left as they associate.  Tokens are ``(kind, text, line, col)``
tuples from one regex scan per line, and one precedence-climbing loop
parses the binary operators, so only ``~`` (a frame each) and
parentheses (two frames each) recurse.  Past the interpreter's recursion
limit (some 990 ``~`` or 490 parentheses at the default limit of 1000)
an expression is a ParseError "expression nests too deeply", never a
RecursionError.  Each statement's variables are noted as they parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import and_, or_, xor

__all__ = [
    "And", "Const", "Expr", "Not", "Or", "ParseError", "Program", "Statement",
    "Var", "Xor", "eval_expr", "parse_expr", "parse_program",
]


TOO_DEEP = "expression nests too deeply"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# The nodes are frozen and slotted, equal and hashable by their fields.
@dataclass(frozen=True, slots=True)
class Expr:
    # source positions are metadata: keyword-only and excluded from
    # structural equality, so Var("a") == Var("a") wherever they parsed
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str = ""


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: int = 0


@dataclass(frozen=True, slots=True)
class Not(Expr):
    a: Expr = None


@dataclass(frozen=True, slots=True)
class _Binary(Expr):
    """The two operands of ``And``, ``Or`` and ``Xor``, which differ in type only."""

    a: Expr = None
    b: Expr = None


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


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


# binary operators and their precedence, loosest lowest; each associates left
_PRECEDENCE = {"|": 0, "^": 1, "&": 2}
_BINARY = {"|": Or, "^": Xor, "&": And}
_BITWISE = {Or: or_, Xor: xor, And: and_}

# per line: whitespace (Unicode-aware, as \s) separates tokens, a comment
# runs to the line's end, and any other non-space character is bad
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<const>[01])|(?P<punct>[~&|^()=;])"
    r"|(?P<comment>#.*)|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` per token, kind "name", "const", "eof" or
    the punctuation character; lines break at \\n alone, columns count from 1."""
    tokens, lines = [], text.split("\n")
    for line, line_text in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line_text):
            kind = m.lastgroup
            if kind == "punct":
                kind = m.group()
            elif kind == "comment":
                break
            elif kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + 1)
            tokens.append((kind, m.group(), line, m.start() + 1))
    tokens.append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


class _Parser:
    """Precedence climbing over token tuples; ``reads`` gets each Var parsed."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]) -> None:
        self.tokens, self.i, self.reads = tokens, 0, []

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        token = self.tokens[self.i]
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1] or 'end of input'!r}",
                             token[2], token[3])
        self.i += 1
        return token

    def expr(self, min_precedence: int = 0) -> Expr:
        """An operand, then every binary operator at least as tight as
        ``min_precedence``; a right operand takes only tighter ones."""
        left, tokens = self.operand(), self.tokens
        while True:
            kind, _, line, col = tokens[self.i]
            precedence = _PRECEDENCE.get(kind, -1)
            if precedence < min_precedence:
                return left
            self.i += 1
            left = _BINARY[kind](left, self.expr(precedence + 1), line=line, col=col)

    def operand(self) -> Expr:
        kind, text, line, col = self.tokens[self.i]
        self.i += 1
        if kind == "name":
            self.reads.append(var := Var(text, line=line, col=col))
            return var
        if kind == "const":
            return Const(int(text), line=line, col=col)
        if kind == "~":
            return Not(self.operand(), line=line, col=col)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"expected an operand, found {text or 'end of input'!r}", line, col)


def parse_program(text: str) -> Program:
    """Parse a full program and infer its input and output name lists."""
    parser = _Parser(_tokenize(text))
    tokens, statements, reads = parser.tokens, [], []
    while tokens[parser.i][0] != "eof":
        _, name, line, col = parser.expect("name")
        parser.expect("=")
        parser.reads = []
        try:
            e = parser.expr()
        except RecursionError:
            raise ParseError(TOO_DEEP, line, col) from None
        parser.expect(";")
        statements.append(Statement(name, e, line, col))
        reads.append(parser.reads)
    if not statements:
        raise ParseError("no statements", *tokens[parser.i][2:])

    assigned_anywhere = {}
    for st in statements:
        if st.name in assigned_anywhere:
            raise ParseError(f"{st.name!r} is assigned more than once", st.line, st.col)
        assigned_anywhere[st.name] = st

    inputs, defined, referenced = {}, set(), set()  # inputs: an ordered set
    for st, variables in zip(statements, reads):
        for var in variables:
            referenced.add(var.name)
            if var.name not in defined and var.name not in inputs:
                if var.name in assigned_anywhere:
                    raise ParseError(f"{var.name!r} is used before its definition",
                                     var.line, var.col)
                inputs[var.name] = None
        defined.add(st.name)

    outputs = tuple(st.name for st in statements if st.name not in referenced)
    return Program(tuple(statements), tuple(inputs), outputs)


def parse_expr(text: str) -> Expr:
    """Parse one expression; a single ``name = expr`` statement also works
    (with or without the trailing semicolon)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    if tokens[0][0] == "name" and tokens[1][0] == "=":
        parser.i = 2
    try:
        e = parser.expr()
    except RecursionError:
        raise ParseError(TOO_DEEP, *tokens[0][2:]) from None
    if tokens[parser.i][0] == ";":
        parser.i += 1
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
    if isinstance(expr, _Binary):
        return _BITWISE[type(expr)](_eval(expr.a, env), _eval(expr.b, env))
    raise TypeError(f"not an expression node: {expr!r}")
