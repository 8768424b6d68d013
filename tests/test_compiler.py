"""Front-end checks: parsing, NOR lowering, and row allocation.

The equivalence corpus cross-checks the lowered DAG against direct AST
evaluation over every input combination, and allocation soundness is
verified with an independent lifetime-overlap oracle rather than by
trusting the allocator's own bookkeeping.
"""

import hashlib
import itertools
import json
import random
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpim.compiler import (
    And,
    CapacityError,
    Const,
    Not,
    Or,
    ParseError,
    Var,
    Xor,
    allocate_rows,
    eval_expr,
    exhaustive_vectors,
    lower_to_nor,
    parse_expr,
    parse_program,
)
from gcpim.compiler.allocate import RowAssignment
from gcpim.compiler.netlist import NorNetlist, Node, lower_program
from gcpim.config import load_config

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"

# -- parsing ----------------------------------------------------------


def test_precedence_or_loosest():
    e = parse_expr("a | b & c")
    assert e == Or(Var("a"), And(Var("b"), Var("c")))


def test_precedence_xor_between():
    e = parse_expr("a ^ b & c | d")
    ref = Or(Xor(Var("a"), And(Var("b"), Var("c"))), Var("d"))
    assert e == ref


def test_unary_binds_tightest():
    e = parse_expr("~a ^ b")
    assert e == Xor(Not(Var("a")), Var("b"))


def test_parentheses_override():
    e = parse_expr("(a | b) & c")
    assert e == And(Or(Var("a"), Var("b")), Var("c"))


def test_double_negation_is_kept_structural():
    # no Boolean simplification at parse time
    assert parse_expr("~~a") == Not(Not(Var("a")))


def test_constants_parse():
    assert parse_expr("0") == Const(0)
    assert parse_expr("a | 1") == Or(Var("a"), Const(1))


def test_statement_forms():
    assert parse_expr("out = a & b;") == parse_expr("a & b")


def test_comments_and_whitespace():
    prog = parse_program("# header\n\nx = a;  # tail comment\ny = ~x;\n")
    assert [s.name for s in prog.statements] == ["x", "y"]
    assert prog.inputs == ("a",)
    assert prog.outputs == ("y",)


def test_error_position_is_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_program("x = a;\ny = a &&& b;\n")
    assert exc.value.line == 2
    assert str(exc.value).startswith("2:")


def test_error_on_unterminated_statement():
    with pytest.raises(ParseError):
        parse_program("x = a")


def test_error_on_garbage_character():
    with pytest.raises(ParseError):
        parse_program("x = a $ b;")


def test_error_on_empty_program():
    with pytest.raises(ParseError):
        parse_program("# nothing but a comment\n")


def test_error_on_duplicate_assignment():
    with pytest.raises(ParseError) as exc:
        parse_program("x = a;\nx = b;\n")
    assert "assigned more than once" in str(exc.value)


def test_error_on_use_before_definition():
    # y is assigned later in the file, so its earlier use is an error,
    # not an implicit input
    with pytest.raises(ParseError):
        parse_program("x = y;\ny = a;\n")


def test_inputs_in_first_use_order():
    prog = parse_program("x = b & a;\ny = x | c;\n")
    assert prog.inputs == ("b", "a", "c")


def test_outputs_are_unconsumed_assignments():
    prog = parse_program("t = a & b;\nu = ~t;\nv = t ^ a;\n")
    assert prog.outputs == ("u", "v")


# (source, message, line, col) per ParseError kind; a tab, a \r\n line
# end, a comment and a Unicode space each count as one column or line break
PARSE_ERRORS = [
    ("o = a $ b;", "unexpected character '$'", 1, 7),
    ("\to = a\t$ b;", "unexpected character '$'", 1, 8),
    ("o\u00a0=\u2003a ?;", "unexpected character '?'", 1, 7),
    ("o = a & ;", "expected an operand, found ';'", 1, 9),
    ("# c\r\no = a &", "expected an operand, found 'end of input'", 2, 8),
    ("o = (a | b;", "expected ')', found ';'", 1, 11),
    ("o = ((a | b)\r\n;", "expected ')', found ';'", 2, 1),
    ("o a;", "expected '=', found 'a'", 1, 3),
    ("x = a\ny = b;", "expected ';', found 'y'", 2, 1),
    ("x = a;\r\ny = b\r\n", "expected ';', found 'end of input'", 3, 1),
    ("= a;", "expected 'name', found '='", 1, 1),
    ("o = a; # c\n\t1 = b;", "expected 'name', found '1'", 2, 2),
    ("# only a comment\n \u3000", "no statements", 2, 3),
    ("", "no statements", 1, 1),
    ("x = a;\n\tx = b;", "'x' is assigned more than once", 2, 2),
    ("y = a & x; # later\r\nx = a;", "'x' is used before its definition", 1, 9),
    ("\u3000o = " + "(" * 1200 + "a" + ")" * 1200 + ";", "expression nests too deeply",
     1, 2),
    ("# deep\no = " + "~" * 1200 + "a;", "expression nests too deeply", 2, 1),
]


@pytest.mark.parametrize("source, message, line, col", PARSE_ERRORS)
def test_parse_errors_name_their_kind_and_position(source, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert str(exc.value) == f"{line}:{col}: {message}"
    assert (exc.value.line, exc.value.col) == (line, col)


# the parser's precedence, loosest first; each binary operator associates left
PRECEDENCE = {Or: 0, Xor: 1, And: 2}
SYMBOL = {Or: "|", Xor: "^", And: "&", Not: "~"}
GAPS = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\n", "\r\n",
                        " # note\n", "#\r\n\t"])


def draw_ast(draw, names, depth):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        leaf = draw(st.sampled_from(names + ["0", "1"]))
        return Const(int(leaf)) if leaf in "01" else Var(leaf)
    kind = draw(st.sampled_from([Not, And, Xor, Or]))
    if kind is Not:
        return Not(draw_ast(draw, names, depth - 1))
    return kind(draw_ast(draw, names, depth - 1), draw_ast(draw, names, depth - 1))


def print_ast(draw, expr, parts, tokens):
    """Append the expression's text to ``parts``, each token behind a drawn
    gap, and each node's token and text offset to ``tokens``.  A needed
    parenthesis is always printed, a redundant one when drawn."""
    def emit(text):
        parts.append(draw(GAPS))
        offset = sum(map(len, parts))
        parts.append(text)
        return offset

    def operand(child, needs_parens):
        if needs_parens or draw(st.integers(0, 5)) == 0:
            emit("(")
            print_ast(draw, child, parts, tokens)
            emit(")")
        else:
            print_ast(draw, child, parts, tokens)

    if isinstance(expr, Var):
        tokens.append((expr, expr.name, emit(expr.name)))
    elif isinstance(expr, Const):
        tokens.append((expr, str(expr.value), emit(str(expr.value))))
    elif isinstance(expr, Not):
        tokens.append((expr, "~", emit("~")))
        operand(expr.a, not isinstance(expr.a, (Var, Const, Not)))
    else:
        level = PRECEDENCE[type(expr)]
        # a looser left operand, or a right one at most as tight, needs parentheses
        operand(expr.a, PRECEDENCE.get(type(expr.a), 3) < level)
        tokens.append((expr, SYMBOL[type(expr)], emit(SYMBOL[type(expr)])))
        operand(expr.b, PRECEDENCE.get(type(expr.b), 3) <= level)


@st.composite
def printed_programs(draw):
    """A program of 1-4 statements and its text, with the expected inputs,
    outputs and each node's token offset in the text."""
    names, assigned, statements, parts, tokens = ["a", "b", "c", "d"], [], [], [], []
    for k in range(draw(st.integers(1, 4))):
        expr = draw_ast(draw, names + assigned, 6)
        name = f"t{k}"
        parts.append(draw(GAPS))
        statements.append((name, expr, sum(map(len, parts))))
        parts += [name, draw(GAPS), "="]
        print_ast(draw, expr, parts, tokens)
        parts += [draw(GAPS), ";"]
        assigned.append(name)
    parts.append(draw(GAPS))
    return "".join(parts), statements, tokens


def position_of(text, offset):
    """The (line, col) of a text offset: lines break at \\n alone, columns count from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def reads(expr):
    """The names an expression reads, left to right."""
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, Const):
        return []
    if isinstance(expr, Not):
        return reads(expr.a)
    return reads(expr.a) + reads(expr.b)


@settings(max_examples=200, deadline=None)
@given(case=printed_programs())
def test_printed_programs_parse_back_with_every_position(case):
    text, statements, tokens = case
    prog = parse_program(text)
    assert [(st_.name, st_.expr) for st_ in prog.statements] == [
        (name, expr) for name, expr, _ in statements]
    read = [n for _, expr, _ in statements for n in reads(expr)]
    assigned = [name for name, _, _ in statements]
    assert prog.inputs == tuple(dict.fromkeys(n for n in read if n not in assigned))
    assert prog.outputs == tuple(n for n in assigned if n not in read)
    for st_, (name, _, offset) in zip(prog.statements, statements):
        assert (st_.line, st_.col) == position_of(text, offset)
    # the parsed nodes, in the order print_ast met the drawn ones
    parsed = []

    def visit(expr):
        if isinstance(expr, (Var, Const)):
            parsed.append(expr)
        elif isinstance(expr, Not):
            parsed.append(expr)
            visit(expr.a)
        else:
            visit(expr.a)
            parsed.append(expr)
            visit(expr.b)

    for st_ in prog.statements:
        visit(st_.expr)
    assert len(parsed) == len(tokens)
    for node, (drawn, token, offset) in zip(parsed, tokens):
        assert node == drawn
        line, col = (node.line, node.col)
        assert (line, col) == position_of(text, offset)
        assert text.split("\n")[line - 1][col - 1:].startswith(token)


def test_eval_expr_truth_table():
    e = parse_expr("(a | b) & ~c")
    got = [
        eval_expr(e, dict(zip("abc", bits)))
        for bits in itertools.product((0, 1), repeat=3)
    ]
    assert got == [0, 0, 1, 0, 1, 0, 1, 0]


def xor_terms(n: int) -> str:
    return " ^ ".join(f"x{i}" for i in range(n))


def test_deep_expressions_are_parse_errors_at_their_position():
    # the statement path already raised ParseError; these two public
    # functions used to raise a bare RecursionError
    with pytest.raises(ParseError, match="^1:1: expression nests too deeply$"):
        parse_expr("~" * 1200 + "a")
    with pytest.raises(ParseError, match="^1:3: expression nests too deeply$"):
        parse_expr("  " + "(" * 1200 + "a" + ")" * 1200)
    (st,) = parse_program(f"o = {xor_terms(1200)};").statements  # parsed in a loop
    env = {f"x{i}": i % 2 for i in range(1200)}
    with pytest.raises(ParseError, match="expression nests too deeply") as exc:
        eval_expr(st.expr, env)
    assert (exc.value.line, exc.value.col) == (st.expr.line, st.expr.col) == (1, 8485)
    # a 400-term chain still evaluates: 200 of its terms are 1
    (st,) = parse_program(f"o = {xor_terms(400)};").statements
    assert eval_expr(st.expr, env) == 0
    assert eval_expr(st.expr, {**env, "x0": 1}) == 1


# -- lowering ---------------------------------------------------------


def table_of(netlist: NorNetlist) -> dict[str, list[int]]:
    """Each output's bit per input combination, in exhaustive_vectors' order."""
    width = 2 ** len(netlist.inputs)
    return {name: np.broadcast_to(bits, width).tolist() for name, bits
            in netlist.evaluate(exhaustive_vectors(netlist.inputs)).items()}


def test_gate_counts_for_the_standard_identities():
    assert lower_to_nor("~a").n_gates == 1          # NOT = 1-input NOR
    assert lower_to_nor("a | b").n_gates == 2       # NOR + NOT
    assert lower_to_nor("a & b").n_gates == 3       # 2 NOT + NOR
    assert lower_to_nor("a ^ b").n_gates == 5
    assert lower_to_nor("~(a | b)").n_gates == 1    # single NOR


def test_negated_or_chain_folds_to_wide_nor():
    # the parser keeps the syntax; lowering makes the chain one NOR
    assert parse_expr("~(a | b)") == Not(Or(Var("a"), Var("b")))
    assert lower_to_nor("~(a | b | c)", max_nor_arity=3).n_gates == 1


def test_negated_and_chain_folds_to_nand():
    # 3 NOTs, one 3-input NOR and the closing NOT
    assert lower_to_nor("~(a & b & c)", max_nor_arity=3).n_gates == 5


def test_common_subexpressions_are_shared():
    single = lower_to_nor("a & b")
    double = lower_program(parse_program("x = a & b;\ny = a & b;\nz = x | y | c;\n"))
    # the second a&b reuses the first: only the OR stage is added, and it
    # reads that one node once
    assert double.n_gates == single.n_gates + 2


def test_nor_arguments_are_canonical():
    ab = lower_to_nor("~(a | b)")
    ba = lower_to_nor("~(b | a)")
    assert ab.n_gates == ba.n_gates == 1
    # symmetric arguments produce the same node either way
    assert ab.nodes[-1].args == ba.nodes[-1].args


def test_self_nor_collapses_to_not():
    n = lower_to_nor("~(a | a)")
    assert n.n_gates == 1
    assert len(n.nodes[-1].args) == 1


def test_arity_cap_is_respected_and_preserves_function():
    wide = "~(a | b | c | d | e)"
    capped = lower_to_nor(wide, max_nor_arity=2)
    loose = lower_to_nor(wide, max_nor_arity=8)
    assert all(len(n.args) <= 2 for n in capped.nodes if n.op == "nor")
    assert loose.n_gates == 1  # fits in one wide NOR
    assert table_of(capped) == table_of(loose)


def test_arity_cap_must_be_at_least_two():
    with pytest.raises(Exception):
        lower_to_nor("a | b", max_nor_arity=1)


def test_constant_lowering():
    n = lower_to_nor("a & 1")
    assert list(table_of(n).values()) == [[0, 1]]
    n0 = lower_to_nor("0")
    assert n0.inputs == () and list(table_of(n0).values()) == [[0]]


def _random_expr_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["a", "b", "c", "d", "0", "1"])
    kind = rng.choice(["not", "and", "or", "xor", "paren"])
    if kind == "not":
        return f"~{_random_expr_text(rng, depth - 1)}"
    if kind == "paren":
        return f"({_random_expr_text(rng, depth - 1)})"
    op = {"and": "&", "or": "|", "xor": "^"}[kind]
    left = _random_expr_text(rng, depth - 1)
    right = _random_expr_text(rng, depth - 1)
    return f"({left} {op} {right})"


def test_random_expression_equivalence_corpus():
    rng = random.Random(20260822)
    for _ in range(150):
        text = _random_expr_text(rng, depth=4)
        expr = parse_expr(text)
        netlist = lower_to_nor(text)
        vectors = exhaustive_vectors(netlist.inputs)
        (got,) = table_of(netlist).values()
        for c, bit in enumerate(got):
            assert bit == eval_expr(expr, {name: v[c] for name, v in vectors.items()}), text


# every operator; ~ over flat, nested and parenthesised | and & chains;
# double negation; repeated operands; constants
PINNED_PROGRAMS = [
    "o = a | b;", "o = a & b;", "o = a ^ b;", "o = ~a;", "o = ~~a;", "o = a;",
    "o = 0;", "o = 1;", "o = ~(0 | 0);", "o = ~(0 | a | 1);", "o = ~(1 & a & 0);",
    "o = ~(a | b);", "o = ~(a | b | c | d | e);", "o = ~((a | b) | (c | d));",
    "o = ~(a | (b | (c | d)));", "o = ~((a | b));", "o = ~(a & b);",
    "o = ~(a & b & c & d & e);", "o = ~((a & b) & (c & d));", "o = ~(a & (b & (c & d)));",
    "o = ~~(a | b | c);", "o = ~~(a & b & c);", "o = ~(~(a | b) | c);",
    "o = ~(~(a & b) & c);", "o = ~(a | a | b | a);", "o = ~(a & a & b & b);",
    "o = a | a;", "o = a & a;", "o = a ^ a;", "o = ~(a | b & c | d);",
    "o = ~(a ^ b ^ c);", "o = ~(a | b) & ~(c & d) ^ (a | ~b);",
    "x = ~(a | b | c);\ny = ~(x & a & d);\nz = x ^ y | ~(x | y | e);",
]


def _random_operand_text(rng: random.Random, names: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + ["0", "1"])
    kind = rng.choice(["~", "()", "chain", "~chain"])
    if kind == "~":
        return "~" + _random_operand_text(rng, names, depth - 1)
    if kind == "()":
        return f"({_random_operand_text(rng, names, depth - 1)})"
    op = rng.choice("&|^")
    terms = [_random_operand_text(rng, names, depth - 1) for _ in range(rng.randint(2, 6))]
    return ("~" if kind == "~chain" else "") + "(" + f" {op} ".join(terms) + ")"


def _random_program_text(rng: random.Random) -> str:
    names, lines = ["a", "b", "c", "d", "e"], []
    for k in range(rng.randint(1, 4)):
        lines.append(f"t{k} = {_random_operand_text(rng, names, 3)};")
        names.append(f"t{k}")
    return "\n".join(lines)


def test_netlists_are_pinned_byte_for_byte():
    # the netlists' JSON, digested per arity cap: a lowering change that
    # moves a node id, an argument list or a gate count fails here
    rng = random.Random(20261020)
    sources = PINNED_PROGRAMS + [_random_program_text(rng) for _ in range(300)]
    digests = {}
    for arity in (2, 3, 8):
        dumps = (json.dumps(lower_program(parse_program(text), arity).to_json_dict())
                 for text in sources)
        digests[arity] = hashlib.sha256("\n".join(dumps).encode()).hexdigest()
    assert digests == {
        2: "7adf779eea38f3b1b533f5983aac5e13573c89729776681628fdd39683def7a9",
        3: "856bdf97232a157ef1d2a5243c09fd5684765803ade4055f8a661a7bf709b533",
        8: "72eea9c26ee1c80e8dcf7a56ae91bca4e0a54f69b7ab6794e7276cdfebc55f0b",
    }


def test_netlist_json_roundtrip():
    n = lower_to_nor("(a ^ b) | ~c")
    back = NorNetlist.from_json_dict(n.to_json_dict())
    assert back.to_json_dict() == n.to_json_dict()
    assert table_of(back) == table_of(n)


def test_netlist_rejects_forward_references():
    with pytest.raises(ValueError):
        NorNetlist(
            nodes=(Node("nor", args=(1,)), Node("input", name="a")),
            inputs=("a",),
            outputs=(("out", 0),),
        )


def test_netlist_rejects_unreachable_nodes():
    with pytest.raises(ValueError):
        NorNetlist(
            nodes=(
                Node("input", name="a"),
                Node("nor", args=(0,)),
                Node("nor", args=(1,)),
            ),
            inputs=("a",),
            outputs=(("out", 1),),  # node 2 hangs dead
        )


def test_evaluate_validates_inputs():
    n = lower_to_nor("a & b")
    with pytest.raises(KeyError):
        n.evaluate({"a": 1})
    with pytest.raises(ValueError):
        n.evaluate({"a": 1, "b": 2})


def numpy_evaluate(netlist: NorNetlist, env: dict) -> dict:
    """Oracle: the evaluator before bit masks, one numpy array per node."""
    values = []
    for node in netlist.nodes:
        if node.op == "input":
            values.append(np.asarray(env[node.name], dtype=np.uint8))
        elif node.op == "const":
            values.append(np.asarray(node.value, dtype=np.uint8))
        else:
            acc = values[node.args[0]].astype(bool)
            for a in node.args[1:]:
                acc = acc | values[a].astype(bool)
            values.append((~acc).astype(np.uint8))
    return {name: values[nid] for name, nid in netlist.outputs}


@pytest.mark.parametrize("shape", [(), (1,), (5,), (64,), (3, 7), (130,)])
def test_bit_mask_evaluation_matches_numpy_with_scalar_broadcasting(shape):
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    text = "o0 = (a ^ b) | ~(c & d);\no1 = ~(a | b | c) ^ 1;\nk = 0 & a;\nn = ~d;"
    netlist = lower_to_nor(text)
    env = {name: rng.integers(0, 2, shape) for name in netlist.inputs}
    env["d"] = 1  # a scalar input broadcasts against the arrays
    got = netlist.evaluate(env)
    assert list(got) == ["o0", "o1", "k", "n"]
    for name, want in numpy_evaluate(netlist, env).items():
        assert got[name].dtype == np.uint8 and got[name].shape == shape
        np.testing.assert_array_equal(got[name], np.broadcast_to(want, shape))


# -- allocation -------------------------------------------------------


def _lifetimes(netlist: NorNetlist, assignment) -> list[tuple[int, int, int]]:
    """(row, birth, death) per node under the allocator's contract.

    Birth is the node's position; death is its last consumer's position,
    or the end of the program for protected values (inputs, constants,
    outputs).  The allocate-before-free rule makes the birth instant
    inclusive on both ends.
    """
    last = {}
    for nid, node in enumerate(netlist.nodes):
        for a in node.args:
            last[a] = nid
    end = len(netlist.nodes)
    protected = {nid for _, nid in netlist.outputs}
    protected |= {
        nid for nid, n in enumerate(netlist.nodes) if n.op in ("input", "const")
    }
    spans = []
    for nid in range(len(netlist.nodes)):
        death = end if nid in protected else last.get(nid, nid)
        spans.append((assignment.row_of[nid], nid, death))
    return spans


def _assert_sound(netlist: NorNetlist, assignment) -> None:
    spans = _lifetimes(netlist, assignment)
    for (r1, b1, d1), (r2, b2, d2) in itertools.combinations(spans, 2):
        if r1 == r2:
            assert d1 < b2 or d2 < b1, (
                f"row {r1} carries two overlapping values "
                f"([{b1},{d1}] vs [{b2},{d2}])"
            )


def test_inputs_get_the_first_rows_in_order():
    n = lower_to_nor("b | a")
    asg = allocate_rows(n)
    assert asg.input_rows == {"b": 0, "a": 1}


def test_constants_occupy_the_reserved_rows():
    n = lower_to_nor("(a & 1) | 0")
    asg = allocate_rows(n, rows_available=62)
    assert asg.const_rows == {0: 62, 1: 63}


def test_gate_never_targets_its_own_inputs():
    n = lower_to_nor("~(~(~(~a)))")
    asg = allocate_rows(n)
    for nid, node in enumerate(n.nodes):
        if node.op != "nor":
            continue
        out_row = asg.row_of[nid]
        for a in node.args:
            assert asg.row_of[a] != out_row


def test_rows_are_reused_after_death():
    # five NOR2 gates in a chain, each consuming the last and the constant 0
    n = lower_to_nor("~(~(~(~(~(a | 0) | 0) | 0) | 0) | 0)")
    asg = allocate_rows(n)
    used = [asg.row_of[nid] for nid, node in enumerate(n.nodes) if node.op == "nor"]
    assert len(set(used)) < len(used)  # some row served two gate values
    assert asg.peak_live <= 3
    _assert_sound(n, asg)


def test_shared_output_node_is_not_reclaimed():
    # subterm sharing makes output x also a consumed operand of y: its
    # row must survive even though a consumer executes after it
    prog = parse_program("x = ~(a | b);\ny = a | b;\n")
    n = lower_program(prog)
    asg = allocate_rows(n)
    assert set(dict(n.outputs)) == {"x", "y"}
    x_nid = dict(n.outputs)["x"]
    y_nid = dict(n.outputs)["y"]
    assert n.nodes[y_nid].args == (x_nid,)  # shared, not duplicated
    _assert_sound(n, asg)
    assert asg.row_of[y_nid] != asg.row_of[x_nid]


def test_allocation_soundness_over_random_corpus():
    rng = random.Random(987654321)
    for _ in range(60):
        text = _random_expr_text(rng, depth=5)
        n = lower_to_nor(text)
        asg = allocate_rows(n)
        _assert_sound(n, asg)
        value_rows = [
            asg.row_of[nid]
            for nid, node in enumerate(n.nodes)
            if node.op != "const"
        ]
        assert all(0 <= r < 62 for r in value_rows)


def list_allocate_rows(netlist: NorNetlist, rows_available: int) -> RowAssignment:
    """Oracle: the allocator before its free-row heap, which re-sorted a
    list after every release and scanned the nodes for each input."""
    last_consumer = {a: nid for nid, node in enumerate(netlist.nodes) for a in node.args}
    protected, output_ids = set(), {nid for _, nid in netlist.outputs}
    row_of, input_rows, const_rows = {}, {}, {}
    free, live = list(range(rows_available - 1, -1, -1)), set()

    def take_row(nid):
        row_of[nid] = free.pop()
        live.add(nid)

    for name in netlist.inputs:
        nid = next(i for i, n in enumerate(netlist.nodes)
                   if n.op == "input" and n.name == name)
        take_row(nid)
        input_rows[name] = row_of[nid]
        protected.add(nid)
    peak = len(live)
    for nid, node in enumerate(netlist.nodes):
        if node.op == "input":
            continue
        if node.op == "const":
            row_of[nid] = const_rows[node.value] = rows_available + node.value
            protected.add(nid)
            continue
        take_row(nid)
        peak = max(peak, len(live))
        if nid in output_ids:
            protected.add(nid)
        for a in set(node.args):
            if a not in protected and a in live and last_consumer[a] == nid:
                live.discard(a)
                free.append(row_of[a])
                free.sort(reverse=True)
    return RowAssignment(row_of, input_rows, const_rows, peak)


@pytest.mark.parametrize("seed", [0, 1])
def test_heap_allocation_equals_the_sorted_list_on_the_benchmark_corpus(tmp_path, seed):
    corpus = types.ModuleType("bench_corpus")
    exec(compile(CORPUS.read_text(), str(CORPUS), "exec"), corpus.__dict__)
    for entry in corpus.pipeline_corpus(str(tmp_path), seed):
        cfg = load_config(entry.config_path)
        with open(entry.source_path) as fh:
            netlist = lower_program(parse_program(fh.read()), cfg.compiler.max_nor_arity)
        got = allocate_rows(netlist, cfg.compiler.rows - 2)
        want = list_allocate_rows(netlist, cfg.compiler.rows - 2)
        assert got == want, entry.name
        assert list(got.row_of.items()) == list(want.row_of.items()), entry.name


def test_capacity_error_reports_the_live_set():
    wide = " | ".join(f"x{i}" for i in range(70))
    n = lower_to_nor(f"out = {wide};")
    with pytest.raises(CapacityError) as exc:
        allocate_rows(n, rows_available=62)
    assert exc.value.peak_live == 63
    assert len(exc.value.live_nodes) == 63


def test_capacity_boundary():
    # 59 inputs plus the rolling OR reduction fits exactly in 62 rows
    wide59 = " | ".join(f"x{i}" for i in range(59))
    asg = allocate_rows(lower_to_nor(f"out = {wide59};"), rows_available=62)
    assert asg.peak_live <= 62
    wide62 = " | ".join(f"x{i}" for i in range(62))
    with pytest.raises(CapacityError):
        allocate_rows(lower_to_nor(f"out = {wide62};"), rows_available=62)
