"""Front-end checks: parsing, NOR lowering, and row allocation.

The equivalence corpus cross-checks the lowered DAG against direct AST
evaluation over every input combination, and allocation soundness is
verified with an independent lifetime-overlap oracle rather than by
trusting the allocator's own bookkeeping.
"""

import itertools
import random

import pytest

from gcpim.compiler import (
    And,
    CapacityError,
    Const,
    Nor,
    Not,
    Or,
    ParseError,
    Var,
    Xor,
    allocate_rows,
    eval_expr,
    lower_to_nor,
    parse_expr,
    parse_program,
)
from gcpim.compiler.expr import Nand
from gcpim.compiler.netlist import NorNetlist, Node, lower_program

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


def test_negated_or_chain_folds_to_wide_nor():
    assert parse_expr("~(a | b)") == Nor((Var("a"), Var("b")))
    assert parse_expr("~(a | b | c)") == Nor(
        (Var("a"), Var("b"), Var("c"))
    )


def test_negated_and_chain_folds_to_nand():
    assert parse_expr("~(a & b & c)") == Nand(
        (Var("a"), Var("b"), Var("c"))
    )


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


def table_of(netlist: NorNetlist) -> list:
    return netlist.truth_table()


def test_gate_counts_for_the_standard_identities():
    assert lower_to_nor("~a").n_gates == 1          # NOT = 1-input NOR
    assert lower_to_nor("a | b").n_gates == 2       # NOR + NOT
    assert lower_to_nor("a & b").n_gates == 3       # 2 NOT + NOR
    assert lower_to_nor("a ^ b").n_gates == 5
    assert lower_to_nor("~(a | b)").n_gates == 1    # single NOR


def test_common_subexpressions_are_shared():
    single = lower_to_nor("a & b")
    double = lower_program(parse_program("x = a & b;\ny = a & b;\nz = x | y;\n"))
    # the second a&b reuses the first: only the OR stage is added
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
    rows = table_of(n)
    assert [out for _, out in rows] == [(0,), (1,)]
    n0 = lower_to_nor("0")
    assert table_of(n0) == [((), (0,))]


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
        for in_bits, out_bits in netlist.truth_table():
            env = dict(zip(netlist.inputs, in_bits))
            assert out_bits == (eval_expr(expr, env),), text


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
    n = lower_to_nor("~(~(~(~(~a))))")
    asg = allocate_rows(n)
    used = [asg.row_of[nid] for nid, node in enumerate(n.nodes) if node.op == "nor"]
    assert len(set(used)) < len(used)  # some row served two gate values
    assert asg.peak_live <= 3
    _assert_sound(n, asg)


def test_shared_output_node_is_not_reclaimed():
    # subterm sharing makes output x also a consumed operand of y: its
    # row must survive even though a consumer executes after it
    prog = parse_program("x = ~a;\ny = ~(~a);\n")
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
