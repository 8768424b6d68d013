"""Back-end checks: op emission, refresh insertion, audits and execution.

The retention negative controls compile against a deliberately shortened
retention model (with tau re-derived to match) so that skipping refresh
insertion produces physically wrong results, while the default pipeline
stays correct.
"""

import bisect
import csv
import dataclasses
import hashlib
import importlib.util
import json
import random
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcpim.charge import (ConfigError, ModelConfig, calibrate_tau, decay_scalar,
                          overdrive_scalar, residual_scalar)
from gcpim.cli import main
from gcpim.compiler import (
    CapacityError,
    CompilerConfig,
    PimProgram,
    RetentionViolationError,
    UnsoundProgramError,
    allocate_rows,
    compile_program,
    eval_expr,
    exhaustive_vectors,
    insert_refresh,
    lower_program,
    parse_program,
    run_program_on_array,
    simulate_program,
)
from gcpim.compiler.program import (
    AuditViolation,
    RefreshScheduleError,
    _RowAges,
    audit_refresh_safety,
    audit_row_soundness,
    emit_ops,
    level_intervals,
    worst_margin,
)
from gcpim.compiler.netlist import NorNetlist
import gcpim.compiler.simulate as simulate_mod
from gcpim.compiler.simulate import MARGIN_ALLOWANCE_V, PROGRAM_BLOCK_CELLS
from gcpim.montecarlo import VariationConfig, sample_params
from gcpim.subarray import EventLedger, MicroOp, OpKind, SubArray, TimingEnergyConfig

TIM = TimingEnergyConfig()

# retention shortened 150x, decay constant re-derived to match: values
# die in ~100 ns instead of ~15 us, so refresh actually matters in tests
SHORT = ModelConfig(drt_read_ns=100, drt_logic_ns=50).calibrated()

def chain_text(n: int, first: str = "b", last: str = "x") -> str:
    lines = [f"t0 = ~{first};"]
    for i in range(1, n):
        lines.append(f"t{i} = ~(t{i - 1} | 0);")
    lines.append(f"{last} = ~(t{n - 1} | 0);")
    return "\n".join(lines)


def ripple_text(n: int) -> str:
    """n-bit ripple-carry adder; inputs a0, b0, cin, a1, b1, ... in first use."""
    lines = []
    carry = "cin"
    for i in range(n):
        out = "cout" if i == n - 1 else f"c{i}"
        lines += [f"p{i} = a{i} ^ b{i};", f"s{i} = p{i} ^ {carry};",
                  f"g{i} = a{i} & b{i};", f"t{i} = p{i} & {carry};",
                  f"{out} = g{i} | t{i};"]
        carry = out
    return "\n".join(lines)


def aged_and_text(n_chain: int = 40) -> str:
    # input a sits idle while the b-chain runs, then gets consumed
    lines = ["t0 = ~b;"]
    for i in range(1, n_chain):
        lines.append(f"t{i} = ~(t{i - 1} | 0);")
    lines.append(f"out = a & t{n_chain - 1};")
    return "\n".join(lines)


# -- emission and cost model ------------------------------------------


def test_and_program_shape_and_cost():
    prog = compile_program("out = a & b;")
    kinds = [op.kind for op in prog.ops]
    assert kinds == [OpKind.WRITE, OpKind.WRITE, OpKind.LOGIC, OpKind.LOGIC,
                     OpKind.LOGIC, OpKind.READ]
    assert prog.duration_ns == 2 * 1 + 3 * 3 + 3  # 14
    assert prog.energy_fj == pytest.approx(
        2 * 364.8 + 2 * 857.6 + 864.0 + 851.2  # 2 writes, 2 NOT, 1 NOR, 1 read
    )


def test_ops_are_back_to_back():
    prog = compile_program("s = a ^ b;\nc = a & b;")
    t = 0
    for op in prog.ops:
        assert op.t_start_ns == t
        t += TIM.duration_ns(op.kind)
    assert prog.duration_ns == t


def test_constants_are_written_first():
    prog = compile_program("out = a & 1;")
    assert prog.ops[0].kind == OpKind.WRITE
    assert prog.ops[0].source == "const:1"
    assert prog.ops[0].rows == (63,)


def test_emit_ops_times_ops_back_to_back_from_0():
    netlist = lower_program(parse_program("s = a ^ b;\nc = a & ~1;"))
    slow = TimingEnergyConfig(t_write_ns=2, t_read_ns=5, t_init_ns=3, t_eval_ns=4)
    for timing in (TIM, slow):
        ops = emit_ops(netlist, allocate_rows(netlist, 62), timing)
        assert {op.kind for op in ops} == {OpKind.WRITE, OpKind.LOGIC, OpKind.READ}
        t = 0
        for op in ops:
            assert op.t_start_ns == t
            t += timing.duration_ns(op.kind)


def emitted_ops(monkeypatch) -> list:
    """Patches ``emit_ops`` where ``compile_program`` calls it; the list
    collects each op list it returns."""
    calls = []

    def recorded(*args):
        calls.append(emit_ops(*args))
        return calls[-1]

    monkeypatch.setattr("gcpim.compiler.program.emit_ops", recorded)
    return calls


def test_a_program_without_refresh_holds_the_emitted_ops(monkeypatch):
    calls = emitted_ops(monkeypatch)
    bare = compile_program(ripple_text(4), CompilerConfig(insert_refreshes=False))
    refreshed = compile_program(ripple_text(4))
    assert refreshed.n_refresh == 0 and len(calls) == 2
    for prog, emitted in zip((bare, refreshed), calls):
        assert len(prog.ops) == len(emitted)
        assert all(op is op_emitted for op, op_emitted in zip(prog.ops, emitted))
    again = insert_refresh(bare)
    assert len(again.ops) == len(calls[0])
    assert all(op is op_emitted for op, op_emitted in zip(again.ops, calls[0]))


def test_refresh_insertion_rebuilds_only_the_ops_it_moves(monkeypatch):
    calls = emitted_ops(monkeypatch)
    prog = compile_program(aged_and_text(), model_cfg=SHORT)
    assert prog.n_refresh > 0
    emitted = [op for op in prog.ops if op.kind is not OpKind.REFRESH]
    moved = [op.t_start_ns != was.t_start_ns for op, was in zip(emitted, calls[0])]
    assert any(moved) and not all(moved)
    assert all((op is was) != shifted for op, was, shifted in zip(emitted, calls[0], moved))


def test_program_json_roundtrip_is_byte_stable(tmp_path):
    prog = compile_program("s = a ^ b;\nc = a & b;")
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    prog.to_json(p1)
    PimProgram.from_json(p1).to_json(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert PimProgram.from_json(p1).ops == prog.ops


_ints = st.integers(-2**40, 2**70)
_rows = st.integers(0, 2**40)
_maybe_text = st.none() | st.text(max_size=6)


@st.composite
def _literal_ops(draw):
    """A well-formed op of any kind, with drawn literal field values."""
    kind = draw(st.sampled_from(OpKind))
    t = draw(st.integers(0, 2**70))  # a start is never negative
    if kind is OpKind.LOGIC:
        rows = draw(st.lists(_rows, min_size=1, max_size=4, unique=True))
        out_row = draw(_rows.filter(lambda r: r not in rows))
        return MicroOp(kind, tuple(rows), out_row, t_start_ns=t,
                       node=draw(st.none() | _ints))
    row = (draw(_rows),)
    if kind is OpKind.WRITE:
        return MicroOp(kind, row, source=draw(st.text(max_size=6)), t_start_ns=t)
    if kind is OpKind.READ:
        return MicroOp(kind, row, t_start_ns=t, output=draw(_maybe_text))
    return MicroOp(kind, row, t_start_ns=t)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_literal_ops(), min_size=1, max_size=12))
def test_op_lines_are_what_the_sorted_compact_encoder_writes(tmp_path_factory, ops):
    prog = dataclasses.replace(compile_program("o = ~a;"), ops=tuple(ops))
    path = tmp_path_factory.mktemp("ops") / "p.json"
    prog.to_json(path)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = path.read_text().split("\n")[1:-2]  # between the header and "]}"
    assert [line.removesuffix(",") for line in lines] == [
        encode(entry) for entry in prog.to_json_dict()["ops"]]
    assert PimProgram.from_json(path).ops == prog.ops


def test_program_json_rejects_other_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        PimProgram.from_json(bad)


def test_compiler_config_validation():
    with pytest.raises(ConfigError, match="^max_nor_arity 62 out of range for 64 rows: needs "
                       r"2 <= max_nor_arity and rows >= max_nor_arity \+ 3$"):
        CompilerConfig(rows=64, max_nor_arity=62)  # no row left for the output
    with pytest.raises(ConfigError, match="max_nor_arity 1 out of range"):
        CompilerConfig(max_nor_arity=1)
    with pytest.raises(ConfigError, match="max_nor_arity 2 out of range for 4 rows"):
        CompilerConfig(rows=4)  # a valid shape, but no arity fits it
    assert CompilerConfig(rows=5).max_nor_arity == 2


def test_value_rows_follow_the_row_count():
    # 70 inputs stay live at once: too many for 64 rows, not for 256
    wide = "out = " + " | ".join(f"x{i}" for i in range(70)) + ";"
    with pytest.raises(CapacityError):
        compile_program(wide)
    prog = compile_program(wide, CompilerConfig(rows=256))
    assert prog.rows - 2 == 254
    assert prog.peak_rows > 62


# -- refresh insertion ------------------------------------------------


def test_short_program_needs_no_refresh():
    prog = compile_program("out = (a ^ b) | ~c;")
    assert prog.n_refresh == 0
    assert audit_refresh_safety(prog) == []


def test_refresh_inserted_for_aged_operand():
    prog = compile_program(aged_and_text(), model_cfg=SHORT)
    assert prog.n_refresh > 0
    assert audit_refresh_safety(prog) == []
    assert audit_row_soundness(prog) == []


def test_negative_control_without_insertion():
    cfg = CompilerConfig(insert_refreshes=False)
    prog = compile_program(aged_and_text(), cfg, model_cfg=SHORT)
    assert prog.n_refresh == 0
    bad = audit_refresh_safety(prog)
    assert bad, "the stress program must violate the shortened budget"
    assert any(v.kind == "stale-value" for v in bad)


def test_refresh_insertion_is_idempotent():
    prog = compile_program(aged_and_text(), model_cfg=SHORT)
    again = insert_refresh(prog)
    assert again.ops == prog.ops


def test_refresh_respects_budget_override():
    base = compile_program(
        aged_and_text(), CompilerConfig(insert_refreshes=False)
    )
    base = dataclasses.replace(base, drt_logic_ns=50)
    assert audit_refresh_safety(base) != []
    tightened = insert_refresh(base)
    assert tightened.n_refresh > 0
    assert audit_refresh_safety(tightened) == []


def test_row_reuse_does_not_trigger_bogus_refreshes():
    # dead values in reclaimed rows must not be kept alive by the guard:
    # a deep NOT chain reuses rows heavily and needs no refresh at the
    # default windows even though early values are long dead
    prog = compile_program(chain_text(80))
    assert prog.n_refresh == 0
    assert audit_refresh_safety(prog) == []
    assert audit_row_soundness(prog) == []


# a value whose last consumer has fired is dead even while its row waits
# to be rewritten, and is not refreshed: the programs schedule at 40/32 and
# 43/28 only so (refreshing the dead values too, row 0 would be refreshed
# 41 ns old and row 1 45 ns old); ~~(f | 0) is f through a NOR with the
# constant row, which the lowering keeps where it folds f & f to f
REWRITE_40_32 = "o0 = (~d | ~(g ^ ~f));\no1 = ~(c ^ (~~(f | 0) | ~a));"
MODEL_40_32 = ModelConfig(drt_read_ns=40, drt_logic_ns=32)
REWRITE_43_28 = ("o0 = (((b & (d | a)) | ((c | h) ^ ~d)) & c);\n"
                 "o1 = ~(~c & (~e | ~d));")
MODEL_43_28 = ModelConfig(drt_read_ns=43, drt_logic_ns=28)
# audit-clean at 43/28, but with tau re-derived for those windows a
# nominal run senses a weak level wrong
WEAK_43_28 = "o0 = ~(h | ((d & c) | (a | g)));\no1 = ((e ^ (c & d)) | ~h);"
# a program that has no dead value to skip keeps its bytes: ripple-16 at
# 1000/300, 29 refreshes and 289 ops
RIPPLE16_1000_300_SHA256 = (
    "5c62493df3e1b2709ea7ad178b41370ce862d5d56944f72f0fe73b9485a89ea6")


def load_bench_corpus():
    """The benchmark's ``bench/corpus.py``, loaded read-only from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


# sha256 of PimProgram.to_json at the benchmark's sizes: the 1,100-link XOR
# chain (seed 0) at the default and at the tight 2000/1000 windows, and
# ripple-32, each on 256 rows; ripple-32 at 1000/300 fails to schedule
BENCH_SIZE_SHA256 = {
    ("xor_chain", None): "d6d718308fe2c4643066073c383c2641d14ff715f1b688540807e52c545c4e82",
    ("xor_chain", "xor_chain"): "b97b73e1ae259e208093e05fc0f9b71e45259c151002879fa7078b9264100e21",
    ("ripple32", None): "2e2358a52945f100a7d06315f4a3cf2d13c990f9ee2a304ccba63303fd2a1763",
}


@pytest.mark.parametrize("name, tight", sorted(BENCH_SIZE_SHA256, key=str))
def test_compiles_at_benchmark_size_keep_their_bytes(tmp_path, name, tight):
    corpus = load_bench_corpus()
    source = (corpus.xor_chain_source(corpus.xor_chain_terms(0)) if name == "xor_chain"
              else corpus.ripple_source(32))
    model = ModelConfig()
    if tight is not None:
        drt_read, drt_logic = corpus.TIGHT[tight]
        model = ModelConfig(drt_read_ns=drt_read, drt_logic_ns=drt_logic)
    prog = compile_program(source, CompilerConfig(rows=256), model)
    prog.to_json(tmp_path / "p.json")
    digest = hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest()
    assert digest == BENCH_SIZE_SHA256[name, tight]


def test_ripple32_at_the_tight_windows_fails_with_its_message():
    corpus = load_bench_corpus()
    drt_read, drt_logic = corpus.TIGHT["ripple32"]
    with pytest.raises(RefreshScheduleError) as exc:
        compile_program(corpus.ripple_source(32), CompilerConfig(rows=256),
                        ModelConfig(drt_read_ns=drt_read, drt_logic_ns=drt_logic))
    assert str(exc.value) == ("row 46 is 1002ns old at t=1049ns; its refresh would sense "
                              "garbage (limit 1000ns)")


@pytest.mark.parametrize("source, model, n_refresh, n_ops", [
    (REWRITE_40_32, MODEL_40_32, 1, 26),
    (REWRITE_43_28, MODEL_43_28, 3, 28),
])
def test_dead_values_are_not_refreshed_before_their_row_is_rewritten(
        source, model, n_refresh, n_ops):
    prog = compile_program(source, model_cfg=model)
    assert (prog.n_refresh, len(prog.ops)) == (n_refresh, n_ops)
    assert audit_refresh_safety(prog) == []
    assert audit_row_soundness(prog) == []


def test_programs_without_dead_refreshes_keep_their_bytes(tmp_path):
    prog = compile_program(ripple_text(16),
                           model_cfg=ModelConfig(drt_read_ns=1000, drt_logic_ns=300))
    assert (prog.n_refresh, len(prog.ops)) == (29, 289)
    prog.to_json(tmp_path / "ripple16.json")
    digest = hashlib.sha256((tmp_path / "ripple16.json").read_bytes()).hexdigest()
    assert digest == RIPPLE16_1000_300_SHA256


def scan_insert_refresh(program):
    """Oracle: the scan-based insertion that the deadline heap replaced,
    which re-checks every row ever written before each op."""
    budget = program.drt_logic_ns
    drt_read = program.drt_read_ns
    timing = program.timing

    future_use: dict[int, list[int]] = {}
    redefs: dict[int, list[int]] = {}
    for i, op in enumerate(program.ops):
        if op.kind in (OpKind.READ, OpKind.LOGIC):
            for r in op.rows:
                future_use.setdefault(r, []).append(i)
        if op.kind is OpKind.WRITE:
            redefs.setdefault(op.rows[0], []).append(i)
        elif op.kind is OpKind.LOGIC:
            redefs.setdefault(op.out_row, []).append(i)

    def needed_after(row: int, i: int) -> bool:
        uses = future_use.get(row, ())
        j = bisect.bisect_right(uses, i)
        if j >= len(uses):
            return False
        defs = redefs.get(row, ())
        d = bisect.bisect_left(defs, i)  # the value held before op i: op i may end it
        return d >= len(defs) or uses[j] < defs[d]

    new_ops: list[MicroOp] = []
    t = 0
    ages = _RowAges(timing)
    t_valid = ages.t_valid

    def emit_refresh(row: int) -> None:
        nonlocal t
        op = MicroOp(OpKind.REFRESH, (row,), t_start_ns=t)
        [(_, _, age)] = ages.sensed(op, t)
        if age > drt_read:
            raise RefreshScheduleError(
                f"row {row} is {age}ns old at t={t}ns; its "
                f"refresh would sense garbage (limit {drt_read}ns)"
            )
        new_ops.append(op)
        ages.commit(op, t)
        t += timing.t_refresh_ns

    for i, op in enumerate(program.ops):
        if op.kind is OpKind.REFRESH:
            continue
        dur = ages.duration[op.kind]
        while True:
            stale = [r for r, _, age in ages.sensed(op, t)
                     if age is not None and age > budget]
            expiring = [
                r for r in sorted(t_valid)
                if needed_after(r, i) and t + dur > t_valid[r] + drt_read
            ]
            candidates = sorted(set(stale) | set(expiring))
            if not candidates:
                break
            emit_refresh(candidates[0])
        new_ops.append(dataclasses.replace(op, t_start_ns=t))
        ages.commit(op, t)
        t += dur

    return dataclasses.replace(program, ops=tuple(new_ops))


def xor_chain_source(terms) -> str:
    lines = [f"x1 = {terms[0]} ^ {terms[1]};"]
    lines += [f"x{k} = x{k - 1} ^ {terms[k]};" for k in range(2, len(terms))]
    return "\n".join(lines)


_expressions = st.recursive(
    st.sampled_from(["a", "b", "c", "d", "e", "1"]),
    lambda inner: inner.map(lambda e: f"~{e}") | st.tuples(
        inner, st.sampled_from("&|^"), inner).map(lambda t: "({} {} {})".format(*t)),
    max_leaves=30)


@st.composite
def _compile_cases(draw):
    rows = draw(st.sampled_from([64, 256]))
    kind = draw(st.sampled_from(["xor", "ripple", "random"]))
    if kind == "xor":
        names = [f"i{k}" for k in range(draw(st.integers(2, 40)))]
        source = xor_chain_source(
            draw(st.lists(st.sampled_from(names), min_size=2, max_size=400)))
    elif kind == "ripple":  # ripple-16 peaks at 54 live rows, ripple-32 at 102
        source = ripple_text(draw(st.integers(1, 16 if rows == 64 else 32)))
    else:
        source = "\n".join(f"o{k} = {e};" for k, e in enumerate(
            draw(st.lists(_expressions, min_size=1, max_size=4))))
    drt_read = draw(st.integers(40, 20_000))
    # LOGIC with 4 stale inputs refreshes them 4 ns apart; below 13 ns the
    # first would be stale again before the gate senses it
    drt_logic = draw(st.integers(16, drt_read))
    # the default tau, and past its 15 us read window the calibrated one,
    # the least tau that retains a '1' for drt_read
    tau = calibrate_tau(drt_read_ns=max(drt_read, 15000))
    return (source, rows, draw(st.integers(2, 4)),
            ModelConfig(drt_read_ns=drt_read, drt_logic_ns=drt_logic, tau_ns=tau))


@settings(max_examples=150, deadline=None)
@given(case=_compile_cases())
@example(case=(  # row 1 is dead and is not refreshed at t=63ns, 61ns old;
    # row 7, still live, expires anyway ("62ns old at t=70ns")
    "o0 = ((~(c | f) ^ f) ^ e);\n"
    "o1 = (((g & h) ^ ((d & h) ^ (f & b))) ^ ~~(d | a));",
    64, 3, ModelConfig(drt_read_ns=60, drt_logic_ns=27)))
@example(case=(REWRITE_40_32, 64, 2, MODEL_40_32))  # a dead row is not refreshed
@example(case=(REWRITE_43_28, 64, 2, MODEL_43_28))  # nor here, 3 refreshes
@example(case=(  # rows 5 and 6 come due together, 6 with the earlier deadline
    ripple_text(3), 64, 2, ModelConfig(drt_read_ns=113, drt_logic_ns=26)))
def test_heap_insertion_matches_the_scan_oracle(case):
    # same ops as the scan, or the same RefreshScheduleError message
    source, rows, arity, model = case
    cfg = CompilerConfig(rows=rows, max_nor_arity=arity)
    bare = compile_program(source, dataclasses.replace(cfg, insert_refreshes=False),
                           model)
    try:
        expected = scan_insert_refresh(bare).ops
    except RefreshScheduleError as exc:
        expected = str(exc)
    try:
        prog = compile_program(source, cfg, model)
    except RefreshScheduleError as exc:
        assert str(exc) == expected
        return
    assert prog.ops == expected
    assert audit_refresh_safety(prog) == []
    assert audit_row_soundness(prog) == []


def _assert_peak_rows_is_the_allocator_peak(source, rows, arity=2):
    cfg = CompilerConfig(rows=rows, max_nor_arity=arity, insert_refreshes=False)
    prog = compile_program(source, cfg)
    assert prog.peak_rows == allocate_rows(prog.netlist, rows - 2).peak_live


@pytest.mark.parametrize("rows", [64, 256])
def test_peak_rows_is_the_allocator_peak_on_ripple_adders(rows):
    for n in range(1, 17 if rows == 64 else 33):  # ripple-32 needs 102 rows
        _assert_peak_rows_is_the_allocator_peak(ripple_text(n), rows)


def test_peak_rows_is_the_allocator_peak_on_the_xor_chain_and_constants():
    # 1,100 links over shuffles of 40 inputs, as in the benchmark corpus
    rng = np.random.default_rng(0)
    names = [f"i{k}" for k in np.concatenate([rng.permutation(40) for _ in range(28)])]
    _assert_peak_rows_is_the_allocator_peak(xor_chain_source(names[:1101]), 64)
    for source in ("o = 0;", "o = 1;", "o = ~a;", "o = a & 1;", "o = a | 0;"):
        _assert_peak_rows_is_the_allocator_peak(source, 64)


@settings(max_examples=60, deadline=None)
@given(exprs=st.lists(_expressions, min_size=1, max_size=4),
       rows=st.sampled_from([64, 256]), arity=st.integers(2, 4))
def test_peak_rows_is_the_allocator_peak_on_random_expressions(exprs, rows, arity):
    source = "\n".join(f"o{k} = {e};" for k, e in enumerate(exprs))
    _assert_peak_rows_is_the_allocator_peak(source, rows, arity)


def _negations_and_chains(inner):
    """``~e``, or a parenthesised ``&``, ``|`` or ``^`` chain of 2 to 5 operands."""
    chains = st.tuples(st.sampled_from("&|^"), st.lists(inner, min_size=2, max_size=5))
    return inner.map(lambda e: f"~{e}") | chains.map(lambda t: "(" + f" {t[0]} ".join(t[1]) + ")")


@st.composite
def _programs(draw):
    """One to five statements over inputs a..d, the constants and every
    earlier name: names are reused, and a negated name carries its
    negation across statements."""
    names, lines = ["a", "b", "c", "d"], []
    for k in range(draw(st.integers(1, 5))):
        expr = draw(st.recursive(st.sampled_from(names + ["0", "1"]), _negations_and_chains,
                                 max_leaves=12))
        lines.append(f"t{k} = {expr};")
        names.append(f"t{k}")
    return "\n".join(lines)


@settings(max_examples=120, deadline=None)
@given(source=_programs(), arity=st.sampled_from([2, 3, 8]))
def test_lowered_programs_compute_their_source(source, arity):
    # every input combination: the netlist equals the statements evaluated
    # one by one, and the compiled program is audit-clean with nominal = ideal
    program = parse_program(source)
    prog = compile_program(source, CompilerConfig(max_nor_arity=arity))
    vecs = exhaustive_vectors(program.inputs)
    width = len(vecs[program.inputs[0]]) if program.inputs else 1
    expected = {name: [] for name in program.outputs}
    for c in range(width):
        env = {name: bits[c] for name, bits in vecs.items()}
        for st_ in program.statements:
            env[st_.name] = eval_expr(st_.expr, env)
        for name in program.outputs:
            expected[name].append(env[name])
    assert audit_refresh_safety(prog) == audit_row_soundness(prog) == []
    ideal = simulate_program(prog, vecs, mode="ideal").outputs
    nominal = simulate_program(prog, vecs, mode="nominal").outputs
    for name in program.outputs:
        assert np.broadcast_to(ideal[name], (width,)).tolist() == expected[name], name
        assert np.array_equal(nominal[name], ideal[name]), name


@settings(max_examples=20, deadline=None)
@given(terms=st.lists(st.sampled_from(["i1", "i2", "i3", "i4"]), min_size=1, max_size=60),
       arity=st.sampled_from([2, 3, 8]))
def test_xor_chain_links_are_four_gates_without_a_not(terms, arity):
    # a link XORs a negated value, which is an XNOR: 4 NOR2s and no NOT;
    # after an odd number of links the output is negated and takes one
    links = len(terms)
    netlist = lower_program(parse_program(xor_chain_source(["i0", *terms])), arity)
    gates = [netlist.nodes[i] for i in netlist.gate_ids()]
    assert len(gates) == 4 * links + links % 2
    assert sum(len(g.args) == 1 for g in gates) == links % 2
    assert all(len(g.args) == 2 for g in gates[:4 * links])


def test_the_benchmark_xor_chain_is_4400_nor2_gates():
    netlist = lower_program(parse_program(corpus_xor_chain()))
    assert netlist.n_gates == 4 * 1100
    assert all(len(netlist.nodes[i].args) == 2 for i in netlist.gate_ids())


def test_audit_catches_clobbered_read():
    prog = compile_program("out = a & b;")
    out_row = prog.ops[-1].rows[0]
    wrong = dataclasses.replace(prog.ops[-1], rows=(out_row + 1,))
    broken = dataclasses.replace(prog, ops=prog.ops[:-1] + (wrong,))
    kinds = [v.kind for v in audit_row_soundness(broken)]
    assert "clobbered" in kinds
    with pytest.raises(UnsoundProgramError, match="program is unsound"):
        simulate_program(broken, exhaustive_vectors(broken.inputs), mode="ideal")


def test_audit_catches_unwritten_consumption():
    ops = (MicroOp(OpKind.LOGIC, (0,), out_row=1, t_start_ns=0),)
    prog = compile_program("out = ~a;")
    broken = dataclasses.replace(prog, ops=ops)
    bad = audit_refresh_safety(broken)
    assert [v.kind for v in bad] == ["unwritten"]


def test_audit_flags_a_refresh_that_senses_an_expired_row():
    prog = compile_program("out = ~a;")

    def refreshed_at_age(age: int) -> PimProgram:
        ops = (MicroOp(OpKind.WRITE, (0,), source="input:a", t_start_ns=0),
               MicroOp(OpKind.REFRESH, (0,), t_start_ns=TIM.t_write_ns + age))
        return dataclasses.replace(prog, ops=ops)

    assert audit_refresh_safety(refreshed_at_age(prog.drt_read_ns)) == []
    bad = audit_refresh_safety(refreshed_at_age(prog.drt_read_ns + 1))
    assert [(v.op_index, v.row, v.kind) for v in bad] == [(1, 0, "stale-refresh")]


def test_audit_flags_a_refresh_of_a_never_written_row():
    prog = compile_program("out = ~a;")
    ops = (MicroOp(OpKind.REFRESH, (3,), t_start_ns=0),)
    broken = dataclasses.replace(prog, ops=ops)
    bad = audit_refresh_safety(broken)
    assert [(v.op_index, v.row, v.kind) for v in bad] == [(0, 3, "unwritten")]


# Oracles: the three separate replays that ``PimProgram.senses`` replaced,
# each keeping its own per-row state.


def oracle_retention_ages(ops, timing):
    ages = _RowAges(timing)
    for i, op in enumerate(ops):
        for row, t, age in ages.sensed(op, op.t_start_ns):
            yield i, op, row, t, age
        ages.commit(op, op.t_start_ns)


def oracle_audit_refresh_safety(program):
    budget, drt_read = program.drt_logic_ns, program.drt_read_ns
    ops, duration = program.ops, program.timing.duration_ns
    violations = [
        AuditViolation(i, op.t_start_ns, None, "overlap",
                       f"op {i} starts at {op.t_start_ns}ns, before op {i - 1} "
                       f"ends at {prev.t_start_ns + duration(prev.kind)}ns")
        for i, (prev, op) in enumerate(zip(ops, ops[1:]), 1)
        if op.t_start_ns < prev.t_start_ns + duration(prev.kind)]
    for i, op, row, t, age in oracle_retention_ages(program.ops, program.timing):
        refresh = op.kind is OpKind.REFRESH
        if age is None:
            violations.append(AuditViolation(
                i, t, row, "unwritten",
                f"refresh of never-written row {row}" if refresh
                else f"row {row} consumed before any write"))
        elif refresh and age > drt_read:
            violations.append(AuditViolation(
                i, t, row, "stale-refresh",
                f"refresh senses row {row} at age {age}ns (> {drt_read}ns)"))
        elif not refresh and age > budget:
            violations.append(AuditViolation(
                i, t, row, "stale-value",
                f"row {row} consumed at age {age}ns (> {budget}ns)"))
    return violations


def oracle_audit_row_soundness(program):
    netlist = program.netlist
    sources = {f"input:{n.name}" if n.op == "input" else f"const:{n.value}": i
               for i, n in enumerate(netlist.nodes) if n.op != "nor"}
    gates = set(netlist.gate_ids())
    output_map = netlist.output_map
    unread = set(output_map)
    contents = {}  # row -> node id, None if anonymous
    violations = []

    def flag(i, op, row, kind, message):
        violations.append(AuditViolation(i, op.t_start_ns, row, kind, message))

    for i, op in enumerate(program.ops):
        for row in (*op.rows, op.out_row):
            if row is not None and not 0 <= row < program.rows:
                flag(i, op, row, "outside-array",
                     f"row {row} is outside the {program.rows}-row array")
        if op.kind is OpKind.WRITE:
            if op.source not in sources:
                flag(i, op, op.rows[0], "unknown-name",
                     f"write of unknown source {op.source!r}")
            contents[op.rows[0]] = sources.get(op.source)
        elif op.kind is OpKind.LOGIC:
            nid = op.node
            if nid is not None and nid not in gates:
                flag(i, op, op.out_row, "unknown-name",
                     f"LOGIC computes node {nid!r}, not a gate of the netlist")
            elif nid is not None:
                expected_args = set(netlist.nodes[nid].args)
                found_args = {contents.get(r) for r in op.rows}
                if found_args != expected_args:
                    flag(i, op, op.out_row, "clobbered",
                         f"gate {nid} reads rows holding {sorted(map(str, found_args))}, "
                         f"expected nodes {sorted(expected_args)}")
            contents[op.out_row] = nid
        elif op.kind is OpKind.READ and op.output is not None:
            row, expected = op.rows[0], output_map.get(op.output)
            if expected is None:
                flag(i, op, row, "unknown-name",
                     f"READ senses output {op.output!r}, not an output of the netlist")
            elif contents.get(row) != expected:
                flag(i, op, row, "clobbered",
                     f"row {row} holds node {contents.get(row)}, expected node {expected}")
            unread.discard(op.output)
    for name in sorted(unread):
        violations.append(AuditViolation(len(program.ops), program.duration_ns, None,
                                         "unread-output", f"output {name!r} is never read"))
    return violations


def oracle_level_intervals(program, model):
    tau, v_t, rails = model.tau_ns, model.v_t_drive, (model.vdd, 0.0)
    ages, levels = _RowAges(program.timing), {}
    for i, op in enumerate(program.ops):
        sensed = ages.sensed(op, op.t_start_ns)
        if op.kind is OpKind.LOGIC:
            total, weakest = 0.0, float("inf")
            for row, _, age in sensed:
                lo1, hi0 = levels.get(row, (0.0, 0.0))
                total += overdrive_scalar(decay_scalar(hi0, age or 0, tau), v_t)
                drive = overdrive_scalar(decay_scalar(lo1, age or 0, tau), v_t)
                if drive < weakest:
                    weakest = drive
            levels[op.out_row] = (residual_scalar(total, model), residual_scalar(weakest, model))
        else:
            for row, _, age in sensed:
                lo1, hi0 = levels.get(row, (0.0, 0.0))
                yield i, op, decay_scalar(lo1, age or 0, tau), decay_scalar(hi0, age or 0, tau)
            if op.kind is not OpKind.READ:
                levels[op.rows[0]] = rails
        ages.commit(op, op.t_start_ns)


@st.composite
def _mutated_programs(draw):
    """A compiled program (windows of 40-400 ns, so about a quarter carry
    refreshes; the emitted ops where insertion fails) with up to three ops
    rebuilt through ``MicroOp``: the start of one op, or of it and every
    later one, shifted; rows swapped with another op's; a row replaced (in
    the array or up to 3 past it); an unknown or another ``node``,
    ``output`` or ``source``; or a REFRESH dropped."""
    if draw(st.booleans()):
        source = ripple_text(draw(st.integers(1, 4)))
    else:
        source = "\n".join(f"o{k} = {e};" for k, e in enumerate(
            draw(st.lists(_expressions, min_size=1, max_size=3))))
    drt_read = draw(st.integers(40, 400))
    model = ModelConfig(drt_read_ns=drt_read, drt_logic_ns=draw(st.integers(16, drt_read)))
    cfg = CompilerConfig(max_nor_arity=3)
    try:
        prog = compile_program(source, cfg, model)
    except RefreshScheduleError:  # then the emitted ops, unrefreshed
        prog = compile_program(source, dataclasses.replace(cfg, insert_refreshes=False), model)
    ops = list(prog.ops)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(ops) - 1)), draw(st.integers(0, len(ops) - 1))
        op, how = ops[i], draw(st.sampled_from(["shift", "swap", "row", "name", "drop"]))
        try:
            if how == "shift":  # op i alone, or with every later op
                delta, end = draw(st.integers(-40, 400)), draw(st.sampled_from([i + 1, None]))
                ops[i:end] = [dataclasses.replace(o, t_start_ns=max(0, o.t_start_ns + delta))
                              for o in ops[i:end]]
            elif how == "swap":
                ops[i], ops[j] = (dataclasses.replace(op, rows=ops[j].rows),
                                  dataclasses.replace(ops[j], rows=op.rows))
            elif how == "row":
                rows = list(op.rows)
                rows[draw(st.integers(0, len(rows) - 1))] = draw(
                    st.integers(0, prog.rows - 1) | st.integers(prog.rows, prog.rows + 2))
                ops[i] = dataclasses.replace(op, rows=tuple(rows))
            elif how == "name":
                key = {OpKind.LOGIC: "node", OpKind.READ: "output",
                       OpKind.WRITE: "source"}.get(op.kind)
                values = {"node": [999, *range(len(prog.netlist.nodes))],
                          "output": ["nope", *prog.output_names],
                          "source": ["input:zz", "const:2", *prog.source_nodes]}
                if key is not None:
                    ops[i] = dataclasses.replace(op, **{key: draw(st.sampled_from(values[key]))})
            else:
                refreshes = [k for k, o in enumerate(ops) if o.kind is OpKind.REFRESH]
                if refreshes:
                    del ops[draw(st.sampled_from(refreshes))]
        except ValueError:  # MicroOp refuses it, e.g. a LOGIC row twice
            pass
    return dataclasses.replace(prog, ops=tuple(ops)), model


@settings(max_examples=200, deadline=None)
@given(case=_mutated_programs())
def test_the_audits_and_the_level_replay_match_their_separate_replays(case):
    prog, model = case
    assert audit_row_soundness(prog) == oracle_audit_row_soundness(prog)
    assert audit_refresh_safety(prog) == oracle_audit_refresh_safety(prog)
    assert list(level_intervals(prog, model)) == list(oracle_level_intervals(prog, model))


def test_a_replaced_program_reads_its_own_senses():
    prog = compile_program("s = a ^ b;\nc = a & b;",
                           model_cfg=ModelConfig(drt_read_ns=40, drt_logic_ns=12))
    assert prog.n_refresh > 0 and audit_refresh_safety(prog) == []
    table = prog.senses
    k = next(i for i, op in enumerate(prog.ops) if op.kind is OpKind.REFRESH)
    dropped = dataclasses.replace(prog, ops=prog.ops[:k] + prog.ops[k + 1:])
    assert dropped.senses is not table and prog.senses is table
    assert audit_refresh_safety(dropped) == oracle_audit_refresh_safety(dropped) != []
    assert audit_refresh_safety(prog) == []


def test_a_certified_run_replays_the_ops_once(monkeypatch):
    prog = compile_program(ripple_text(2))
    built = []
    init = _RowAges.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(_RowAges, "__init__", counted)
    assert simulate_program(prog, exhaustive_vectors(prog.inputs)).certified
    assert len(built) == 1


# -- simulation -------------------------------------------------------


def test_nominal_matches_ideal_for_a_corpus():
    sources = [
        "out = ~a;",
        "out = a & b;",
        "out = a | b;",
        "out = a ^ b;",
        "s = a ^ b;\nc = a & b;",
        "out = ~(a | b | c);",
        "out = (a & b) | (~c & d);",
        "x = a ^ b;\ny = x & c;\nout = y | ~a;",
    ]
    # and the 40/32 windows (default tau, as `gcpim run` with a 40/32
    # config): 1 refresh, none of a dead value
    cases = [(src, ModelConfig()) for src in sources]
    cases.append((REWRITE_40_32, MODEL_40_32))
    for src, model in cases:
        prog = compile_program(src, model_cfg=model)
        vecs = exhaustive_vectors(prog.inputs)
        ideal = simulate_program(prog, vecs, mode="ideal")
        for trace in (False, True):  # a traced run simulates the array
            nom = simulate_program(prog, vecs, mode="nominal", model_cfg=model, trace=trace)
            for name in ideal.outputs:
                np.testing.assert_array_equal(
                    nom.outputs[name], ideal.outputs[name], err_msg=src
                )


def test_every_mode_evaluates_the_netlist_once(monkeypatch):
    # the netlist's outputs are ideal mode's result, the values a nominal
    # run must match and MC's reference
    prog = compile_program("s = a ^ b;\nc = a & b;")
    vecs = exhaustive_vectors(prog.inputs)
    evaluate = NorNetlist.evaluate
    calls = []

    def counted(self, vectors):
        calls.append(1)
        return evaluate(self, vectors)

    monkeypatch.setattr(NorNetlist, "evaluate", counted)
    for mode in ("ideal", "nominal", "mc"):
        calls.clear()
        simulate_program(prog, vecs, mode=mode, var_cfg=VariationConfig(), n_trials=2)
        assert len(calls) == 1, mode


def weak_and_text() -> str:
    """``o = ~z`` reads ``z = a & b`` 1,655 chain gates (about 5 us) after
    it is computed from inputs written as long before, and ``k`` keeps the
    chain alive.  A link ``~(t | 0)`` is a NOR on the constant row, which
    the lowering cannot cancel as it would ``~~t``; that row takes the one
    refresh.  Every value is read inside its retention window, but ``o``
    senses a level weakened hop by hop."""
    nots = [f"t{i} = ~(t{i - 1} | 0);" for i in range(1, 3310)]
    return "\n".join(["t0 = ~f;", *nots[:1654], "z = a & b;", *nots[1654:],
                      "k = t3309;", "o = ~z;"])


def test_a_nominal_run_that_differs_from_the_netlist_raises(tmp_path, capsys):
    prog = compile_program(weak_and_text())
    assert (len(prog.ops), prog.n_refresh) == (3321, 1)
    assert audit_refresh_safety(prog) == audit_row_soundness(prog) == []
    vecs = {"f": [0], "a": [1], "b": [1]}
    assert simulate_program(prog, vecs, mode="ideal").outputs["o"].tolist() == [0]
    with pytest.raises(RetentionViolationError,
                       match=r"output 'o' wrong in vector 0 \(1 of 1 vectors\)"):
        simulate_program(prog, vecs, mode="nominal")
    prog.to_json(tmp_path / "prog.json")
    (tmp_path / "inputs.csv").write_text("f,a,b\n0,1,1\n")
    assert main(["run", str(tmp_path / "prog.json"), "--inputs", str(tmp_path / "inputs.csv"),
                 "--out", str(tmp_path / "out")]) == 3
    assert "gcpim: resource error: nominal run differs" in capsys.readouterr().err
    # the worst-case levels leave no margin at the READ of o, so the run
    # fell back to the array; an MC run checks it too, instead of
    # reporting the wrong answer as variation loss
    margin, at = worst_margin(prog, ModelConfig())
    assert (round(1000 * margin, 1), at) == (-3.0, 3320)
    with pytest.raises(RetentionViolationError,
                       match=r"output 'o' wrong in vector 0 \(2 of 3 vectors\)"):
        simulate_program(prog, {"f": [0, 0, 1], "a": [1, 0, 1], "b": [1, 1, 1]},
                         mode="mc", var_cfg=VariationConfig(), n_trials=50)
    # tight windows with tau re-derived for them: audit-clean, 1 refresh
    prog = compile_program(WEAK_43_28, model_cfg=MODEL_43_28)
    assert prog.n_refresh == 1
    assert audit_refresh_safety(prog) == audit_row_soundness(prog) == []
    with pytest.raises(RetentionViolationError,
                       match=r"output 'o1' wrong in vector 57 \(4 of 64 vectors\)"):
        simulate_program(prog, exhaustive_vectors(prog.inputs), mode="nominal",
                         model_cfg=MODEL_43_28.calibrated())


def corpus_xor_chain() -> str:
    """The benchmark corpus's XOR chain: 1,101 operands, back-to-back
    shuffles of 40 inputs drawn with ``random.Random(0)``."""
    rng, slots = random.Random(0), []
    while len(slots) < 1101:
        round_ = list(range(40))
        rng.shuffle(round_)
        slots += round_
    return xor_chain_source([f"i{k}" for k in slots[:1101]])


def test_worst_margins_are_pinned():
    cases = [(ripple_text(8), 64, 405.0, "READ"), (ripple_text(32), 256, 400.3, "READ"),
             (corpus_xor_chain(), 64, 236.1, "REFRESH")]
    for source, rows, want_mv, kind in cases:
        prog = compile_program(source, CompilerConfig(rows=rows))
        margin, at = worst_margin(prog, ModelConfig())
        assert (round(1000 * margin, 1), prog.ops[at].kind.value) == (want_mv, kind), source
    assert at == 1983  # the XOR chain's


def test_run_prints_its_margin_and_the_certified_and_traced_artifacts_agree(
        tmp_path, capsys):
    prog = compile_program("s = a ^ b;\nc = a & b;")
    vecs = exhaustive_vectors(prog.inputs)
    nominal = cli_run(tmp_path, prog, vecs, "nominal")
    assert "worst margin: 404.8 mV at op 11 (READ), certified" in capsys.readouterr().out
    assert main(["run", str(tmp_path / "prog.json"), "--inputs", str(tmp_path / "inputs.csv"),
                 "--trace", "--out", str(tmp_path / "traced")]) == 0
    assert "worst margin: 404.8 mV at op 11 (READ), array-checked" in capsys.readouterr().out
    for name in ("outputs.csv", "ledger.csv"):
        assert (nominal / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    cli_run(tmp_path, prog, vecs, "mc", trials=4)
    assert "worst margin: 404.8 mV at op 11 (READ), certified" in capsys.readouterr().out


def weak_level_case(n: int, split: int, exprs: list[str], read: int, div: int, arity: int):
    """The ``_weak_level_cases`` draw of these values."""
    nots = [f"t{i} = ~(t{i - 1} | 0);" for i in range(1, n)]
    return ("\n".join(["t0 = ~a;", *nots[:split],
                       *(f"z{k} = {e};" for k, e in enumerate(exprs)), *nots[split:],
                       f"k = t{n - 1};", *(f"o{k} = ~z{k};" for k in range(len(exprs)))]),
            arity, ModelConfig(drt_read_ns=read, drt_logic_ns=read // div).calibrated())


@st.composite
def _weak_level_cases(draw):
    """Expressions over a..e computed partway through a NOT chain of 10 to
    400 gates and consumed after it, so their levels age while the chain
    runs; arity 2 to 8, calibrated windows of 1 to 15 us."""
    n = draw(st.integers(10, 400))
    return weak_level_case(n, draw(st.integers(0, n - 1)),
                           draw(st.lists(_expressions, min_size=1, max_size=3)),
                           draw(st.integers(1000, 15_000)), draw(st.sampled_from([1, 2, 3])),
                           draw(st.integers(2, 8)))


# a NOR's '1' pulled down by the sum of two weak '0's, at a positive margin
PULLED_DOWN_NOR = weak_level_case(86, 85, ["~(a ^ b)"], 1000, 1, 2)


def test_the_pulled_down_nor_example_has_a_positive_margin():
    # so the property's example reaches its level checks
    source, arity, model = PULLED_DOWN_NOR
    prog = compile_program(source, CompilerConfig(max_nor_arity=arity), model)
    assert worst_margin(prog, model)[0] > MARGIN_ALLOWANCE_V
    vecs = {name: np.asarray(bits) for name, bits in exhaustive_vectors(prog.inputs).items()}
    width = len(vecs[prog.inputs[0]])
    value = dataclasses.replace(prog.netlist, outputs=tuple(
        (str(i), i) for i in range(len(prog.netlist.nodes)))).evaluate(vecs)
    inputs = {name: np.pad(v, (0, prog.cols - width)) for name, v in vecs.items()}
    sa = SubArray(model, prog.timing, rows=prog.rows, cols=prog.cols, trace=True)
    pulled = []
    for op in prog.ops:
        sampled = len(sa.trace_rows)
        sa.run([op], inputs)
        if op.kind is OpKind.LOGIC and len(op.rows) > 1:
            # samples: output before, output precharged, each input at
            # evaluation, output after
            samples = sa.trace_rows[sampled:]
            driving = sum(level[:width] > model.v_t_drive for _, _, level in samples[2:-1])
            ones = np.broadcast_to(value[str(op.node)], (width,)) == 1
            pulled.append(samples[-1][2][:width][ones & (driving >= 2)].min(initial=np.inf))
    # the sum of the weak '0's pulls a '1' down by over 100 mV, yet it reads '1'
    assert model.v_sa_read < min(pulled) < model.vdd - 0.1


@settings(max_examples=50, deadline=None)
@given(case=_weak_level_cases())
@example(case=PULLED_DOWN_NOR)
def test_a_positive_margin_certifies_the_array(case):
    # every nominal level a READ or REFRESH senses lies in the replay's
    # interval for the value its row holds, and the READs sense the netlist
    source, arity, model = case
    try:
        prog = compile_program(source, CompilerConfig(max_nor_arity=arity), model)
    except RefreshScheduleError:
        return
    if worst_margin(prog, model)[0] <= MARGIN_ALLOWANCE_V:
        return
    netlist = prog.netlist
    vecs = {name: np.asarray(bits) for name, bits in exhaustive_vectors(prog.inputs).items()}
    width = len(vecs[prog.inputs[0]])
    every_node = dataclasses.replace(
        netlist, outputs=tuple((str(i), i) for i in range(len(netlist.nodes))))
    value = {int(i): np.broadcast_to(v, (width,))
             for i, v in every_node.evaluate(vecs).items()}
    source_node = prog.source_nodes
    intervals = {i: (lo1, hi0) for i, _, lo1, hi0 in level_intervals(prog, model)}
    ideal = netlist.evaluate(vecs)
    inputs = {name: np.pad(v, (0, prog.cols - width)) for name, v in vecs.items()}
    sa = SubArray(model, prog.timing, rows=prog.rows, cols=prog.cols, trace=True)
    holds: dict[int, int] = {}  # row -> node id
    for i, op in enumerate(prog.ops):
        sampled = len(sa.trace_rows)
        reads = sa.run([op], inputs)
        if op.kind is OpKind.WRITE:
            holds[op.rows[0]] = source_node[op.source]
        elif op.kind is OpKind.LOGIC:
            holds[op.out_row] = op.node
        else:  # the first sample a READ or REFRESH records is the level it senses
            _, row, level = sa.trace_rows[sampled]
            lo1, hi0 = intervals[i]
            ones = value[holds[row]] == 1
            assert np.all(level[:width][ones] >= lo1 - 1e-9), (i, op)
            assert np.all(level[:width][~ones] <= hi0 + 1e-9), (i, op)
        if op.output is not None:
            np.testing.assert_array_equal(reads[0][:width], ideal[op.output])


def cli_run(tmp_path, prog, vecs, mode, model=None, trials=None):
    """``gcpim run`` of the program on the vectors (and model), in a
    directory named after the mode, which it returns."""
    prog.to_json(tmp_path / "prog.json")
    names = list(vecs)
    (tmp_path / "inputs.csv").write_text("\n".join(
        [",".join(names), *(",".join(map(str, bits)) for bits in zip(*vecs.values()))]))
    argv = ["run", str(tmp_path / "prog.json"), "--inputs", str(tmp_path / "inputs.csv"),
            "--mode", mode, "--out", str(tmp_path / mode)]
    if model is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"version": 1, "model": dataclasses.asdict(model)}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    if trials is not None:
        argv += ["--trials", str(trials)]
    assert main(argv) in (0, 1)  # an mc run below the success floor exits 1
    return tmp_path / mode


def test_nominal_ledger_matches_static_cost(tmp_path, capsys):
    prog = compile_program("s = a ^ b;\nc = a & b;")
    out = cli_run(tmp_path, prog, exhaustive_vectors(prog.inputs), "nominal")
    assert (f"nominal run: 4 vectors, {prog.duration_ns} ns, {prog.energy_fj:.1f} fJ"
            in capsys.readouterr().out)
    totals = EventLedger.read_totals(out / "ledger.csv")
    assert totals["makespan_ns"] == prog.duration_ns
    assert totals["energy_fj"] == prog.energy_fj


def test_tight_window_ripple8_ledger_sums_to_the_program_cost(tmp_path):
    # ripple-8 at 600/200 ns windows needs 10 refreshes
    prog = compile_program(ripple_text(8),
                           model_cfg=ModelConfig(drt_read_ns=600, drt_logic_ns=200))
    assert prog.n_refresh == 10
    rng = np.random.default_rng(0)
    vecs = {name: rng.integers(0, 2, 64) for name in prog.inputs}
    out = cli_run(tmp_path, prog, vecs, "nominal")
    with open(out / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["start_ns"]) for r in rows] == [op.t_start_ns for op in prog.ops]
    assert sum(r["op"] == "REFRESH" for r in rows) == 10
    totals = EventLedger.read_totals(out / "ledger.csv")
    assert totals["energy_fj"] == prog.energy_fj
    assert totals["makespan_ns"] == prog.duration_ns


def test_refreshed_program_still_computes_correctly():
    prog = compile_program(aged_and_text(), model_cfg=SHORT)
    assert prog.n_refresh > 0
    vecs = exhaustive_vectors(prog.inputs)
    ideal = simulate_program(prog, vecs, mode="ideal")
    for trace in (False, True):  # a traced run simulates the array
        nom = simulate_program(prog, vecs, mode="nominal", model_cfg=SHORT, trace=trace)
        np.testing.assert_array_equal(nom.outputs["out"], ideal.outputs["out"])


def test_unrefreshed_program_fails_physically():
    # same program, refresh insertion disabled: the aged operand decays
    # below the drive threshold and the result goes wrong
    cfg = CompilerConfig(insert_refreshes=False)
    prog = compile_program(aged_and_text(), cfg, model_cfg=SHORT)
    vecs = exhaustive_vectors(prog.inputs)
    with pytest.raises(ValueError):
        simulate_program(prog, vecs, mode="nominal", model_cfg=SHORT)
    sa = SubArray(SHORT, prog.timing, rows=prog.rows, cols=prog.cols)
    nom = run_program_on_array(prog, sa, vecs)
    ideal = simulate_program(prog, vecs, mode="ideal")
    assert not np.array_equal(nom["out"][:len(vecs["a"])], ideal.outputs["out"])


def test_program_mc_failure_attribution_is_pinned():
    # pins the decay/threshold tags of program MC: 64 random vectors on a
    # ripple-8 adder, 20 trials at twice the calibrated sigmas
    prog = compile_program(ripple_text(8))
    rng = np.random.default_rng(1)
    vecs = {name: rng.integers(0, 2, 64) for name in prog.inputs}
    res = simulate_program(prog, vecs, mode="mc",
                           var_cfg=VariationConfig().scaled(2.0), n_trials=20)
    combos = res.report.combinations.values()
    assert sum(c.trials for c in combos) == 1280
    assert sum(c.successes for c in combos) == 1087
    totals = {k: sum(getattr(c, k) for c in combos)
              for k in ("decay_only", "threshold_only", "both", "other")}
    assert totals == {"decay_only": 77, "threshold_only": 2, "both": 114, "other": 0}


def test_vector_validation():
    prog = compile_program("out = a & b;")
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1]}, mode="ideal")  # missing b
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1], "b": [1], "c": [0]}, mode="ideal")
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1, 0], "b": [1]}, mode="ideal")  # ragged
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [], "b": []}, mode="ideal")
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [2], "b": [0]}, mode="ideal")
    # checked before the uint8 cast, which would truncate 0.7 and wrap -1
    for bad in ([0.7, 1], [-1, 1], [1.0, float("nan")]):
        for mode in ("ideal", "nominal"):
            with pytest.raises(ConfigError, match="input 'a' has non-bit values"):
                simulate_program(prog, {"a": bad, "b": [1, 1]}, mode=mode)
    assert simulate_program(prog, {"a": [1.0, True], "b": [1, 0]},
                            mode="nominal").outputs["out"].tolist() == [1, 0]
    wide = {"a": [0] * 65, "b": [1] * 65}
    with pytest.raises(ConfigError):
        simulate_program(prog, wide, mode="nominal")  # 65 vectors, 64 columns


def test_mode_and_trace_validation():
    prog = compile_program("out = ~a;")
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1]}, mode="fast")
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1]}, mode="ideal", trace=True)
    with pytest.raises(ConfigError):
        simulate_program(prog, {"a": [1]}, mode="mc")  # no variation config


def test_exhaustive_vectors_layout():
    vecs = exhaustive_vectors(("a", "b"))
    assert vecs == {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]}
    with pytest.raises(ConfigError):
        exhaustive_vectors(tuple("abcdefg"))  # 128 combos > 64 columns


@pytest.mark.parametrize("mode, trace", [("ideal", False), ("nominal", False),
                                         ("nominal", True), ("mc", False)])
def test_a_program_without_inputs_runs_on_one_column(mode, trace):
    prog = compile_program("o = 1;\np = ~(0 | 0);\nq = ~1;")
    assert prog.inputs == () and exhaustive_vectors(prog.inputs) == {}
    res = simulate_program(prog, {}, mode, var_cfg=VariationConfig(), n_trials=8, trace=trace)
    assert res.width == 1
    assert {name: bits.tolist() for name, bits in res.outputs.items()} == {
        name: [int(bit)] for name, bit in prog.netlist.evaluate({}).items()} == {
        "o": [1], "p": [1], "q": [0]}
    assert (res.trace is not None) == trace
    if mode == "mc":
        assert {key: c.trials for key, c in res.report.combinations.items()} == {"": 8}


def test_mc_report_aggregates_repeated_combinations():
    prog = compile_program("out = a & b;")
    vecs = {"a": [0, 0, 1], "b": [0, 0, 1]}
    res = simulate_program(
        prog, vecs, mode="mc", var_cfg=VariationConfig(), n_trials=50
    )
    combos = res.report.combinations
    assert set(combos) == {"00", "11"}
    assert combos["00"].trials == 100  # two columns carry this combo
    assert combos["11"].trials == 50
    for c in combos.values():
        assert c.decay_only + c.threshold_only + c.both + c.other == c.trials - c.successes


def test_mc_outputs_are_the_ideal_reference():
    prog = compile_program("out = a ^ b;")
    vecs = exhaustive_vectors(prog.inputs)
    res = simulate_program(
        prog, vecs, mode="mc", var_cfg=VariationConfig(), n_trials=20
    )
    np.testing.assert_array_equal(res.outputs["out"], [0, 1, 1, 0])
    assert res.report.gate == "program"


def test_mc_is_deterministic_per_seed():
    prog = compile_program("out = a & b;")
    vecs = exhaustive_vectors(prog.inputs)
    r1 = simulate_program(prog, vecs, mode="mc",
                          var_cfg=VariationConfig(), n_trials=64)
    r2 = simulate_program(prog, vecs, mode="mc",
                          var_cfg=VariationConfig(), n_trials=64)
    assert r1.report.to_json_dict() == r2.report.to_json_dict()
    # at 4x sigma the AND fails a few times in 256 columns, and seed 99
    # fails in other places than the default seed
    wide = VariationConfig().scaled(4.0)
    r4 = simulate_program(prog, vecs, mode="mc", var_cfg=wide, n_trials=64)
    r5 = simulate_program(prog, vecs, mode="mc",
                          var_cfg=dataclasses.replace(wide, seed=99), n_trials=64)
    assert r4.report.to_json_dict() != r5.report.to_json_dict()


def reference_program_mc(prog, vecs, var_cfg, n_trials):
    """Per-trial program MC: one full-size array per trial, scored one
    column at a time.  A trial's stream draws the rows the program
    touches at its full column width; the rows above them hold nominal
    cells.  Returns combination -> [successes, decay_only,
    threshold_only, both, other]."""
    model = ModelConfig()
    vectors = {n: np.asarray(vecs[n], dtype=np.uint8) for n in prog.inputs}
    width = len(vectors[prog.inputs[0]])
    ideal = simulate_program(prog, vecs, mode="ideal").outputs
    tags = {(True, False): 1, (False, True): 2, (True, True): 3, (False, False): 4}
    # (input, row) per WRITE of an input
    input_rows = [(op.source[len("input:"):], op.rows[0]) for op in prog.ops
                  if op.kind is OpKind.WRITE and op.source.startswith("input:")]
    assert sorted({n for n, _ in input_rows}) == sorted(prog.inputs)
    counts: dict[str, list[int]] = {}
    for trial in range(n_trials):
        sv = sample_params(var_cfg, rng_stream=trial, rows=rows_touched(prog),
                           cols=prog.cols, model_cfg=model)
        tau_scale = np.ones((prog.rows, prog.cols))
        drive_offset = np.zeros((prog.rows, prog.cols))
        tau_scale[:len(sv.tau_scale)] = sv.tau_scale
        drive_offset[:len(sv.drive_offset)] = sv.drive_offset
        sa = SubArray(model, prog.timing, rows=prog.rows, cols=prog.cols,
                      tau_scale=tau_scale, drive_offset=drive_offset,
                      sa_threshold=sv.sa_threshold)
        out = run_program_on_array(prog, sa, vectors)
        for c in range(width):
            key = "".join(str(vectors[n][c]) for n in prog.inputs)
            tally = counts.setdefault(key, [0, 0, 0, 0, 0])
            wrong = [name for name in ideal if out[name][c] != ideal[name][c]]
            if not wrong:
                tally[0] += 1
                continue
            fast = any(vectors[n][c] == 1 and sv.tau_scale[row, c] < 1.0
                       for n, row in input_rows)
            threshold = sv.sa_threshold[c]
            if ideal[wrong[0]][c] == 0:
                adverse = threshold < model.v_sa_read
            else:
                adverse = threshold > model.v_sa_read
            tally[tags[fast, adverse]] += 1
    return counts


def assert_batched_mc_matches_reference(prog, vecs, var_cfg, n_trials):
    res = simulate_program(prog, vecs, mode="mc", var_cfg=var_cfg, n_trials=n_trials)
    got = {key: [c.successes, c.decay_only, c.threshold_only, c.both, c.other]
           for key, c in res.report.combinations.items()}
    assert got == reference_program_mc(prog, vecs, var_cfg, n_trials)
    # some trials fail, so the failure attribution is compared too
    assert any(sum(tally[1:]) > 0 for tally in got.values())


def rows_touched(prog) -> int:
    return 1 + max(r for op in prog.ops for r in (*op.rows, op.out_row)
                   if r is not None)


def test_batched_mc_matches_per_trial_reference_on_the_top_row():
    # the constant 1 lives in row 63, so the block array keeps all 64 rows
    prog = compile_program("out = a | 1;")
    assert rows_touched(prog) == 64
    vecs = exhaustive_vectors(prog.inputs)
    assert_batched_mc_matches_reference(prog, vecs, VariationConfig().scaled(5.0), 40)


def test_batched_mc_matches_per_trial_reference_across_blocks():
    # a 2-bit ripple adder on each combination twice, so a trial spans 64
    # columns of 12 rows and 173 trials fill one block and part of a second
    prog = compile_program(ripple_text(2))
    vecs = {name: bits * 2 for name, bits in exhaustive_vectors(prog.inputs).items()}
    per_block = PROGRAM_BLOCK_CELLS // (rows_touched(prog) * 64)
    assert 1 < per_block < 200
    assert_batched_mc_matches_reference(
        prog, vecs, VariationConfig().scaled(4.0), per_block + 3)


@pytest.mark.parametrize("n_bits, scale, n_trials", [(1, 4.0, 2600), (4, 2.0, 150),
                                                    (4, 3.0, 150)])
def test_block_grouping_changes_no_result(monkeypatch, tmp_path, n_bits, scale, n_trials):
    # one trial per block, the default budget and every trial in one block
    prog = compile_program(ripple_text(n_bits))
    rng = np.random.default_rng(n_bits)
    vecs = (exhaustive_vectors(prog.inputs) if n_bits == 1
            else {name: rng.integers(0, 2, 64) for name in prog.inputs})
    cells = rows_touched(prog) * len(vecs[prog.inputs[0]])
    # by default the trials take more than one block, and fewer than one each
    assert 1 < -(-n_trials // (PROGRAM_BLOCK_CELLS // cells)) < n_trials
    results = []
    for budget in (1, PROGRAM_BLOCK_CELLS, n_trials * cells):
        monkeypatch.setattr(simulate_mod, "PROGRAM_BLOCK_CELLS", budget)
        report = simulate_program(prog, vecs, mode="mc", var_cfg=VariationConfig().scaled(scale),
                                  n_trials=n_trials).report
        report.to_json(tmp_path / "report.json")
        results.append((report.combinations, (tmp_path / "report.json").read_bytes()))
    assert results[0] == results[1] == results[2]
    assert any(c.successes < c.trials for c in results[0][0].values())


def test_program_mc_draws_depend_on_neither_the_vector_count_nor_the_block(
        monkeypatch, tmp_path):
    # a trial draws the touched rows at full width, so vector j sees the same
    # cells whether 4 or 8 vectors run, and in whichever block its trial runs
    prog = compile_program(
        "s1 = a ^ b;\nsum = s1 ^ cin;\nc1 = a & b;\nc2 = s1 & cin;\ncout = c1 | c2;")
    every = exhaustive_vectors(prog.inputs)
    first4 = {name: bits[:4] for name, bits in every.items()}
    var_cfg = VariationConfig().scaled(3.0)
    files = []
    # all 300 trials in one block, then one trial per block
    for budget in (PROGRAM_BLOCK_CELLS, rows_touched(prog) * 8):
        monkeypatch.setattr(simulate_mod, "PROGRAM_BLOCK_CELLS", budget)
        report = simulate_program(prog, every, mode="mc", var_cfg=var_cfg,
                                  n_trials=300).report
        report.to_json(tmp_path / "report.json")
        files.append((tmp_path / "report.json").read_bytes())
    assert files[0] == files[1]
    part = simulate_program(prog, first4, mode="mc", var_cfg=var_cfg, n_trials=300).report
    assert list(part.combinations) == ["000", "001", "010", "011"]
    for key, got in part.combinations.items():
        assert got == report.combinations[key]
    assert any(c.successes < c.trials for c in part.combinations.values())


def test_program_mc_memory_follows_the_block_not_the_run():
    # 40 ripple-8 trials run as one part-filled block, 400 and 4,000 fill
    # blocks of 68 trials: a draw lives only until it is copied into its
    # block, and a block's masks only until they are counted, so ten times
    # the trials take no more memory
    prog = compile_program(ripple_text(8))
    rng = np.random.default_rng(8)
    vecs = {name: rng.integers(0, 2, 64) for name in prog.inputs}
    var_cfg = VariationConfig()
    simulate_program(prog, vecs, mode="mc", var_cfg=var_cfg, n_trials=1)  # caches the replay
    peaks = {}
    for n_trials in (40, 400, 4000):
        tracemalloc.start()
        try:
            simulate_program(prog, vecs, mode="mc", var_cfg=var_cfg, n_trials=n_trials)
            peaks[n_trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= peaks[400]
    assert abs(peaks[4000] - peaks[400]) < 0.1 * peaks[400], peaks


def test_batched_mc_matches_per_trial_reference_with_anonymous_ops():
    # a second WRITE of input a, an anonymous NOT of it and an unnamed READ
    # ride along with a compiled XOR; the extra row is the highest one touched
    base = compile_program("out = a ^ b;")
    extra = [MicroOp(OpKind.WRITE, (40,), source="input:a"),
             MicroOp(OpKind.LOGIC, (40,), out_row=41),
             MicroOp(OpKind.READ, (41,))]

    def stamped(ops):  # back to back from t=0
        starts = accumulate((TIM.duration_ns(op.kind) for op in ops), initial=0)
        return tuple(dataclasses.replace(op, t_start_ns=t) for op, t in zip(ops, starts))

    prog = dataclasses.replace(base, ops=stamped(extra + list(base.ops)))
    assert rows_touched(prog) == 42
    vecs = exhaustive_vectors(prog.inputs)
    assert_batched_mc_matches_reference(prog, vecs, VariationConfig().scaled(5.0), 60)

    # array column j holds vector j, and the columns past the 4 vectors
    # hold all-zero inputs: a ^ b = 0 and ~a = 1 there
    named = dataclasses.replace(
        prog, ops=(*prog.ops[:2], dataclasses.replace(prog.ops[2], output="not_a"),
                   *prog.ops[3:]))
    sa = SubArray(ModelConfig(), TIM, rows=42, cols=8)
    out = run_program_on_array(named, sa, {n: np.array(v) for n, v in vecs.items()})
    np.testing.assert_array_equal(out["out"], [0, 1, 1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(out["not_a"], [1, 1, 0, 0, 1, 1, 1, 1])


def test_mc_ledger_is_the_nominal_ledger(tmp_path, capsys):
    prog = compile_program(aged_and_text(), model_cfg=SHORT)
    assert prog.n_refresh > 0
    vecs = exhaustive_vectors(prog.inputs)
    nom = cli_run(tmp_path, prog, vecs, "nominal", SHORT)
    mc = cli_run(tmp_path, prog, vecs, "mc", SHORT, trials=3)
    assert (mc / "ledger.csv").read_bytes() == (nom / "ledger.csv").read_bytes()
    totals = EventLedger.read_totals(mc / "ledger.csv")
    assert totals["energy_fj"] == prog.energy_fj
    assert totals["makespan_ns"] == prog.duration_ns
    assert f"mc run: 4 vectors, {prog.duration_ns} ns, " in capsys.readouterr().out
