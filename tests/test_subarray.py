"""Array-level checks: op semantics, timing, energy, and the event ledger.

Energy references are hand-multiplied from the per-column op costs and a
64-column row; they do not come from the code under test.
"""

import dataclasses
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcpim.charge import ConfigError, ModelConfig
from gcpim.compiler.netlist import Node
from gcpim.subarray import (
    LEDGER_CSV_HEADER,
    EventLedger,
    MicroOp,
    OpKind,
    SubArray,
    TimingEnergyConfig,
)

CFG = ModelConfig()
TIM = TimingEnergyConfig()

# 64 columns switching at once
E_WRITE_ROW = 64 * 5.7    # 364.8
E_READ_ROW = 64 * 13.3    # 851.2
E_NOT_ROW = 64 * 13.4     # 857.6
E_NOR_ROW = 64 * 13.5     # 864.0
E_REFRESH_ROW = E_READ_ROW + E_WRITE_ROW


def bits(pattern: str) -> np.ndarray:
    """'10' tiled across 64 columns."""
    reps = -(-64 // len(pattern))
    return np.array([int(c) for c in (pattern * reps)[:64]], dtype=np.uint8)


def test_write_then_immediate_read_roundtrip():
    sa = SubArray(CFG)
    data = bits("1100")
    sa.write_row(3, data, t_now=0)
    got = sa.read_row(3, t_now=1)
    np.testing.assert_array_equal(got, data)


def test_written_levels_are_full_rail():
    sa = SubArray(CFG)
    sa.write_row(0, bits("10"), t_now=0)
    assert sa.voltage[0, 0] == CFG.vdd
    assert sa.voltage[0, 1] == 0.0
    assert sa.last_update[0] == 1  # end of the write pulse


def test_read_folds_decay_into_state():
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    sa.read_row(0, t_now=5001)
    assert sa.last_update[0] == 5001
    assert sa.voltage[0, 0] == pytest.approx(
        CFG.vdd * math.exp(-5000 / CFG.tau_ns), rel=1e-12
    )


def test_read_is_nondestructive():
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    first = sa.read_row(0, t_now=1)
    second = sa.read_row(0, t_now=1)
    np.testing.assert_array_equal(first, second)


def test_retention_loss_at_the_read_window():
    # a stored '1' is still readable up to the retention limit and lost
    # within a couple of ns after it (float rounding puts the crossing
    # just past the analytic instant)
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    assert sa.read_row(0, t_now=15000)[0] == 1
    sa2 = SubArray(CFG)
    sa2.write_row(0, bits("1"), t_now=0)
    assert sa2.read_row(0, t_now=15002)[0] == 0


def test_not_gate_truth_column():
    sa = SubArray(CFG)
    sa.write_row(0, bits("10"), t_now=0)
    sa.exec_logic([0], 5, t_now=1)
    got = sa.read_row(5, t_now=4)
    np.testing.assert_array_equal(got, 1 - bits("10"))


def test_nor_gate_truth_columns():
    sa = SubArray(CFG)
    sa.write_row(0, bits("0101"), t_now=0)
    sa.write_row(1, bits("0011"), t_now=1)
    sa.exec_logic([0, 1], 7, t_now=2)
    got = sa.read_row(7, t_now=5)
    expect = np.array([1, 0, 0, 0] * 16, dtype=np.uint8)
    np.testing.assert_array_equal(got, expect)


def test_three_input_nor():
    sa = SubArray(CFG)
    sa.write_row(0, bits("01010101"), t_now=0)
    sa.write_row(1, bits("00110011"), t_now=1)
    sa.write_row(2, bits("00001111"), t_now=2)
    sa.exec_logic([0, 1, 2], 9, t_now=3)
    got = sa.read_row(9, t_now=6)
    expect = np.array([1, 0, 0, 0, 0, 0, 0, 0] * 8, dtype=np.uint8)
    np.testing.assert_array_equal(got, expect)


def test_logic_output_levels_fresh_input():
    # one fresh '1' input: output pulled to just above the floor; the
    # only decay is the single ns between write end and evaluation
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    sa.exec_logic([0], 3, t_now=1)
    assert sa.voltage[3, 0] == pytest.approx(
        0.04504938559555649, rel=1e-12
    )
    # quiet input: output stays precharged at the rail
    sa.write_row(1, bits("0"), t_now=4)
    sa.exec_logic([1], 4, t_now=5)
    assert sa.voltage[4, 0] == CFG.vdd


def test_logic_inputs_are_undisturbed():
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    sa.exec_logic([0], 3, t_now=1)
    # input cell keeps decaying from its write instant; no extra kick
    assert sa.last_update[0] == 1
    assert sa.voltage[0, 0] == CFG.vdd  # stored level still referenced to t=1


def reference_logic(sa: SubArray, tau_scale: np.ndarray, drive_offset: np.ndarray,
                    in_rows, t_eval: int) -> np.ndarray:
    """The output row as the per-row kernels composed the gate before the
    one-step kernel: decay each input row, clamp its drive, add the drives
    from zero in row order, then the ``np.where`` residual."""
    m = sa.model
    total = np.zeros(sa.cols)
    for r in in_rows:
        dt = t_eval - sa.last_update[r]
        level = sa.voltage[r] * np.exp(-dt / (m.tau_ns * tau_scale[r]))
        total += np.maximum(0.0, np.asarray(level, dtype=float)
                            - (m.v_t_drive + drive_offset[r]))
    pull = np.minimum(1.0, total / (m.vdd - m.v_t_drive))
    return np.where(total > 0.0, m.vdd - (m.vdd - m.v_residual_floor) * pull, m.vdd)


@given(
    arity=st.integers(1, 8),
    cols=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(
        [CFG, ModelConfig(vdd=1.0, v_sa_read=0.5, v_t_drive=0.3,
                          v_residual_floor=0.1, drt_read_ns=800, drt_logic_ns=300).calibrated()]),
    via_run=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_logic_kernel_matches_the_per_row_composition_bit_for_bit(
        arity, cols, seed, model, via_run):
    rng = np.random.default_rng(seed)
    rows = arity + 1 + int(rng.integers(0, 4))
    tau_scale = rng.lognormal(0.0, rng.uniform(0.0, 0.5), (rows, cols))
    drive_offset = rng.normal(0.0, rng.uniform(0.0, 0.1), (rows, cols))
    sa = SubArray(model, rows=rows, cols=cols, tau_scale=tau_scale,
                  drive_offset=drive_offset)
    # stored levels anywhere from 0 V to the rail, some exactly at either
    sa.voltage[:] = rng.choice([0.0, model.vdd, *rng.uniform(0, model.vdd, 6)], (rows, cols))
    t_now = int(rng.integers(0, 40000))
    sa.last_update[:] = rng.integers(0, t_now + 2, rows)  # ages 0 .. t_now + 1
    picked = rng.permutation(rows)
    in_rows, out_row = tuple(int(r) for r in picked[:arity]), int(picked[arity])
    want = reference_logic(sa, tau_scale, drive_offset, in_rows, t_now + TIM.t_init_ns)
    if via_run:
        sa.run([MicroOp(OpKind.LOGIC, in_rows, out_row=out_row, t_start_ns=t_now)], None)
    else:
        sa.exec_logic(list(in_rows), out_row, t_now)
    assert sa.voltage[out_row].tobytes() == want.tobytes()
    assert sa.last_update[out_row] == t_now + TIM.t_logic_ns


def test_logic_checks_rows_on_both_paths():
    sa = SubArray(CFG, rows=8, cols=4)
    for in_rows, out_row, error, message in (
            ([0, 8], 1, IndexError, "row 8 out of range [0, 8)"),
            ([0], 8, IndexError, "row 8 out of range [0, 8)"),
            ([0], -1, ValueError, "negative row -1 as the output"),
            ([], 1, ValueError, "LOGIC op needs at least one row"),
            ([-1], 1, ValueError, "negative row in (-1,)")):
        with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")
                           .replace("[", r"\[")):
            sa.exec_logic(in_rows, out_row, 0)
    # a MicroOp is checked when built; the array then checks only bounds
    op = MicroOp(OpKind.LOGIC, (0, 8), out_row=1)
    with pytest.raises(IndexError, match=r"row 8 out of range \[0, 8\)"):
        sa.run([op], None)
    for in_rows, out_row, message in (((0,), -1, "negative row -1 as the output"),
                                      ((-1,), 1, r"negative row in \(-1,\)")):
        with pytest.raises(ValueError, match=message):
            MicroOp(OpKind.LOGIC, in_rows, out_row=out_row)


def test_logic_rejects_overlapping_rows():
    sa = SubArray(CFG)
    with pytest.raises(ValueError):
        sa.exec_logic([2, 3], 2, t_now=0)
    with pytest.raises(ValueError):
        sa.exec_logic([2, 2], 5, t_now=0)


def test_refresh_restores_full_level():
    sa = SubArray(CFG)
    sa.write_row(0, bits("10"), t_now=0)
    got = sa.refresh_row(0, t_now=10000)
    np.testing.assert_array_equal(got, bits("10"))
    assert sa.voltage[0, 0] == CFG.vdd
    assert sa.last_update[0] == 10004
    # a refreshed '1' survives another full read window
    assert sa.read_row(0, t_now=10004 + 14999)[0] == 1


def test_refresh_too_late_loses_the_bit():
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    sa.refresh_row(0, t_now=16000)  # past the read retention window
    assert sa.read_row(0, t_now=16005)[0] == 0


def ledger_rows(tmp_path, ops) -> list[dict]:
    """The rows ``to_csv`` writes for a 64-column ledger of ``ops``."""
    path = tmp_path / "ledger.csv"
    EventLedger(TIM, 64, ops).to_csv(path)
    return EventLedger.read_csv_rows(path)


def test_refresh_is_a_read_then_a_write_back(monkeypatch):
    calls = []
    for name in ("read_row", "write_row"):
        def recorded(self, *args, _name=name, _method=getattr(SubArray, name)):
            calls.append((_name, args[0], args[-1]))
            return _method(self, *args)
        monkeypatch.setattr(SubArray, name, recorded)
    sa = SubArray(CFG, trace=True)
    sa.write_row(0, bits("10"), 0)
    level = sa._row_voltage_at(0, 100)
    calls.clear()
    np.testing.assert_array_equal(sa.refresh_row(0, 100), bits("10"))
    # the write-back starts when the 3 ns read ends and ends at 104 ns
    assert calls == [("read_row", 0, 100), ("write_row", 0, 103)]
    assert sa.last_update[0] == 104
    (t0, _, sensed), (t1, _, restored) = sa.trace_rows[-2:]
    assert (t0, t1) == (100, 104)
    np.testing.assert_array_equal(sensed, level)
    np.testing.assert_array_equal(restored, bits("10") * CFG.vdd)


def test_run_resolves_each_write_source():
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    ops = [MicroOp(OpKind.WRITE, (0,), source="input:x", t_start_ns=0),
           MicroOp(OpKind.WRITE, (1,), source="const:1", t_start_ns=1),
           MicroOp(OpKind.WRITE, (2,), source="const:0", t_start_ns=2),
           *(MicroOp(OpKind.READ, (r,), t_start_ns=3 + 3 * r) for r in range(3))]
    # an input holds one bit per array column
    reads = SubArray(CFG, rows=3, cols=4).run(ops, {"x": x})
    assert [r.tolist() for r in reads] == [x.tolist(), [1] * 4, [0] * 4]
    for source, inputs in (("input:y", {"x": x}), ("input:x", None), ("const:7", None),
                           ("row:2", None)):
        op = MicroOp(OpKind.WRITE, (0,), source=source)
        with pytest.raises(ConfigError, match=f"unknown write source '{source}'"):
            SubArray(CFG, rows=4, cols=4).run([op], inputs)


def test_refresh_all_duration(tmp_path):
    sa = SubArray(CFG)
    refreshes = [MicroOp(OpKind.REFRESH, (r,), t_start_ns=4 * r) for r in range(64)]
    assert sa.run(refreshes) == []
    # row r is valid again at the end of its own refresh, 4 * (r + 1) ns
    np.testing.assert_array_equal(sa.last_update, 4 * np.arange(1, 65))
    assert sa.last_update.max() == 256
    rows = ledger_rows(tmp_path, refreshes)
    assert [r["op"] for r in rows] == [OpKind.REFRESH.value] * 64
    assert max(r["start_ns"] + r["duration_ns"] for r in rows) == 256


def test_op_energies_against_hand_totals(tmp_path):
    rows = ledger_rows(tmp_path, [
        MicroOp(OpKind.WRITE, (0,), source="const:1", t_start_ns=0),
        MicroOp(OpKind.WRITE, (1,), source="const:0", t_start_ns=1),
        MicroOp(OpKind.LOGIC, (0,), out_row=3, t_start_ns=2),      # NOT
        MicroOp(OpKind.LOGIC, (0, 1), out_row=4, t_start_ns=5),    # NOR
        MicroOp(OpKind.REFRESH, (0,), t_start_ns=8),
        MicroOp(OpKind.READ, (4,), t_start_ns=12),
    ])
    energies = [r["energy_fj"] for r in rows]
    assert energies == pytest.approx(
        [E_WRITE_ROW, E_WRITE_ROW, E_NOT_ROW, E_NOR_ROW, E_REFRESH_ROW, E_READ_ROW]
    )
    assert sum(energies) == pytest.approx(
        2 * E_WRITE_ROW + E_NOT_ROW + E_NOR_ROW + E_REFRESH_ROW + E_READ_ROW
    )
    assert [(r["start_ns"], r["duration_ns"], r["rows"]) for r in rows] == [
        (0, 1, "0"), (1, 1, "1"), (2, 3, "0>3"), (5, 3, "0+1>4"), (8, 4, "0"), (12, 3, "4")]


def test_op_durations():
    assert TIM.duration_ns(OpKind.WRITE) == 1
    assert TIM.duration_ns(OpKind.READ) == 3
    assert TIM.duration_ns(OpKind.LOGIC) == 3
    assert TIM.duration_ns(OpKind.REFRESH) == 4
    assert TIM.t_logic_ns == TIM.t_init_ns + TIM.t_eval_ns


def test_wide_nor_energy_uses_nor_rate():
    # arity follows the input count, not the total row count
    assert TIM.energy_fj(OpKind.LOGIC, 1, 64) == pytest.approx(E_NOT_ROW)
    assert TIM.energy_fj(OpKind.LOGIC, 2, 64) == pytest.approx(E_NOR_ROW)
    assert TIM.energy_fj(OpKind.LOGIC, 3, 64) == pytest.approx(E_NOR_ROW)
    assert TIM.energy_fj(OpKind.READ, 1, 1) == pytest.approx(13.3)


def test_ledger_requires_time_order():
    read = MicroOp(OpKind.READ, (0,), t_start_ns=5)
    write = MicroOp(OpKind.WRITE, (1,), source="const:1", t_start_ns=4)
    led = EventLedger(TIM, 64, [read])
    with pytest.raises(ValueError, match="start-time order: 4 after 5"):
        led.append(write)
    assert led.ops == [read]
    with pytest.raises(ValueError, match="start-time order"):
        EventLedger(TIM, 64, [read, write])
    # ops that start together are in order
    led.append(MicroOp(OpKind.READ, (1,), t_start_ns=5))


def test_ledger_csv_roundtrip(tmp_path):
    rows = ledger_rows(tmp_path, [
        MicroOp(OpKind.WRITE, (0,), source="const:1", t_start_ns=0),
        MicroOp(OpKind.LOGIC, (0,), out_row=2, t_start_ns=1),
        MicroOp(OpKind.READ, (2,), t_start_ns=4),
    ])
    assert [r["op"] for r in rows] == ["WRITE", "LOGIC", "READ"]
    assert rows[1]["rows"] == "0>2"
    assert sum(r["energy_fj"] for r in rows) == pytest.approx(
        E_WRITE_ROW + E_NOT_ROW + E_READ_ROW
    )
    # rejects CSVs that are not ledgers
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        EventLedger.read_csv_rows(other)
    assert EventLedger.read_csv_rows.__doc__  # format is documented
    assert rows[0].keys() == {k: 0 for k in LEDGER_CSV_HEADER}.keys()


def test_trace_records_precharge_and_settle():
    sa = SubArray(CFG, trace=True)
    sa.write_row(0, bits("1"), t_now=0)
    sa.exec_logic([0], 2, t_now=1)
    sa.write_row(2, bits("1"), t_now=4)  # a record keeps its own copy
    assert all(values.shape == (64,) for _, _, values in sa.trace_rows)
    samples = {(t, row): values for t, row, values in sa.trace_rows}
    # output cell: precharged to the rail at the end of phase 1, then
    # discharged to the residual by the end of phase 2
    assert samples[(2, 2)][0] == CFG.vdd
    assert samples[(4, 2)][0] == pytest.approx(0.04504938559555649, rel=1e-12)
    assert samples[(5, 2)][0] == CFG.vdd


def test_trace_off_is_empty():
    sa = SubArray(CFG)
    sa.write_row(0, bits("1"), t_now=0)
    assert sa.trace_rows is None


def test_per_column_threshold_is_respected():
    thr = np.full(64, CFG.v_sa_read)
    thr[7] = 0.95  # impossible threshold: that column always reads 0
    sa = SubArray(CFG, sa_threshold=thr)
    sa.write_row(0, np.ones(64, dtype=np.uint8), t_now=0)
    got = sa.read_row(0, t_now=1)
    assert got[7] == 0
    assert got.sum() == 63


def test_microop_validation():
    with pytest.raises(ValueError):
        MicroOp(kind=OpKind.WRITE, rows=(0, 1), source="const:0")  # multi-row write
    with pytest.raises(ValueError, match="WRITE needs a source"):
        MicroOp(kind=OpKind.WRITE, rows=(0,))
    with pytest.raises(ValueError):
        MicroOp(kind=OpKind.LOGIC, rows=(0,))  # missing output row
    with pytest.raises(ValueError):
        MicroOp(kind=OpKind.READ, rows=())
    # a ledger row with a negative start is malformed, so the op is too
    with pytest.raises(ValueError, match="READ op starts at a negative time -3ns"):
        MicroOp(kind=OpKind.READ, rows=(0,), t_start_ns=-3)


def oracle_check_rows(kind, rows, out_row):
    """Oracle: the row rules every MicroOp and direct ``exec_logic`` call
    ran before construction let a well-formed op through one test."""
    if len(rows) == 0:
        raise ValueError(f"{kind.value} op needs at least one row")
    if any(r < 0 for r in rows):
        raise ValueError(f"negative row in {rows}")
    if out_row is not None and out_row < 0:
        raise ValueError(f"negative row {out_row} as the output")
    if kind is OpKind.LOGIC:
        if out_row is None:
            raise ValueError("LOGIC op needs an output row")
        if out_row in rows:
            raise ValueError(f"in-place logic is undefined: output row {out_row} "
                             "is also an input")
        if len(set(rows)) != len(rows):
            raise ValueError(f"duplicate input rows in {rows}")
    else:
        if len(rows) != 1:
            raise ValueError(f"{kind.value} op takes exactly one row")
        if out_row is not None:
            raise ValueError(f"{kind.value} op has no output row")


def oracle_op_checks(kind, rows, out_row, source, node, output):
    """Oracle: every check MicroOp construction ran, in the same order."""
    oracle_check_rows(kind, rows, out_row)
    if kind is OpKind.WRITE:
        if source is None:
            raise ValueError("WRITE needs a source")
    elif source is not None:
        raise ValueError(f"{kind.value} op carries no data")
    if node is not None and kind is not OpKind.LOGIC:
        raise ValueError(f"{kind.value} op computes no node")
    if output is not None and kind is not OpKind.READ:
        raise ValueError(f"{kind.value} op senses no output")


def outcome(fn, *args):
    """None if ``fn(*args)`` returns, else the exception's type and text."""
    try:
        fn(*args)
    except Exception as exc:  # the comparison is over every error
        return type(exc), str(exc)
    return None


def _maybe(values):
    return st.none() | values


@given(kind=st.sampled_from(OpKind),
       rows=st.lists(st.integers(-2, 6), max_size=4).map(tuple),
       out_row=_maybe(st.integers(-2, 6)),
       source=_maybe(st.sampled_from(["const:1", "input:a"])),
       node=_maybe(st.integers(0, 9)),
       output=_maybe(st.sampled_from(["s", "c"])))
@settings(max_examples=500, deadline=None)
def test_microop_construction_checks_what_the_oracle_checks(kind, rows, out_row, source,
                                                           node, output):
    fields = (kind, rows, out_row, source, node, output)
    expected = outcome(oracle_op_checks, *fields)
    assert outcome(lambda: MicroOp(kind, rows, out_row, source, 7, node, output)) == expected
    if expected is None:
        op = MicroOp(kind, rows, out_row, source, 7, node, output)
        assert (op.kind, op.rows, op.out_row, op.source, op.t_start_ns, op.node,
                op.output) == (kind, rows, out_row, source, 7, node, output)
    # the direct gate path checks the rows alone; all of them fit the array
    sa = SubArray(CFG, rows=8, cols=2)
    assert (outcome(sa.exec_logic, list(rows), out_row, 0)
            == outcome(oracle_check_rows, OpKind.LOGIC, rows, out_row))


@dataclass(frozen=True)
class ParentMicroOp:
    """Oracle: the op record before its hand-written constructor, a plain
    frozen dataclass whose ``__post_init__`` ran the checks."""

    kind: OpKind
    rows: tuple
    out_row: object = None
    source: object = None
    t_start_ns: int = 0
    node: object = None
    output: object = None

    def __post_init__(self) -> None:
        kind = self.kind
        oracle_check_rows(kind, self.rows, self.out_row)
        if self.t_start_ns < 0:
            raise ValueError(f"{kind.value} op starts at a negative time {self.t_start_ns}ns")
        if (self.source is None) == (kind is OpKind.WRITE):
            raise ValueError("WRITE needs a source" if kind is OpKind.WRITE
                             else f"{kind.value} op carries no data")
        if self.node is not None and kind is not OpKind.LOGIC:
            raise ValueError(f"{kind.value} op computes no node")
        if self.output is not None and kind is not OpKind.READ:
            raise ValueError(f"{kind.value} op senses no output")


def built(cls, *fields):
    """The op's fields, or the type and text of the error building it raised."""
    try:
        return astuple_of(cls(*fields))
    except Exception as exc:  # the comparison is over every error
        return type(exc), str(exc)


def astuple_of(op):
    return (op.kind, op.rows, op.out_row, op.source, op.t_start_ns, op.node, op.output)


@given(kind=st.sampled_from(OpKind),
       rows=st.lists(st.integers(-2, 6), max_size=4).map(tuple),
       out_row=_maybe(st.integers(-2, 6)),
       source=_maybe(st.sampled_from(["const:1", "input:a"])),
       t_start_ns=st.integers(-3, 9),
       node=_maybe(st.integers(0, 9)),
       output=_maybe(st.sampled_from(["s", "c"])))
@settings(max_examples=800, deadline=None)
# one case per rule the fast test must not let through
@example(OpKind.LOGIC, (2, 2), 5, None, 0, 1, None)      # duplicate inputs
@example(OpKind.LOGIC, (1, 2), 1, None, 0, 1, None)      # in place, on either input
@example(OpKind.LOGIC, (1, 2), 2, None, 0, 1, None)
@example(OpKind.LOGIC, (3,), 3, None, 0, 1, None)        # NOT in place
@example(OpKind.LOGIC, (-1, 2), 3, None, 0, 1, None)     # a negative input
@example(OpKind.LOGIC, (1, -1, 2), 5, None, 0, 1, None)  # wider gates: the middle input
@example(OpKind.LOGIC, (1, 5, 2), 5, None, 0, 1, None)
@example(OpKind.LOGIC, (1, 2, 2), 5, None, 0, 1, None)
@example(OpKind.LOGIC, (1, 2), -1, None, 0, 1, None)     # a negative output
@example(OpKind.LOGIC, (1, 2), None, None, 0, 1, None)   # no output row
@example(OpKind.WRITE, (1, 2), None, "const:1", 0, None, None)
@example(OpKind.READ, (1,), 2, None, 0, None, "s")       # a READ with an output row
@example(OpKind.REFRESH, (-2,), None, None, 0, None, None)
@example(OpKind.READ, (1,), None, None, -1, None, "s")   # a negative start
def test_microop_constructor_matches_the_post_init_oracle(kind, rows, out_row, source,
                                                          t_start_ns, node, output):
    fields = (kind, rows, out_row, source, t_start_ns, node, output)
    expected = built(ParentMicroOp, *fields)
    assert built(MicroOp, *fields) == expected
    by_keyword = dict(zip(("kind", "rows", "out_row", "source", "t_start_ns", "node",
                           "output"), fields))
    assert built(lambda: MicroOp(**by_keyword)) == expected
    if isinstance(expected[0], OpKind):  # valid: a restamp moves the start alone
        op = MicroOp(*fields)
        assert op == MicroOp(*fields) and hash(op) == hash(MicroOp(*fields))
        assert astuple_of(op.restamped(t_start_ns + 5)) == (*fields[:4], t_start_ns + 5,
                                                          *fields[5:])


def test_replace_still_validates():
    op = MicroOp(OpKind.LOGIC, (0, 1), 2, t_start_ns=4, node=3)
    assert dataclasses.replace(op, t_start_ns=9) == MicroOp(OpKind.LOGIC, (0, 1), 2,
                                                            t_start_ns=9, node=3)
    with pytest.raises(ValueError, match="LOGIC op starts at a negative time -1ns"):
        dataclasses.replace(op, t_start_ns=-1)
    with pytest.raises(ValueError, match="in-place logic is undefined"):
        dataclasses.replace(op, out_row=1)
    with pytest.raises(ValueError, match="READ op computes no node"):
        dataclasses.replace(op, kind=OpKind.READ, rows=(2,), out_row=None)


def test_ops_stay_frozen_and_hashable():
    op = MicroOp(OpKind.WRITE, (3,), source="input:a", t_start_ns=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.t_start_ns = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del op.rows
    assert not hasattr(op, "__dict__")
    twin = MicroOp(OpKind.WRITE, (3,), source="input:a", t_start_ns=1)
    assert op == twin and hash(op) == hash(twin) and len({op, twin}) == 1
    assert op != MicroOp(OpKind.WRITE, (3,), source="input:b", t_start_ns=1)
    for each in (MicroOp(OpKind.WRITE, (3,), source="const:1", t_start_ns=1),
                 MicroOp(OpKind.LOGIC, (0, 4), 2, t_start_ns=6, node=9),
                 MicroOp(OpKind.READ, (2,), t_start_ns=9, output="s"),
                 MicroOp(OpKind.REFRESH, (5,), t_start_ns=13)):
        moved = each.restamped(each.t_start_ns + 8)
        assert moved == dataclasses.replace(each, t_start_ns=each.t_start_ns + 8) != each
        assert each.restamped(each.t_start_ns) == each
    assert repr(op) == ("MicroOp(kind=<OpKind.WRITE: 'WRITE'>, rows=(3,), out_row=None, "
                        "source='input:a', t_start_ns=1, node=None, output=None)")


def bytes_per_instance(make, n=2000) -> float:
    rows = (1, 2)  # shared, so only the instances count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [make(rows, t) for t in range(n)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == n
    return used / n


def test_an_op_takes_no_more_memory_than_a_plain_frozen_dataclass():
    logic = OpKind.LOGIC
    slotted = bytes_per_instance(lambda rows, t: MicroOp(logic, rows, 5, None, t, 7))
    plain = bytes_per_instance(lambda rows, t: ParentMicroOp(logic, rows, 5, None, t, 7))
    assert slotted <= plain, (slotted, plain)


def test_node_equality_is_unchanged():
    nor = Node("nor", (1, 2))
    assert nor == Node("nor", args=(1, 2)) and hash(nor) == hash(Node("nor", (1, 2)))
    assert nor != Node("nor", (1, 3)) and nor != Node("nor", (1, 2), value=0)
    assert Node("input", name="a") == Node("input", (), "a", None)
    assert Node("input", name="a") != Node("input", name="b")
    assert nor != ("nor", (1, 2), None, None)  # a dataclass equals its own class only
    assert repr(nor) == "Node(op='nor', args=(1, 2), name=None, value=None)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        nor.args = ()


def test_dimension_validation():
    with pytest.raises(ConfigError):
        SubArray(CFG, rows=0)
    with pytest.raises(ConfigError):
        SubArray(CFG, tau_scale=np.ones((2, 2)))


@given(
    data=st.integers(0, 2**16 - 1),
    age=st.integers(1, 14000),
)
@settings(max_examples=60, deadline=None)
def test_refresh_preserves_readable_data(data, age):
    # any pattern refreshed inside the retention window is preserved
    pattern = np.array([(data >> i) & 1 for i in range(16)] * 4, dtype=np.uint8)
    sa = SubArray(CFG)
    sa.write_row(0, pattern, t_now=0)
    got = sa.refresh_row(0, t_now=age)
    np.testing.assert_array_equal(got, pattern)
