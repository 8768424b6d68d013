"""Array-level checks: op semantics, timing, energy, and the event ledger.

Energy references are hand-multiplied from the per-column op costs and a
64-column row; they do not come from the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpim.charge import ConfigError, ModelConfig
from gcpim.subarray import (
    LEDGER_CSV_HEADER,
    EventLedger,
    LedgerEntry,
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
            ([0], -1, IndexError, "row -1 out of range [0, 8)"),
            ([], 1, ValueError, "LOGIC op needs at least one row"),
            ([-1], 1, ValueError, "negative row in (-1,)")):
        with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")
                           .replace("[", r"\[")):
            sa.exec_logic(in_rows, out_row, 0)
    # a MicroOp is checked when built; the array then checks only bounds
    op = MicroOp(OpKind.LOGIC, (0, 8), out_row=1)
    with pytest.raises(IndexError, match=r"row 8 out of range \[0, 8\)"):
        sa.run([op], None)
    with pytest.raises(IndexError, match=r"row -1 out of range \[0, 8\)"):
        sa.run([MicroOp(OpKind.LOGIC, (0,), out_row=-1)], None)


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


def test_refresh_all_duration():
    sa = SubArray(CFG)
    refreshes = [MicroOp(OpKind.REFRESH, (r,), t_start_ns=4 * r) for r in range(64)]
    assert sa.run(refreshes, write_bits=None) == []
    # row r is valid again at the end of its own refresh, 4 * (r + 1) ns
    np.testing.assert_array_equal(sa.last_update, 4 * np.arange(1, 65))
    assert sa.last_update.max() == 256
    ledger = EventLedger.from_ops(refreshes, TIM, 64)
    assert [e.op for e in ledger] == [OpKind.REFRESH.value] * 64
    assert ledger.makespan_ns() == 256


def test_op_energies_against_hand_totals():
    ledger = EventLedger.from_ops([
        MicroOp(OpKind.WRITE, (0,), bits=tuple(bits("1")), t_start_ns=0),
        MicroOp(OpKind.WRITE, (1,), bits=tuple(bits("0")), t_start_ns=1),
        MicroOp(OpKind.LOGIC, (0,), out_row=3, t_start_ns=2),      # NOT
        MicroOp(OpKind.LOGIC, (0, 1), out_row=4, t_start_ns=5),    # NOR
        MicroOp(OpKind.REFRESH, (0,), t_start_ns=8),
        MicroOp(OpKind.READ, (4,), t_start_ns=12),
    ], TIM, 64)
    energies = [e.energy_fj for e in ledger.entries]
    assert energies == pytest.approx(
        [E_WRITE_ROW, E_WRITE_ROW, E_NOT_ROW, E_NOR_ROW, E_REFRESH_ROW, E_READ_ROW]
    )
    assert ledger.total_energy_fj() == pytest.approx(
        2 * E_WRITE_ROW + E_NOT_ROW + E_NOR_ROW + E_REFRESH_ROW + E_READ_ROW
    )


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
    led = EventLedger()
    led.append(LedgerEntry(5, 3, "READ", (0,), 64, E_READ_ROW))
    with pytest.raises(ValueError):
        led.append(LedgerEntry(4, 1, "WRITE", (1,), 64, E_WRITE_ROW))


def test_ledger_csv_roundtrip(tmp_path):
    ledger = EventLedger.from_ops([
        MicroOp(OpKind.WRITE, (0,), bits=tuple(bits("1")), t_start_ns=0),
        MicroOp(OpKind.LOGIC, (0,), out_row=2, t_start_ns=1),
        MicroOp(OpKind.READ, (2,), t_start_ns=4),
    ], TIM, 64)
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    rows = EventLedger.read_csv_rows(path)
    assert [r["op"] for r in rows] == ["WRITE", "LOGIC", "READ"]
    assert rows[1]["rows"] == "0>2"
    assert sum(r["energy_fj"] for r in rows) == pytest.approx(
        ledger.total_energy_fj()
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
        MicroOp(kind=OpKind.WRITE, rows=(0, 1), bits=(0,) * 64)  # multi-row write
    with pytest.raises(ValueError):
        MicroOp(kind=OpKind.LOGIC, rows=(0,))  # missing output row
    with pytest.raises(ValueError):
        MicroOp(kind=OpKind.READ, rows=())


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
