"""End-to-end acceptance scorecard.

Nine independent checks covering logic correctness, retention physics,
refresh cost, the energy ledger, variation statistics, expression
compilation at scale, refresh scheduling under stress, and artifact
determinism.  Each check prints one PASS/FAIL verdict line (through the
capture bypass, so the scorecard is visible in any pytest run).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gcpim.charge import ModelConfig
from gcpim.cli import main as cli_main
from gcpim.compiler import (
    CompilerConfig,
    compile_program,
    exhaustive_vectors,
    run_program_on_array,
    simulate_program,
)
from gcpim.compiler.program import audit_refresh_safety
from gcpim.montecarlo import VariationConfig, run_gate_campaign
from gcpim.subarray import EventLedger, MicroOp, OpKind, SubArray, TimingEnergyConfig

MODEL = ModelConfig()
TIM = TimingEnergyConfig()


@contextmanager
def scored(capsys, label):
    """Print one verdict line per check, win or lose."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"[PASS] {label}", flush=True)


def _run_nominal(source, expect):
    """Compile, simulate every input combination, compare to a pure
    boolean reference given as {output: fn(env) -> bit}."""
    prog = compile_program(source)
    vectors = exhaustive_vectors(prog.inputs)
    res = simulate_program(prog, vectors, mode="nominal")
    width = 1 << len(prog.inputs)
    for i in range(width):
        env = {name: int(vectors[name][i]) for name in prog.inputs}
        for out, fn in expect.items():
            assert int(res.outputs[out][i]) == fn(env), (source, env, out)


def test_01_truth_tables(capsys):
    with scored(capsys, "01 nominal logic reproduces boolean truth tables"):
        t0 = time.perf_counter()
        _run_nominal("out = ~a;", {"out": lambda e: 1 - e["a"]})
        _run_nominal("out = ~(a | b);", {"out": lambda e: 1 - (e["a"] | e["b"])})
        _run_nominal(
            "out = ~(a | b | c);",
            {"out": lambda e: 1 - (e["a"] | e["b"] | e["c"])},
        )
        _run_nominal("out = a & b;", {"out": lambda e: e["a"] & e["b"]})
        _run_nominal("out = a ^ b;", {"out": lambda e: e["a"] ^ e["b"]})
        _run_nominal(
            "s1 = a ^ b;\nsum = s1 ^ cin;\n"
            "c1 = a & b;\nc2 = s1 & cin;\ncout = c1 | c2;",
            {
                "sum": lambda e: e["a"] ^ e["b"] ^ e["cin"],
                "cout": lambda e: (e["a"] + e["b"] + e["cin"]) >= 2,
            },
        )
        assert time.perf_counter() - t0 < 1.0


def test_02_retention_boundary(capsys):
    with scored(capsys, "02 a stored '1' reads back until ~15 us, flip within +-10 ns"):

        def bit_at(t_read):
            arr = SubArray(MODEL)
            arr.write_row(0, np.ones(64, dtype=np.uint8), 0)
            return int(arr.read_row(0, t_read)[0])

        bits = [bit_at(t) for t in range(14990, 15012)]
        # monotone: once the charge crosses the threshold it stays below
        assert bits == sorted(bits, reverse=True)
        flip = 14990 + bits.index(0)
        assert abs(flip - MODEL.drt_read_ns) <= 10, flip
        assert bit_at(MODEL.drt_read_ns) == 1  # still alive at the deadline


def test_03_refresh_overhead(capsys, tmp_path):
    with scored(capsys, "03 full-array refresh takes 256 ns; 94.88% availability at 5 us"):
        arr = SubArray(MODEL)
        refreshes = [MicroOp(OpKind.REFRESH, (row,), t_start_ns=4 * row)
                     for row in range(64)]
        arr.run(refreshes)
        duration = int(arr.last_update.max())
        assert duration == 256
        # row r is valid again at the end of its own refresh, 4 * (r + 1) ns
        for row in range(64):
            assert arr.last_update[row] == 4 * (row + 1), row
        EventLedger(TIM, 64, refreshes).to_csv(tmp_path / "ledger.csv")
        totals = EventLedger.read_totals(tmp_path / "ledger.csv")
        assert totals["ops"] == 64
        assert totals["makespan_ns"] == 256
        availability = 1.0 - duration / MODEL.drt_logic_ns
        assert abs(availability - 0.9488) < 1e-4


def test_04_energy_ledger(capsys, tmp_path):
    with scored(capsys, "04 op energies 5.7/13.3/13.4/13.5 fJ; AND macro 14 ns, 4160 fJ"):
        assert TIM.e_write_fj == 5.7
        assert TIM.e_read_fj == 13.3
        assert TIM.e_not_fj == 13.4
        assert TIM.e_nor_fj == 13.5
        prog = compile_program("out = a & b;")
        assert prog.duration_ns == 14
        assert prog.energy_fj == 4160.0
        hand = 2 * 64 * 5.7 + 2 * 64 * 13.4 + 64 * 13.5 + 64 * 13.3
        assert prog.energy_fj == pytest.approx(hand, rel=1e-12)
        # a run's ledger is the one `gcpim run` writes from the program's ops
        prog.to_json(tmp_path / "and.json")
        (tmp_path / "inputs.csv").write_text("a,b\n0,0\n0,1\n1,0\n1,1\n")
        assert cli_main(["run", str(tmp_path / "and.json"), "--mode", "nominal",
                         "--inputs", str(tmp_path / "inputs.csv"),
                         "--out", str(tmp_path / "run")]) == 0
        ledger_total = EventLedger.read_totals(tmp_path / "run" / "ledger.csv")["energy_fj"]
        assert ledger_total == pytest.approx(4160.0, abs=1e-9)
        assert ledger_total == prog.energy_fj


def test_05_variation_statistics(capsys):
    with scored(capsys, "05 1000-trial worst case in [99.0%, 99.8%]; quiet NOR >= 99.9%"):
        t0 = time.perf_counter()
        var = VariationConfig()
        age = MODEL.drt_logic_ns
        rep_not = run_gate_campaign("NOT", 1, 1000, age, var)
        rep_nor = run_gate_campaign("NOR", 2, 1000, age, var)
        worst = min(rep_not.worst_case()[1], rep_nor.worst_case()[1])
        assert 0.990 <= worst <= 0.998, worst
        assert rep_nor.combinations["00"].success_rate >= 0.999
        assert rep_nor.combinations["11"].success_rate >= 0.999
        assert time.perf_counter() - t0 < 60.0


def test_06_residual_stays_below_threshold(capsys):
    with scored(capsys, "06 aging a '1' raises the inverter residual, never past sense"):
        ages = [round(a) for a in np.linspace(0, MODEL.drt_logic_ns, 50)]
        levels = []
        for age in ages:
            arr = SubArray(MODEL)
            arr.write_row(0, np.ones(64, dtype=np.uint8), 0)
            arr.exec_logic([0], 2, age)  # input sampled at age+1, dt = age
            levels.append(arr.voltage[2, 0])
            assert int(arr.read_row(2, age + 3)[0]) == 0  # still a clean '0'
        for before, after in zip(levels, levels[1:]):
            assert after + 1e-15 >= before
        assert all(v < MODEL.v_sa_read for v in levels)
        assert levels[-1] == pytest.approx(0.26548256285449345, abs=1e-12)

        # a '0' input leaves the output precharged at full rail
        arr = SubArray(MODEL)
        arr.write_row(0, np.zeros(64, dtype=np.uint8), 0)
        arr.exec_logic([0], 2, MODEL.drt_logic_ns)
        assert arr.voltage[2, 0] == MODEL.vdd
        assert int(arr.read_row(2, MODEL.drt_logic_ns + 3)[0]) == 1


def _random_expr(rng, depth):
    """Random expression over a..d; returns (text, reference eval fn)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            v = int(rng.integers(2))
            return str(v), lambda env, v=v: v
        name = rng.choice(["a", "b", "c", "d"])
        return name, lambda env, n=name: env[n]
    op = rng.choice(["not", "and", "or", "xor"])
    if op == "not":
        t, f = _random_expr(rng, depth - 1)
        return f"~({t})", lambda env, f=f: 1 - f(env)
    lt, lf = _random_expr(rng, depth - 1)
    rt, rf = _random_expr(rng, depth - 1)
    sym = {"and": "&", "or": "|", "xor": "^"}[op]
    fns = {
        "and": lambda env: lf(env) & rf(env),
        "or": lambda env: lf(env) | rf(env),
        "xor": lambda env: lf(env) ^ rf(env),
    }
    return f"({lt} {sym} {rt})", fns[op]


def test_07_random_function_corpus(capsys):
    with scored(capsys, "07 200 random expressions match boolean evaluation end to end"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260822)
        done = 0
        while done < 200:
            text, ref = _random_expr(rng, 4)
            if not any(v in text for v in "abcd"):
                continue  # a constant-only draw exercises nothing
            prog = compile_program(f"out = {text};")
            vectors = exhaustive_vectors(prog.inputs)
            res = simulate_program(prog, vectors, mode="nominal")
            width = 1 << len(prog.inputs)
            for i in range(width):
                env = {n: int(vectors[n][i]) for n in prog.inputs}
                assert int(res.outputs["out"][i]) == ref(env), text
            done += 1
        assert time.perf_counter() - t0 < 30.0


def test_08_refresh_keeps_long_programs_alive(capsys):
    with scored(capsys, "08 refresh insertion rescues a long program; skipping it breaks"):
        # retention shortened 150x (decay constant re-derived) so the
        # idle operand physically dies inside one program
        short = ModelConfig(drt_read_ns=100, drt_logic_ns=50).calibrated()
        lines = ["t0 = ~b;"]
        for i in range(1, 40):
            lines.append(f"t{i} = ~(t{i - 1} | 0);")
        lines.append("out = a & t39;")
        source = "\n".join(lines)

        prog = compile_program(source, CompilerConfig(), short, TIM)
        assert prog.n_refresh > 0
        assert audit_refresh_safety(prog) == []
        vectors = exhaustive_vectors(prog.inputs)
        ideal = simulate_program(prog, vectors, mode="ideal", model_cfg=short)
        good = simulate_program(prog, vectors, mode="nominal", model_cfg=short)
        assert all(
            np.array_equal(good.outputs[k], ideal.outputs[k]) for k in ideal.outputs
        )

        bare = compile_program(
            source, CompilerConfig(insert_refreshes=False), short, TIM
        )
        assert bare.n_refresh == 0
        assert audit_refresh_safety(bare) != []  # the audit sees the hazard
        with pytest.raises(ValueError):
            simulate_program(bare, vectors, mode="nominal", model_cfg=short)
        # the array itself, past the audit, computes garbage
        sa = SubArray(short, bare.timing, rows=bare.rows, cols=bare.cols)
        width = len(vectors["a"])
        broken = run_program_on_array(bare, sa, vectors)
        assert any(
            not np.array_equal(broken[k][:width], ideal.outputs[k])
            for k in ideal.outputs
        )


def test_09_artifact_determinism(capsys, tmp_path):
    with scored(capsys, "09 repeated runs emit byte-identical program/report/ledger files"):
        src = tmp_path / "xor.txt"
        src.write_text("out = a ^ b;\n")
        inputs = tmp_path / "in.csv"
        inputs.write_text("a,b\n0,0\n0,1\n1,0\n1,1\n")

        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert cli_main(["compile", str(src), "-o", str(p1)]) == 0
        assert cli_main(["compile", str(src), "-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # stays well-formed JSON

        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for d in (r1, r2):
            rc = cli_main(
                ["run", str(p1), "--inputs", str(inputs),
                 "--mode", "mc", "--trials", "60", "--out", str(d)]
            )
            assert rc == 0
        for name in ("outputs.csv", "ledger.csv", "report.json", "report.csv"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name
        capsys.readouterr()
