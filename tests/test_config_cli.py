"""Configuration schema and command-line behavior, exercised in process.

Every CLI assertion calls main() directly so exit codes and file
side effects are checked without spawning interpreters, except the one
that guards against a compile that never ends: it spawns one, under a
timeout.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpim.charge import ConfigError
from gcpim.cli import _write_trace_csv, main
from gcpim.compiler import PimProgram, compile_program
from gcpim.config import CONFIG_VERSION, RunConfig, load_config
from gcpim.subarray import EventLedger, MicroOp, OpKind, TimingEnergyConfig

# a full adder as written by the version-1 program writer
FULL_ADDER_V1 = Path(__file__).resolve().parent / "fixtures" / "full_adder_v1.json"


# -- configuration ----------------------------------------------------


def test_default_config_spells_out_every_section():
    d = RunConfig().to_json_dict()
    assert d["version"] == CONFIG_VERSION
    assert d["model"]["vdd"] == 0.9
    assert d["model"]["drt_read_ns"] == 15000
    assert d["timing_energy"]["e_write_fj"] == 5.7
    assert d["variation"]["sigma_tau"] == 0.2
    assert d["compiler"] == {"rows": 64, "cols": 64, "max_nor_arity": 2,
                             "insert_refreshes": True}
    assert d["run"]["success_floor"] == 0.99


def test_config_roundtrip_is_byte_stable(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    cfg = RunConfig()
    cfg.to_json(p1)
    RunConfig.from_json(p1).to_json(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_partial_sections_fall_back_to_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"version": 1, "model": {"vdd": 1.0, "v_sa_read": 0.5}}')
    cfg = RunConfig.from_json(p)
    assert cfg.model.vdd == 1.0
    assert cfg.model.v_t_drive == 0.18  # untouched default
    assert cfg.timing_energy.e_write_fj == 5.7


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"version": 1, "modle": {}}')
    with pytest.raises(ConfigError, match="modle"):
        RunConfig.from_json(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"version": 1, "model": {"vdd_typo": 0.9}}')
    with pytest.raises(ConfigError, match="vdd_typo"):
        RunConfig.from_json(p)


def test_values_must_match_their_field_types(tmp_path, capsys):
    p = tmp_path / "c.json"
    # int fields take no strings, floats or booleans: exit 2, no traceback
    for value in ("x", 10.5, True):
        p.write_text(json.dumps({"version": 1, "run": {"trials": value}}))
        capsys.readouterr()
        assert main(["mc", "--gate", "NOT", "--arity", "1", "--config", str(p),
                     "--out", str(tmp_path / "m")]) == 2
        assert "run.trials must be int" in capsys.readouterr().err
    # float fields take integers too; bool and str fields only their own type
    p.write_text('{"version": 1, "model": {"vdd": 1, "v_sa_read": 0.5}}')
    assert RunConfig.from_json(p).model.vdd == 1
    for section, body in (("compiler", {"insert_refreshes": 1}),
                          ("run", {"mode": 1}), ("model", {"vdd": "0.9"}),
                          ("variation", {"seed": False})):
        p.write_text(json.dumps({"version": 1, section: body}))
        with pytest.raises(ConfigError, match="must be"):
            RunConfig.from_json(p)


def test_version_is_mandatory_and_checked(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"model": {}}')
    with pytest.raises(ConfigError, match="version"):
        RunConfig.from_json(p)
    p.write_text('{"version": 99}')
    with pytest.raises(ConfigError, match="99"):
        RunConfig.from_json(p)


def test_run_section_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"version": 1, "run": {"mode": "warp"}})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"version": 1, "run": {"success_floor": 1.5}})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"version": 1, "run": {"trials": 0}})


def test_config_with_retired_keys_loads_and_drops_them(tmp_path):
    # a version-1 file as older releases of `calibrate` wrote it
    old = RunConfig().to_json_dict()
    old["run"].update(n_subarrays=1, schedule="relaxed", refresh_period_ns=5000)
    old["timing_energy"]["e_dual_sense_fj"] = 13.34
    old["compiler"]["rows_available"] = 62
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    cfg = RunConfig.from_json(p)
    assert cfg == RunConfig()
    cfg.to_json(tmp_path / "new.json")
    text = (tmp_path / "new.json").read_text()
    for key in ("n_subarrays", "schedule", "refresh_period_ns", "e_dual_sense_fj",
                "rows_available"):
        assert key not in text


def test_misspelt_or_misplaced_keys_are_still_rejected(tmp_path, capsys):
    for body in ({"run": {"n_subarray": 1}},
                 {"run": {"e_dual_sense_fj": 13.34}},
                 {"timing_energy": {"schedule": "relaxed"}}):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"version": 1, **body}))
        assert main(["mc", "--gate", "NOT", "--arity", "1", "--trials", "10",
                     "--config", str(p), "--out", str(tmp_path / "m")]) == 2
        assert "unknown keys" in capsys.readouterr().err


def test_seed_override():
    cfg = load_config(None, seed=42)
    assert cfg.variation.seed == 42
    assert RunConfig().variation.seed != 42


# -- CLI --------------------------------------------------------------


@pytest.fixture()
def adder(tmp_path):
    src = tmp_path / "adder.txt"
    src.write_text(
        "# one-bit full adder\n"
        "s1 = a ^ b;\n"
        "sum = s1 ^ cin;\n"
        "c1 = a & b;\n"
        "c2 = s1 & cin;\n"
        "cout = c1 | c2;\n"
    )
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("a,b,cin\n0,0,0\n0,1,0\n1,0,1\n1,1,1\n")
    return src, inputs


def test_compile_then_run_nominal(adder, tmp_path, capsys):
    src, inputs = adder
    assert main(["compile", str(src)]) == 0
    compiled = tmp_path / "adder.compiled.json"
    assert compiled.exists()
    out = capsys.readouterr().out
    assert "gates:" in out and "NOR" in out

    rundir = tmp_path / "runout"
    rc = main(["run", str(compiled), "--inputs", str(inputs),
               "--mode", "nominal", "--trace", "--out", str(rundir)])
    assert rc == 0
    got = (rundir / "outputs.csv").read_text().splitlines()
    assert got[0] == "sum,cout"
    assert got[1:] == ["0,0", "1,0", "0,1", "1,1"]
    assert (rundir / "trace.csv").read_text().startswith("time_ns,signal,value")
    # the ledger comes from the op list and the trace from one record per
    # sampled row; both files keep their bytes
    digests = {name: hashlib.sha256((rundir / name).read_bytes()).hexdigest()
               for name in ("trace.csv", "ledger.csv")}
    assert digests == {
        "trace.csv": "2fa481e1d86b50671d73a879f7d64cd96e3b26097ac71d1ea9285eba0cd0f051",
        "ledger.csv": "c44f5c7c06852c468012cc73dd5755de3ccb088a686afe7bf04151f32f7f4b93",
    }


def test_trace_csv_sorts_by_time_then_signal_string_then_record(tmp_path):
    # (time_ns, row, voltages) records with equal times, a row >= 10 (whose
    # name sorts before row 1's as a string) and repeated (time, row) pairs
    records = [(5, 10, np.array([0.1, 0.2])), (5, 1, np.array([0.3, 0.4])),
               (3, 2, np.array([0.5, 0.6])), (5, 10, np.array([0.7, 0.8])),
               (3, 2, np.array([0.9, 1e-05]))]
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, records)
    assert path.read_bytes().decode() == (
        "time_ns,signal,value\r\n"
        "3,sn_r2_c0,0.5\r\n3,sn_r2_c0,0.9\r\n3,sn_r2_c1,0.6\r\n3,sn_r2_c1,1e-05\r\n"
        "5,sn_r10_c0,0.1\r\n5,sn_r10_c0,0.7\r\n5,sn_r10_c1,0.2\r\n5,sn_r10_c1,0.8\r\n"
        "5,sn_r1_c0,0.3\r\n5,sn_r1_c1,0.4\r\n")
    _write_trace_csv(path, [])
    assert path.read_bytes() == b"time_ns,signal,value\r\n"


def test_run_is_byte_deterministic(adder, tmp_path):
    src, inputs = adder
    main(["compile", str(src)])
    compiled = tmp_path / "adder.compiled.json"
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["run", str(compiled), "--inputs", str(inputs),
                     "--mode", "mc", "--trials", "40", "--out", str(d)]) == 0
    for name in ("outputs.csv", "report.json", "report.csv", "ledger.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_mc_gate_campaign_writes_report(tmp_path, capsys):
    out = tmp_path / "mc"
    rc = main(["mc", "--gate", "NOR", "--arity", "2", "--trials", "300",
               "--age", "1000", "--out", str(out)])
    assert rc == 0  # mild aging: comfortably above the default floor
    report = json.loads((out / "report.json").read_text())
    assert set(report["combinations"]) == {"00", "01", "10", "11"}
    text = capsys.readouterr().out
    assert "worst case" in text


def test_mc_floor_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"version": 1, "run": {"success_floor": 0.9999}}')
    rc = main(["mc", "--gate", "NOT", "--arity", "1", "--trials", "2000",
               "--age", "5000", "--config", str(cfg),
               "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "below the floor" in capsys.readouterr().out


def test_mc_program_mode(adder, tmp_path):
    src, _ = adder
    main(["compile", str(src)])
    compiled = tmp_path / "adder.compiled.json"
    rc = main(["mc", "--program", str(compiled), "--trials", "30",
               "--out", str(tmp_path / "pm")])
    report = json.loads((tmp_path / "pm" / "report.json").read_text())
    assert len(report["combinations"]) == 8  # 3 inputs, exhaustive
    assert rc in (0, 1)  # rate depends on draws; files must exist either way


def test_mc_attribution_takes_input_rows_from_the_writes(tmp_path):
    # a failure is tagged by the input cells its WRITE ops fill, so an
    # edited row_assignment map in a version-1 file changes no byte of
    # the report
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"version": 1, "variation": {
        "sigma_tau": 0.6, "sigma_sa": 0.12, "sigma_drive": 0.1}}))
    reports = []
    for input_rows in (None, {"a": 1, "b": 0, "cin": 2}, {"a": 5, "b": 6, "cin": 7}):
        data = json.loads(FULL_ADDER_V1.read_text())
        if input_rows is not None:
            data["row_assignment"]["input_rows"] = input_rows
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        out = tmp_path / f"mc{len(reports)}"
        assert main(["mc", "--program", str(edited), "--trials", "500", "--seed", "1",
                     "--config", str(cfg), "--out", str(out)]) == 1
        reports.append((out / "report.json").read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_version_1_program_runs_as_a_fresh_compile(adder, tmp_path):
    # the checked-in full adder was written as version 1, with its
    # row_assignment and stats: it loads to the ops a fresh compile emits
    # and runs to the same bytes
    src, inputs = adder
    fresh = tmp_path / "fresh.json"
    assert main(["compile", str(src), "-o", str(fresh)]) == 0
    v1 = json.loads(FULL_ADDER_V1.read_text())
    assert v1["version"] == 1 and "row_assignment" in v1 and "stats" in v1
    assert json.loads(fresh.read_text())["version"] == 2
    assert PimProgram.from_json(FULL_ADDER_V1).ops == compile_program(src.read_text()).ops
    outs = []
    for prog in (FULL_ADDER_V1, fresh):
        out = tmp_path / f"run{len(outs)}"
        assert main(["run", str(prog), "--inputs", str(inputs), "--mode", "nominal",
                     "--out", str(out)]) == 0
        outs.append([(out / name).read_bytes() for name in ("outputs.csv", "ledger.csv")])
    assert outs[0] == outs[1]


def test_program_file_has_one_line_per_op(adder, tmp_path):
    src, _ = adder
    compiled = tmp_path / "adder.json"
    assert main(["compile", str(src), "-o", str(compiled)]) == 0
    header, *op_lines, closing = compiled.read_text().splitlines()
    prog = PimProgram.from_json(compiled)
    assert header.endswith('"ops":[') and closing == "]}"
    assert [json.loads(line.rstrip(",")) for line in op_lines] == \
        prog.to_json_dict()["ops"]
    assert "row_assignment" not in header and "stats" not in header


def test_seed_changes_the_mc_draws(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["mc", "--gate", "NOT", "--arity", "1", "--trials", "3000",
          "--age", "5000", "--seed", "1", "--out", str(a)])
    main(["mc", "--gate", "NOT", "--arity", "1", "--trials", "3000",
          "--age", "5000", "--seed", "2", "--out", str(b)])
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra != rb


def test_calibrate_writes_config(tmp_path, capsys):
    out = tmp_path / "calibrated.json"
    rc = main(["calibrate", "--trials", "10000", "--out", str(out)])
    assert rc == 0
    cfg = json.loads(out.read_text())
    assert cfg["variation"]["sigma_tau"] == pytest.approx(0.2, abs=0.05)
    text = capsys.readouterr().out
    assert "scale" in text  # convergence trace printed


def test_report_json_totals(adder, tmp_path, capsys):
    src, inputs = adder
    main(["compile", str(src)])
    rundir = tmp_path / "r"
    main(["run", str(tmp_path / "adder.compiled.json"), "--inputs", str(inputs),
          "--mode", "nominal", "--out", str(rundir)])
    capsys.readouterr()
    rc = main(["report", str(rundir / "ledger.csv"), "--period", "5000", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["refresh_ns"] == 0
    assert summary["availability"] == 1.0
    assert summary["ops"] == 23


def test_program_with_retired_timing_key_runs_unchanged(adder, tmp_path, capsys):
    src, inputs = adder
    fresh = tmp_path / "fresh.json"
    assert main(["compile", str(src), "-o", str(fresh)]) == 0
    data = json.loads(fresh.read_text())
    assert "e_dual_sense_fj" not in data["timing_energy"]
    data["timing_energy"]["e_dual_sense_fj"] = 13.34
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    for prog in (fresh, old):
        assert main(["run", str(prog), "--inputs", str(inputs), "--mode",
                     "nominal", "--out", str(tmp_path / prog.stem)]) == 0
    for name in ("outputs.csv", "ledger.csv"):
        assert ((tmp_path / "old" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name

    data["timing_energy"]["e_dual_sense"] = 13.34
    old.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", str(old), "--inputs", str(inputs),
                 "--out", str(tmp_path / "typo")]) == 2
    assert "e_dual_sense'" in capsys.readouterr().err


def test_zero_trials_are_rejected(adder, tmp_path, capsys):
    src, inputs = adder
    main(["compile", str(src)])
    compiled = tmp_path / "adder.compiled.json"
    assert main(["run", str(compiled), "--inputs", str(inputs), "--mode", "mc",
                 "--trials", "0", "--out", str(tmp_path / "r")]) == 2
    assert main(["mc", "--gate", "NOT", "--arity", "1", "--trials", "0",
                 "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.count("n_trials must be >= 1") == 2


def test_report_period_must_be_positive(adder, tmp_path, capsys):
    src, inputs = adder
    main(["compile", str(src)])
    rundir = tmp_path / "r"
    main(["run", str(tmp_path / "adder.compiled.json"), "--inputs", str(inputs),
          "--mode", "nominal", "--out", str(rundir)])
    capsys.readouterr()
    for period in ("0", "-100"):
        assert main(["report", str(rundir / "ledger.csv"),
                     "--period", period]) == 2
        err = capsys.readouterr().err
        assert "--period must be >= 1" in err

    # a period must also hold the ledgers' refresh work: 3 refreshes, 12 ns
    refreshing = tmp_path / "refresh.csv"
    EventLedger.from_ops(
        [MicroOp(OpKind.REFRESH, (row,), t_start_ns=4 * row) for row in range(3)],
        TimingEnergyConfig(), 64).to_csv(refreshing)
    assert main(["report", str(refreshing), "--period", "10"]) == 2
    assert "--period must be >= 12 ns" in capsys.readouterr().err
    assert main(["report", str(refreshing), "--period", "12"]) == 0
    assert "availability over 12 ns: 0.00%" in capsys.readouterr().out

    # so must the default period, the longest makespan (12 ns here): two
    # copies hold 24 ns of refresh, one copy fits exactly
    assert main(["report", str(refreshing), str(refreshing)]) == 2
    assert "--period must be >= 24 ns" in capsys.readouterr().err
    assert main(["report", str(refreshing)]) == 0
    assert "availability over 12 ns: 0.00%" in capsys.readouterr().out


def test_cli_exit_codes(adder, tmp_path, capsys):
    src, inputs = adder
    bad = tmp_path / "bad.txt"
    bad.write_text("out = a &&& b;\n")
    assert main(["compile", str(bad)]) == 2

    big = tmp_path / "big.txt"
    big.write_text("out = " + " | ".join(f"x{i}" for i in range(70)) + ";\n")
    assert main(["compile", str(big)]) == 3

    assert main(["run", str(tmp_path / "nope.json"),
                 "--inputs", str(inputs)]) == 5

    notjson = tmp_path / "corrupt.json"
    notjson.write_text("not json")
    assert main(["run", str(notjson), "--inputs", str(inputs)]) == 5
    capsys.readouterr()

    # a gate arity below 1 is a usage error, not a traceback
    assert main(["mc", "--gate", "NOR", "--arity", "-1",
                 "--out", str(tmp_path / "m")]) == 2
    assert "gate arity must be >= 1" in capsys.readouterr().err

    # a program file that lacks a section or holds a wrong-typed field is
    # malformed (5) and says so; no traceback.  Header and netlist fields
    # are type-checked like op fields, not coerced with int()
    good = tmp_path / "good.json"
    assert main(["compile", str(src), "-o", str(good)]) == 0

    def nor(data):
        return next(n for n in data["netlist"]["nodes"] if n["op"] == "nor")

    for edit, message in (
        (lambda d: d.pop("netlist"), "lacks the 'netlist' key"),
        (lambda d: d["ops"][0].update(rows="x"), "wrong-typed value"),
        (lambda d: d["ops"][0].update(rows=[1.5]), "'rows': [1.5]"),
        (lambda d: d.update(version=3), "unsupported program version 3"),
        (lambda d: d.update(rows=64.9), "'rows': 64.9"),
        (lambda d: d.update(rows=True), "'rows': True"),
        (lambda d: d.update(cols=63.5), "'cols': 63.5"),
        (lambda d: d.update(drt_logic_ns="50"), "'drt_logic_ns': '50'"),
        (lambda d: nor(d).update(args=["0", 1]), "'args': ['0', 1]"),
        (lambda d: nor(d).update(op="and"), "'op': 'and'"),
        (lambda d: d["netlist"]["nodes"].append({"op": "const", "value": 2}),
         "'value': 2"),
        (lambda d: d["netlist"].update(
            outputs=[[name, float(nid)] for name, nid in d["netlist"]["outputs"]]),
         "wrong-typed value"),
        (lambda d: d["netlist"].update(inputs=[7, *d["netlist"]["inputs"][1:]]),
         "inputs [7, "),
        (lambda d: d["netlist"]["outputs"].append(["zz", 999]),
         "name a node outside the netlist"),
        (lambda d: nor(d).update(args=[-5, 1]), "references a node outside"),
    ):
        data = json.loads(good.read_text())
        edit(data)
        bad_prog = tmp_path / "bad_prog.json"
        bad_prog.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", str(bad_prog), "--inputs", str(inputs),
                     "--out", str(tmp_path / "bad_out")]) == 5
        assert message in capsys.readouterr().err

    # a name the netlist lacks, a row past the array or a literal write of
    # the wrong width is malformed (5); the soundness audit names it before
    # any array is built
    anded = tmp_path / "and.txt"
    anded.write_text("out = a & b;\n")
    compiled = tmp_path / "and.json"
    assert main(["compile", str(anded), "-o", str(compiled)]) == 0
    and_inputs = tmp_path / "ab.csv"
    and_inputs.write_text("a,b\n0,1\n1,1\n")

    def first(data, kind):
        return next(op for op in data["ops"] if op["op"] == kind)

    def shifted(data):  # rows 64-68 of a 64-row program
        for op in data["ops"]:
            op["rows"] = [r + 64 for r in op["rows"]]
            if "out_row" in op:
                op["out_row"] += 64

    for edit, message, modes in (
        (lambda d: first(d, "LOGIC").update(node=999), "node 999", ["nominal"]),
        (lambda d: first(d, "LOGIC").update(node=-1), "node -1", ["nominal"]),
        (lambda d: first(d, "READ").update(output="zz"), "output 'zz'", ["nominal"]),
        (lambda d: first(d, "READ").pop("output"), "output 'out' is never read",
         ["nominal"]),
        (lambda d: first(d, "WRITE").update(source="input:zz"), "'input:zz'",
         ["nominal"]),
        (lambda d: first(d, "WRITE").update(source="const:7"), "'const:7'",
         ["nominal"]),
        (shifted, "row 64 is outside the 64-row array", ["nominal", "mc"]),
        (lambda d: d["ops"].insert(0, {"op": "WRITE", "rows": [10], "bits": [1, 0, 1],
                                       "t_start_ns": 0}),
         "literal write carries 3 bits for 64 columns", ["nominal", "mc"]),
    ):
        data = json.loads(compiled.read_text())
        edit(data)
        bad_prog.write_text(json.dumps(data))
        for mode in modes:
            capsys.readouterr()
            assert main(["run", str(bad_prog), "--inputs", str(and_inputs),
                         "--mode", mode, "--trials", "4",
                         "--out", str(tmp_path / "bad_out")]) == 5, (message, mode)
            err = capsys.readouterr().err
            assert "gcpim: malformed program:" in err and message in err

    # both READs of a half adder moved onto its last gate (op 9, 23-26 ns):
    # the tile is sequential, so ops that overlap are a timing error (3)
    half = tmp_path / "half.txt"
    half.write_text("s = a ^ b;\nc = a & b;\n")
    assert main(["compile", str(half), "-o", str(compiled)]) == 0
    # an op row given as a string is refused on load (5), not compared
    # with ints by an audit (a TypeError traceback, exit 1)
    data = json.loads(compiled.read_text())
    assert data["ops"][5]["op"] == "LOGIC"
    data["ops"][5]["out_row"] = str(data["ops"][5]["out_row"])
    bad_prog.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", str(bad_prog), "--inputs", str(and_inputs),
                 "--out", str(tmp_path / "bad_out")]) == 5
    err = capsys.readouterr().err
    assert "wrong-typed value" in err and "'out_row': '" in err
    data = json.loads(compiled.read_text())
    assert [op["op"] for op in data["ops"][9:]] == ["LOGIC", "READ", "READ"]
    assert data["ops"][9]["t_start_ns"] == 23
    data["ops"][10]["t_start_ns"] = data["ops"][11]["t_start_ns"] = 23
    bad_prog.write_text(json.dumps(data))
    for mode in ("nominal", "mc"):
        capsys.readouterr()
        assert main(["run", str(bad_prog), "--inputs", str(and_inputs),
                     "--mode", mode, "--trials", "4",
                     "--out", str(tmp_path / "bad_out")]) == 3, mode
        assert "op 10 starts at 23ns, before op 9 ends at 26ns" in capsys.readouterr().err


def test_netlist_inputs_must_name_the_input_nodes_once(tmp_path, capsys):
    # a half adder whose netlist lists input "a" twice and "b" never used
    # to load and then fail its run as a usage error (exit 2)
    half = tmp_path / "half.txt"
    half.write_text("s = a ^ b;\nc = a & b;\n")
    compiled = tmp_path / "half.json"
    assert main(["compile", str(half), "-o", str(compiled)]) == 0
    inputs = tmp_path / "ab.csv"
    inputs.write_text("a,b\n0,1\n1,1\n")
    bad = tmp_path / "bad.json"
    for names in (["a", "a"], ["a"], ["a", "b", "c"], ["b", "a", "b"]):
        data = json.loads(compiled.read_text())
        data["netlist"]["inputs"] = names
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", str(bad), "--inputs", str(inputs),
                     "--out", str(tmp_path / "out")]) == 5, names
        err = capsys.readouterr().err
        assert "malformed program" in err and "do not name the input nodes" in err


# the README's exit-code table
README_EXIT_CODES = {0, 1, 2, 3, 4, 5}

# a constant write, three input writes, gates and two named reads
EDITED_PROGRAM = compile_program("s = a ^ cin;\nc = (a & b) | (cin & 1);").to_json_dict()

# JSON values of the wrong type for an int field (a numeric string, a
# float, integral or not, or a boolean) and for a string field
NOT_INT = st.sampled_from(["3", "x", ""]) | st.floats(-3, 80, allow_nan=False) | st.booleans()
NOT_STR = st.integers(-3, 80) | st.floats(-3, 80, allow_nan=False) | st.booleans()

OP_FIELD_VALUES = {
    "node": st.none() | st.integers(-3, 40) | NOT_INT,
    "output": st.none() | st.sampled_from(["s", "c", "zz"]) | st.text(max_size=4) | NOT_STR,
    "source": st.none() | st.text(max_size=8) | st.sampled_from(
        ["input:a", "input:zz", "const:0", "const:1", "const:7", "const:x"]) | NOT_STR,
    "rows": st.none() | st.lists(st.integers(-2, 80), max_size=3)
    | st.lists(st.integers(-2, 80) | NOT_INT, min_size=1, max_size=3) | NOT_INT,
    "out_row": st.none() | st.integers(-2, 80) | NOT_INT,
    "t_start_ns": st.none() | st.integers(-20, 10**6) | NOT_INT,
    "bits": st.none() | st.lists(st.integers(0, 1) | NOT_INT, min_size=64, max_size=64)
    | st.lists(st.integers(-1, 2), max_size=3) | NOT_INT,
}


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(EDITED_PROGRAM["ops"]) - 1),
       edit=st.sampled_from(sorted(OP_FIELD_VALUES)).flatmap(
           lambda key: st.tuples(st.just(key), OP_FIELD_VALUES[key])))
def test_an_edited_op_field_gives_a_documented_exit_code(index, edit):
    # any one op field replaced by a value of a plausible type: `run`
    # either runs or fails with a documented code, never a traceback
    key, value = edit
    data = json.loads(json.dumps(EDITED_PROGRAM))
    data["ops"][index][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        prog, inputs = Path(tmp) / "prog.json", Path(tmp) / "in.csv"
        prog.write_text(json.dumps(data))
        inputs.write_text("a,cin,b\n0,1,1\n1,1,0\n")
        assert main(["run", str(prog), "--inputs", str(inputs), "--mode", "nominal",
                     "--out", str(Path(tmp) / "out")]) in README_EXIT_CODES


def test_run_exit_code_for_retention_violation(tmp_path, capsys):
    # input a idles through a 40-gate chain: unrefreshed, it is consumed
    # stale at 100/50 ns windows, a resource error (3), not an I/O error
    src = tmp_path / "chain.txt"
    src.write_text(aged_and_source())
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(
        {"version": 1, "model": {"drt_read_ns": 100, "drt_logic_ns": 50}}))
    compiled = tmp_path / "chain.json"
    assert main(["compile", str(src), "--no-refresh", "--config", str(cfg),
                 "-o", str(compiled)]) == 0
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("a,b\n1,0\n0,1\n")
    capsys.readouterr()
    assert main(["run", str(compiled), "--inputs", str(inputs), "--config",
                 str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "resource error" in err and "retention" in err
    assert "enforce_freshness" not in err


def test_run_exit_code_for_unsound_program(tmp_path, capsys):
    # the output READ of a compiled AND points one row off: the file is
    # malformed (5), not a usage error
    src = tmp_path / "and.txt"
    src.write_text("out = a & b;\n")
    compiled = tmp_path / "and.json"
    assert main(["compile", str(src), "-o", str(compiled)]) == 0
    data = json.loads(compiled.read_text())
    (read,) = [op for op in data["ops"] if op["op"] == "READ"]
    read["rows"] = [read["rows"][0] + 1]
    compiled.write_text(json.dumps(data))
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("a,b\n1,1\n0,1\n")
    capsys.readouterr()
    assert main(["run", str(compiled), "--inputs", str(inputs),
                 "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert "malformed program" in err and "unsound" in err


def test_input_csv_validation(adder, tmp_path):
    src, _ = adder
    main(["compile", str(src)])
    compiled = tmp_path / "adder.compiled.json"

    bad_bit = tmp_path / "badbit.csv"
    bad_bit.write_text("a,b,cin\n0,2,0\n")
    assert main(["run", str(compiled), "--inputs", str(bad_bit),
                 "--out", str(tmp_path / "x1")]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,cin\n0,1\n")
    assert main(["run", str(compiled), "--inputs", str(ragged),
                 "--out", str(tmp_path / "x2")]) == 2

    wrong_names = tmp_path / "names.csv"
    wrong_names.write_text("a,b\n0,1\n")
    assert main(["run", str(compiled), "--inputs", str(wrong_names),
                 "--out", str(tmp_path / "x3")]) == 2


def aged_and_source() -> str:
    chain = ["t0 = ~b;"]
    for i in range(1, 40):
        chain.append(f"t{i} = ~t{i - 1};")
    chain.append("out = a & t39;")
    return "\n".join(chain) + "\n"


def test_compile_no_refresh_flag(tmp_path, capsys):
    src = tmp_path / "chain.txt"
    src.write_text(aged_and_source())
    assert main(["compile", str(src)]) == 0
    with_default = json.loads((tmp_path / "chain.compiled.json").read_text())
    assert main(["compile", str(src), "--no-refresh",
                 "-o", str(tmp_path / "nr.json")]) == 0
    without = json.loads((tmp_path / "nr.json").read_text())
    # default windows are generous: identical here, but the flag must
    # still produce a loadable program with zero refreshes
    assert not [op for op in without["ops"] if op["op"] == "REFRESH"]
    assert with_default["format"] == without["format"]
    capsys.readouterr()


def test_compile_of_gate_inputs_that_cannot_all_be_fresh_exits_3(tmp_path):
    # refreshing the four inputs 4 ns apart takes 13 ns before the gate
    # senses them, more than the 12 ns logic window: no schedule exists
    src = tmp_path / "wide.txt"
    src.write_text("t0 = ~a;\n" + "".join(f"t{i} = ~t{i - 1};\n" for i in range(1, 30))
                   + "out = ~(a | b | c | d | t29);\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "compiler": {"max_nor_arity": 4},
                               "model": {"drt_read_ns": 1000, "drt_logic_ns": 12}}))
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "gcpim.cli", "compile", str(src), "--config", str(cfg),
         "-o", str(tmp_path / "wide.json")],
        env=env, capture_output=True, text=True, timeout=30, preexec_fn=cap_memory)
    assert done.returncode == 3, done.stderr
    assert "more than the 12ns logic window" in done.stderr
