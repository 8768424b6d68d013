"""Configuration schema and command-line behavior, exercised in process.

Every CLI assertion calls main() directly so exit codes and file
side effects are checked without spawning interpreters, except in four
tests: the two that guard against a compile that never ends spawn one
under a timeout, and the two that run into a closed stdout need a stdout
of their own.
"""

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcpim.cli as cli_mod
import gcpim.montecarlo as mc_mod
from gcpim.charge import DEFAULT_TAU_NS, ConfigError, ModelConfig, calibrate_tau
from gcpim.cli import _trace_lines, _write_trace_csv, main
from gcpim.compiler import PimProgram, compile_program
from gcpim.config import CONFIG_VERSION, RunConfig, load_config
from gcpim.montecarlo import VariationConfig
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


def test_a_model_that_cannot_retain_a_one_exits_2(tmp_path, capsys):
    # at tau_ns 5 a stored '1' misreads within nanoseconds: the half adder
    # used to compile audit-clean under it and its run to exit 3
    src, cfg = tmp_path / "half.txt", tmp_path / "cfg.json"
    src.write_text("s = a ^ b;\nc = a & b;\n")
    cfg.write_text('{"version": 1, "model": {"tau_ns": 5}}')
    assert main(["compile", str(src), "-o", str(tmp_path / "half.json"),
                 "--config", str(cfg)]) == 2
    assert f"tau_ns must be at least {DEFAULT_TAU_NS}" in capsys.readouterr().err
    assert not (tmp_path / "half.json").exists()


NON_FINITE_FIELDS = [*(("timing_energy", f"e_{op}_fj") for op in ("write", "read", "not", "nor")),
                     *(("variation", f"sigma_{v}") for v in ("tau", "sa", "drive")),
                     ("model", "vdd")]
SECTION_CLASS = {"timing_energy": TimingEnergyConfig, "variation": VariationConfig,
                 "model": ModelConfig}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("section, key", NON_FINITE_FIELDS)
def test_non_finite_config_values_are_refused(tmp_path, capsys, section, key, value):
    # json.load takes NaN, Infinity and 1e400; the validators refuse them
    # and name the field: a config exits 2, a program file's timing 5
    with pytest.raises(ConfigError, match=key):
        SECTION_CLASS[section](**{key: value})
    src, cfg, prog = tmp_path / "and.txt", tmp_path / "cfg.json", tmp_path / "and.json"
    src.write_text("out = a & b;\n")
    cfg.write_text(json.dumps({"version": 1, section: {key: value}}))
    assert main(["compile", str(src), "-o", str(prog), "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not prog.exists()
    if section == "timing_energy":
        assert main(["compile", str(src), "-o", str(prog)]) == 0
        data = json.loads(prog.read_text())
        data["timing_energy"][key] = value
        prog.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", str(prog), "--out", str(tmp_path / "run")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("gcpim: malformed program:") and key in err, err


def test_a_row_budget_without_room_for_a_gate_exits_2(tmp_path, capsys):
    # 4 rows pass the array-shape check, but even a NOR2 needs 2 + 3 rows
    src, cfg = tmp_path / "and.txt", tmp_path / "cfg.json"
    src.write_text("out = a & b;\n")
    cfg.write_text('{"version": 1, "compiler": {"rows": 4}}')
    assert main(["compile", str(src), "-o", str(tmp_path / "and.json"),
                 "--config", str(cfg)]) == 2
    assert ("max_nor_arity 2 out of range for 4 rows: needs 2 <= max_nor_arity and "
            "rows >= max_nor_arity + 3") in capsys.readouterr().err
    assert not (tmp_path / "and.json").exists()


def test_a_cell_that_never_leaks_is_accepted(tmp_path, capsys):
    # tau_ns = inf is the one non-finite value a config may hold
    src, cfg = tmp_path / "and.txt", tmp_path / "cfg.json"
    src.write_text("out = a & b;\n")
    cfg.write_text('{"version": 1, "model": {"tau_ns": Infinity}}')
    assert RunConfig.from_json(cfg).model.tau_ns == math.inf
    assert main(["compile", str(src), "-o", str(tmp_path / "and.json"),
                 "--config", str(cfg)]) == 0
    assert main(["run", str(tmp_path / "and.json"), "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert "certified" in capsys.readouterr().out


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
        "trace.csv": "785270a828ad489b441191f22c15abc9cbad33f459ba085527ecef33fbbaec07",
        "ledger.csv": "5c8c44bfe01ae6451e65ef66fee7243d0bf490f18e557e763d2a05adb39c5ee8",
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


def trace_lines_by_sorting(records) -> list[str]:
    """The lines of trace.csv by a plain sort, one ``repr`` per cell."""
    cells = [(t, f"sn_r{r}_c{c}", i, v) for i, (t, r, values) in enumerate(records)
             for c, v in enumerate(values.tolist())]
    return [f"{t},{name},{v!r}\r\n" for t, name, _, v in sorted(cells, key=lambda c: c[:3])]


VOLTAGES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                      0.8, 1e-05]), st.floats())


@given(st.integers(0, 3).flatmap(lambda cols: st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 12),
              st.lists(VOLTAGES, min_size=cols, max_size=cols)), min_size=1, max_size=12)))
@example([(1, 0, [0.0, -0.0]), (1, 0, [-0.0, 0.0]), (0, 10, [math.nan, 0.0])])
@example([(2, 1, [0.5]), (2, 1, [0.5]), (1, 1, [math.inf])])
@example([(3, 4, []), (3, 2, [])])
def test_trace_lines_format_each_cell_as_its_own_repr(records):
    # one repr per distinct bit pattern gives every cell the text its own
    # repr gives: -0.0 beside 0.0, NaN, infinities, repeats, 0 or 1 columns
    records = [(t, r, np.array(values, dtype=float)) for t, r, values in records]
    assert _trace_lines(*zip(*records)) == trace_lines_by_sorting(records)


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


def test_run_without_inputs_takes_the_columns_mc_program_takes(adder, tmp_path):
    # both commands run every input combination of the full adder: at the
    # same trials and seed they write the same report bytes
    src, _ = adder
    program = tmp_path / "adder.json"
    assert main(["compile", str(src), "-o", str(program)]) == 0
    same = ["--trials", "40", "--seed", "3"]
    run, mc = tmp_path / "run", tmp_path / "mc"
    assert main(["run", str(program), "--mode", "mc", *same, "--out", str(run)]) == main(
        ["mc", "--program", str(program), *same, "--out", str(mc)])
    for name in ("report.json", "report.csv"):
        assert (run / name).read_bytes() == (mc / name).read_bytes(), name
    assert len((run / "outputs.csv").read_text().splitlines()) == 1 + 8


def test_run_and_mc_run_a_program_without_inputs_on_one_column(tmp_path, capsys):
    src, program = tmp_path / "consts.txt", tmp_path / "consts.json"
    src.write_text("o = 1;\np = ~(0 | 0);\n")
    assert main(["compile", str(src), "-o", str(program)]) == 0
    assert main(["run", str(program), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "outputs.csv").read_bytes() == b"o,p\r\n1,1\r\n"
    capsys.readouterr()
    out = tmp_path / "mc"
    assert main(["mc", "--program", str(program), "--trials", "20", "--out", str(out)]) == 0
    # the one, empty combination: "(none)" on the terminal, "" in the files
    text = capsys.readouterr().out
    assert "\n  (none)       20        20  100.000%" in text
    assert "worst case: (none) at 100.000%" in text
    assert list(json.loads((out / "report.json").read_text())["combinations"]) == [""]
    assert (out / "report.csv").read_text().splitlines()[1] == ",20,20,1.0,0,0,0,0"


def test_run_without_inputs_needs_every_combination_in_one_subarray(tmp_path, capsys):
    src, program = tmp_path / "wide.txt", tmp_path / "wide.json"
    src.write_text("o = a ^ b ^ c ^ d ^ e ^ f ^ g;\n")
    assert main(["compile", str(src), "-o", str(program)]) == 0
    capsys.readouterr()
    assert main(["run", str(program), "--out", str(tmp_path / "run")]) == 2
    assert "7 inputs need 128 columns" in capsys.readouterr().err


# (command, sigma_tau/sigma_sa/sigma_drive, sha256 of report.csv and
# report.json): a full adder and a NOR2 campaign at sigmas where every
# failure bucket is non-empty, both below the floor
REPORT_PINS = {
    "full-adder": (["--program", "{program}", "--trials", "200"], (0.4, 0.08, 0.068), (
        "4cf04decd022d91aee31eada57c27dae09cdf9db9457040d459fd2c349a9e1f9",
        "83c0f0c3d202adefa87012ad9f20eff71cdddd6f209253fbfccf3edf65770353")),
    "nor2": (["--gate", "NOR", "--arity", "2", "--trials", "640"], (0.6, 0.12, 0.102), (
        "314f48731e6eacc6ea1f692934ba9b5c2942aa8cecc59296f8a54a79de68c349",
        "e8d9dffefeef595a04d7e5a58766fe58fe81641546ad46b0243ee4f8044a7ce7")),
}


@pytest.mark.parametrize("case", sorted(REPORT_PINS))
def test_mc_report_keeps_its_bytes(adder, tmp_path, capsys, case):
    argv, (sigma_tau, sigma_sa, sigma_drive), digests = REPORT_PINS[case]
    src, _ = adder
    program = tmp_path / "adder.json"
    assert main(["compile", str(src), "-o", str(program)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "variation": {
        "sigma_tau": sigma_tau, "sigma_sa": sigma_sa, "sigma_drive": sigma_drive}}))
    out = tmp_path / "mc"
    assert main(["mc", *(a.format(program=program) for a in argv), "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert "FAIL: worst-case success rate is below the floor" in capsys.readouterr().out
    combos = json.loads((out / "report.json").read_text())["combinations"].values()
    assert all(sum(c["failures"][bucket] for c in combos) > 0
               for bucket in ("decay_only", "threshold_only", "both", "other"))
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("report.csv", "report.json")) == digests


def test_a_reused_out_directory_holds_the_last_commands_artifacts(adder, tmp_path):
    # each command deletes the artifacts it does not write; other files stay
    src, inputs = adder
    program = tmp_path / "adder.json"
    assert main(["compile", str(src), "-o", str(program)]) == 0
    run = ["run", str(program), "--inputs", str(inputs)]
    mc = ["--mode", "mc", "--trials", "3"]
    reports = {"report.json", "report.csv"}
    for i, sequence in enumerate((
        [(run + mc, {"outputs.csv", "ledger.csv"} | reports),
         (run + ["--mode", "ideal"], {"outputs.csv"})],
        [(run + ["--mode", "nominal", "--trace"], {"outputs.csv", "ledger.csv", "trace.csv"}),
         (run + ["--mode", "nominal"], {"outputs.csv", "ledger.csv"})],
        [(run + mc, {"outputs.csv", "ledger.csv"} | reports),
         (["mc", "--program", str(program), "--trials", "3"], reports)],
    )):
        out = tmp_path / f"out{i}"
        out.mkdir()
        (out / "notes.txt").write_text("not an artifact\n")
        for argv, artifacts in sequence:
            assert main([*argv, "--out", str(out)]) in (0, 1)
            assert {p.name for p in out.iterdir()} == artifacts | {"notes.txt"}, argv


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
    # row_assignment and stats, by a lowering that built 18 gates where
    # today's builds 15: it loads, runs, and computes a fresh compile's outputs
    src, inputs = adder
    fresh = tmp_path / "fresh.json"
    assert main(["compile", str(src), "-o", str(fresh)]) == 0
    v1 = json.loads(FULL_ADDER_V1.read_text())
    assert v1["version"] == 1 and "row_assignment" in v1 and "stats" in v1
    assert json.loads(fresh.read_text())["version"] == 2
    assert (len(PimProgram.from_json(FULL_ADDER_V1).ops), len(PimProgram.from_json(fresh).ops),
            len(v1["ops"])) == (23, 20, 23)
    outs = []
    for prog in (FULL_ADDER_V1, fresh):
        out = tmp_path / f"run{len(outs)}"
        assert main(["run", str(prog), "--inputs", str(inputs), "--mode", "nominal",
                     "--out", str(out)]) == 0
        outs.append((out / "outputs.csv").read_bytes())
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
    assert summary["ops"] == 20
    # fsum totals: the report's energy is the program's, exactly
    energy = PimProgram.from_json(tmp_path / "adder.compiled.json").energy_fj
    assert summary["energy_fj"] == summary["files"][0]["energy_fj"] == energy


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
                 "--out", str(tmp_path / "typo")]) == 5
    assert "e_dual_sense'" in capsys.readouterr().err


def test_a_malformed_timing_section_is_a_malformed_program(adder, tmp_path, capsys):
    src, inputs = adder
    fresh = tmp_path / "fresh.json"
    assert main(["compile", str(src), "-o", str(fresh)]) == 0
    for key, value, message in (("e_write_fj", "x", "timing_energy.e_write_fj must be"),
                                ("t_write_ns", 0, "t_write_ns must be positive"),
                                ("bogus", 1, "unknown keys in section 'timing_energy'")):
        data = json.loads(fresh.read_text())
        data["timing_energy"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", str(bad), "--inputs", str(inputs),
                     "--out", str(tmp_path / "bad")]) == 5, key
        err = capsys.readouterr().err
        assert err.startswith("gcpim: malformed program:"), err
        assert message in err, err


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
    EventLedger(
        TimingEnergyConfig(), 64,
        [MicroOp(OpKind.REFRESH, (row,), t_start_ns=4 * row) for row in range(3)],
    ).to_csv(refreshing)
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


@pytest.mark.parametrize("row, problem", [
    ("0,1,WRITE,3,nan", "non-finite energy"),
    ("0,-5,REFRESH,3,1.0", "negative time"),
    ("x,1,WRITE,3,364.8", "invalid literal for int() with base 10: 'x'"),
    ("0,1,WRITE,3", "not enough values to unpack"),
    ("0,1,FOO,3,1.0", "unknown op 'FOO'"),
])
def test_report_rejects_a_malformed_ledger_row_at_its_line(tmp_path, capsys, row, problem):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text("start_ns,duration_ns,op,rows,energy_fj\r\n"
                      "0,1,WRITE,3,364.8\r\n\r\n" + row + "\r\n")
    assert main(["report", str(ledger)]) == 5
    err = capsys.readouterr().err
    assert f"{ledger}:4: " in err and problem in err  # the blank line counts


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
        (lambda d: d["ops"][0].update(op="NAND"), "unknown op 'NAND'"),
        (lambda d: d["ops"][0].update(op=["WRITE"]), "wrong-typed value"),
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
        # an op entry's keys are the seven a program file writes
        (lambda d: next(op for op in d["ops"] if op["op"] == "LOGIC").update(
            bits=[1, 0], nodes=3), "op entry has unknown keys ['bits', 'nodes']"),
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

    def literal(data):  # the first WRITE holds 64 literal bits, not a source
        write = first(data, "WRITE")
        write["bits"] = [int(write.pop("source") == "const:1")] * 64

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
         "WRITE needs a source", ["nominal", "mc"]),
        (literal, "WRITE needs a source", ["nominal", "mc"]),
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


@pytest.mark.parametrize("collecting", [True, False])
def test_a_command_leaves_the_collector_as_the_caller_had_it(
        adder, tmp_path, capsys, monkeypatch, collecting):
    # main pauses the cyclic collector for the command; it comes back on
    # after every exit only if it was on before
    src, inputs = adder
    bad, big, floor = tmp_path / "bad.txt", tmp_path / "big.txt", tmp_path / "floor.json"
    bad.write_text("out = a &&& b;\n")
    big.write_text("out = " + " | ".join(f"x{i}" for i in range(70)) + ";\n")
    floor.write_text('{"version": 1, "run": {"success_floor": 0.9999}}')
    prog = tmp_path / "adder.json"

    def unmapped(args):
        raise RuntimeError("not an exit code")

    monkeypatch.setattr(cli_mod, "cmd_calibrate", unmapped)
    calls = [(0, ["compile", str(src), "-o", str(prog)]),
             (1, ["mc", "--gate", "NOT", "--arity", "1", "--trials", "2000", "--age", "5000",
                  "--config", str(floor), "--out", str(tmp_path / "m")]),
             (2, ["compile", str(bad)]),
             (3, ["compile", str(big)]),
             (5, ["run", str(tmp_path / "nope.json"), "--inputs", str(inputs)]),
             (RuntimeError, ["calibrate"])]
    was = gc.isenabled()
    try:
        for code, argv in calls:
            (gc.enable if collecting else gc.disable)()
            if code is RuntimeError:
                with pytest.raises(RuntimeError):
                    main(argv)
            else:
                assert main(argv) == code, argv
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    # 141: a run into a closed stdout, in a child that needs a stdout of its own
    read_end, write_end = os.pipe()
    os.close(read_end)
    check = ("import gc, sys\nfrom gcpim.cli import main\n"
             f"{'gc.enable()' if collecting else 'gc.disable()'}\n"
             "code = main(sys.argv[1:])\nsys.stderr.write(f'{code} {gc.isenabled()}')\n")
    try:
        done = subprocess.run(
            [sys.executable, "-c", check, "run", str(prog), "--inputs", str(inputs),
             "--out", str(tmp_path / "piped")],
            env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == f"141 {collecting}"


def test_a_gate_campaign_past_32_inputs_runs_no_trial(tmp_path, capsys, monkeypatch):
    # combination 2^32 and on would take streams past 2^64, and 2^33
    # combinations never finish: refused before the first trial
    calls = []
    monkeypatch.setattr(mc_mod, "run_gate_trials", lambda *a, **k: calls.append(a))
    assert main(["mc", "--gate", "NOR", "--arity", "33", "--out", str(tmp_path / "m")]) == 2
    assert "gate arity must be >= 1 and <= 32, got 33" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "m").exists()


def test_negative_starts_and_impossible_headers_are_malformed(adder, tmp_path, capsys):
    # each of these used to run (and write a ledger `report` refuses) or
    # exit with a usage error
    src, inputs = adder
    good = tmp_path / "good.json"
    assert main(["compile", str(src), "-o", str(good)]) == 0
    bad = tmp_path / "bad.json"
    for edit, message in (
        (lambda d: d["ops"][0].update(t_start_ns=-3),
         "WRITE op starts at a negative time -3ns"),
        (lambda d: d.update(drt_logic_ns=20, drt_read_ns=10),
         "need 0 < drt_logic_ns <= drt_read_ns, got 20 and 10"),
        (lambda d: d.update(drt_logic_ns=-5), "need 0 < drt_logic_ns <= drt_read_ns, got -5"),
        (lambda d: d.update(drt_logic_ns=0), "need 0 < drt_logic_ns <= drt_read_ns, got 0"),
        (lambda d: d.update(cols=0), "a 64x0 array has no cells"),
        (lambda d: d.update(rows=-2), "a -2x64 array has no cells"),
    ):
        data = json.loads(good.read_text())
        edit(data)
        bad.write_text(json.dumps(data))
        for mode in ("ideal", "nominal", "mc"):
            capsys.readouterr()
            assert main(["run", str(bad), "--inputs", str(inputs), "--mode", mode,
                         "--trials", "2", "--out", str(tmp_path / "out")]) == 5, message
            err = capsys.readouterr().err
            assert f"gcpim: malformed program: {message}" in err, err
        capsys.readouterr()
        assert main(["mc", "--program", str(bad), "--trials", "2",
                     "--out", str(tmp_path / "mc")]) == 5, message
        assert message in capsys.readouterr().err


def test_a_refreshing_nominal_run_keeps_its_bytes(tmp_path):
    # the half adder at 40/12 ns windows: 15 ops, 3 of them REFRESH
    src = tmp_path / "half.txt"
    src.write_text("s = a ^ b;\nc = a & b;\n")
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(
        {"version": 1, "model": {"drt_read_ns": 40, "drt_logic_ns": 12}}))
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("a,b\n0,0\n0,1\n1,0\n1,1\n")
    prog = tmp_path / "half.json"
    assert main(["compile", str(src), "-o", str(prog), "--config", str(cfg)]) == 0
    ops = json.loads(prog.read_text())["ops"]
    assert (len(ops), sum(op["op"] == "REFRESH" for op in ops)) == (15, 3)
    out = tmp_path / "run"
    assert main(["run", str(prog), "--inputs", str(inputs), "--config", str(cfg),
                 "--mode", "nominal", "--trace", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("trace.csv", "ledger.csv")}
    assert digests == {
        "trace.csv": "29eadc829975e7b96711b4032134300a7a646cbac5d0d79882df31d40dbc4223",
        "ledger.csv": "5ec913a41813b4b40135128ee4a8657528299d029cac1273a3384767fbb3e6bd",
    }


# a statement (on line 2) or a file nested deeper than the recursive
# parser, the lowerer or the JSON reader descends
DEEP_INPUTS = {
    "xor-terms": ("compile", "o = " + " ^ ".join(f"x{i}" for i in range(1200)) + ";", 2,
                  "gcpim: syntax error: 2:1: expression nests too deeply"),
    "nots": ("compile", "o = " + "~" * 1200 + "a;", 2,
             "gcpim: syntax error: 2:1: expression nests too deeply"),
    "parentheses": ("compile", "o = " + "(" * 1200 + "a" + ")" * 1200 + " & b;", 2,
                    "gcpim: syntax error: 2:1: expression nests too deeply"),
    "program-file": ("run", "[" * 100_000, 5, "gcpim: malformed program:"),
    "config-file": ("--config", "[" * 100_000, 2, "gcpim: error:"),
}


@pytest.mark.parametrize("case", sorted(DEEP_INPUTS))
def test_deep_nesting_exits_with_a_documented_code(tmp_path, capsys, case):
    command, text, code, message = DEEP_INPUTS[case]
    deep = tmp_path / "deep"
    deep.write_text(f"# nested\n{text}\n" if command == "compile" else text)
    half = tmp_path / "half.txt"
    half.write_text("s = a ^ b;\nc = a & b;\n")
    inputs = tmp_path / "ab.csv"
    inputs.write_text("a,b\n0,1\n")
    out = str(tmp_path / "out.json")
    argv = {"compile": ["compile", str(deep), "-o", out],
            "run": ["run", str(deep), "--inputs", str(inputs), "--out", str(tmp_path / "r")],
            "--config": ["compile", str(half), "-o", out, "--config", str(deep)]}[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
}


@settings(max_examples=150, deadline=None)
@example(index=0, edit=("t_start_ns", -3))  # used to run, writing a negative start
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
        out = Path(tmp) / "out"
        rc = main(["run", str(prog), "--inputs", str(inputs), "--mode", "nominal",
                   "--out", str(out)])
        assert rc in README_EXIT_CODES
        if rc == 0:  # a run writes only ledgers that `report` reads
            assert main(["report", str(out / "ledger.csv")]) == 0


def _set_op(i, **fields):
    """An edit of op entry ``i``: each field set, or deleted for ``...``."""
    def edit(data):
        for key, value in fields.items():
            if value is ...:
                del data["ops"][i][key]
            else:
                data["ops"][i][key] = value
    return edit


def _edits(*edits):
    def edit(data):
        for one in edits:
            one(data)
    return edit


def _set_netlist(**fields):
    def edit(data):
        data["netlist"].update(fields)
    return edit


def _set_node(i, **fields):
    def edit(data):
        data["netlist"]["nodes"][i].update(fields)
    return edit


def _replace_op(i, value):
    def edit(data):
        data["ops"][i] = value
    return edit


_LOGIC_4 = "{'op': 'LOGIC', 'rows': [0, 1], 't_start_ns': %s, 'out_row': 3, 'node': 3}"
# one corruption of EDITED_PROGRAM per row (op 2 is a WRITE, 4-16 are LOGIC
# ops and 17 a READ) and the message ``run`` printed for it, as recorded
# before the ops were stored column-wise; the first bad op is the one named
CORRUPTIONS = {
    "a list entry": (_replace_op(4, [1, 2]), "program file holds a wrong-typed value: "
                     "'list' object has no attribute 'get'"),
    "a number entry": (_replace_op(4, 7), "program file holds a wrong-typed value: "
                       "'int' object has no attribute 'get'"),
    "true as a start": (_set_op(4, t_start_ns=True),
                        "program file holds a wrong-typed value: op " + _LOGIC_4 % "True"),
    "true as a row": (_set_op(17, rows=[True]), "program file holds a wrong-typed value: op "
                      "{'op': 'READ', 'rows': [True], 't_start_ns': 43, 'output': 's'}"),
    "a float out_row": (_set_op(5, out_row=3.0), "program file holds a wrong-typed value: op "
                        "{'op': 'LOGIC', 'rows': [0, 3], 't_start_ns': 7, 'out_row': 3.0, "
                        "'node': 4}"),
    "an int source": (_set_op(1, source=1), "program file holds a wrong-typed value: op "
                      "{'op': 'WRITE', 'rows': [0], 't_start_ns': 1, 'source': 1}"),
    "a missing key": (_set_op(4, rows=...), "program file lacks the 'rows' key"),
    "an unknown op": (_set_op(4, op="NAND"), "unknown op 'NAND'"),
    "an unknown key": (_set_op(4, bits=[1]), "op entry has unknown keys ['bits']"),
    "a negative start": (_set_op(17, t_start_ns=-3), "READ op starts at a negative time -3ns"),
    "a negative row": (_set_op(4, rows=[-1, 1]), "negative row in (-1, 1)"),
    "a negative out_row": (_set_op(4, out_row=-2), "negative row -2 as the output"),
    "in-place LOGIC": (_set_op(4, out_row=1),
                       "in-place logic is undefined: output row 1 is also an input"),
    "duplicate LOGIC rows": (_set_op(4, rows=[0, 0]), "duplicate input rows in (0, 0)"),
    "LOGIC without rows": (_set_op(4, rows=[]), "LOGIC op needs at least one row"),
    "LOGIC without out_row": (_set_op(4, out_row=...), "LOGIC op needs an output row"),
    "two rows on a READ": (_set_op(17, rows=[4, 5]), "READ op takes exactly one row"),
    "an out_row on a READ": (_set_op(17, out_row=5), "READ op has no output row"),
    "an out_row on a WRITE": (_set_op(2, out_row=5), "WRITE op has no output row"),
    "a WRITE without a source": (_set_op(2, source=...), "WRITE needs a source"),
    "a source on a LOGIC op": (_set_op(4, source="input:a"), "LOGIC op carries no data"),
    "a node on a READ": (_set_op(17, node=7), "READ op computes no node"),
    "an output on a WRITE": (_set_op(2, output="s"), "WRITE op senses no output"),
    "an output on a LOGIC op": (_set_op(5, output="s"), "LOGIC op senses no output"),
    "a rule, then a type": (_edits(_set_op(4, out_row=1), _set_op(9, t_start_ns="9")),
                            "in-place logic is undefined: output row 1 is also an input"),
    "a type, then a rule": (_edits(_set_op(4, t_start_ns="9"), _set_op(9, out_row=0)),
                            "program file holds a wrong-typed value: op " + _LOGIC_4 % "'9'"),
    "a rule, then a key": (_edits(_set_op(4, rows=[0, 0]), _set_op(9, bits=1)),
                           "duplicate input rows in (0, 0)"),
    "a key, then a rule": (_edits(_set_op(4, bits=1), _set_op(9, rows=[0, 0])),
                           "op entry has unknown keys ['bits']"),
    "a rule and a key in one op": (_set_op(4, rows=[0, 0], bits=1),
                                   "duplicate input rows in (0, 0)"),
    "an unknown op and a rule in one op": (_set_op(4, op="NAND", rows=[0, 0]),
                                           "unknown op 'NAND'"),
    # the netlist loader
    "an argument past its node": (
        _set_node(4, args=[0, 9]), "node 4 references a node outside 0..3: "
        "Node(op='nor', args=(0, 9), name=None, value=None)"),
    "a negative argument": (
        _set_node(3, args=[-1, 1]), "node 3 references a node outside 0..2: "
        "Node(op='nor', args=(-1, 1), name=None, value=None)"),
    "an argument past 64 bits": (
        _set_node(4, args=[0, 2**70]), "node 4 references a node outside 0..3: "
        "Node(op='nor', args=(0, 1180591620717411303424), name=None, value=None)"),
    "a negative argument past 64 bits": (
        _set_node(3, args=[-2**64, 1]), "node 3 references a node outside 0..2: "
        "Node(op='nor', args=(-18446744073709551616, 1), name=None, value=None)"),
    "true as an argument": (_set_node(3, args=[0, True]), "program file holds a wrong-typed "
                            "value: node {'op': 'nor', 'args': [0, True]}"),
    "an output id past the nodes": (
        _set_netlist(outputs=[["s", 7], ["c", 17]]),
        "outputs [('s', 7), ('c', 17)] name a node outside the netlist"),
    "a negative output id": (
        _set_netlist(outputs=[["s", -1], ["c", 16]]),
        "outputs [('s', -1), ('c', 16)] name a node outside the netlist"),
    "an input named twice": (
        _set_netlist(inputs=["a", "a", "b"]),
        "inputs ['a', 'a', 'b'] do not name the input nodes ['a', 'b', 'cin'] once each"),
    "an input left out": (
        _set_netlist(inputs=["a", "cin"]),
        "inputs ['a', 'cin'] do not name the input nodes ['a', 'b', 'cin'] once each"),
    "orphan nodes": (_set_netlist(outputs=[["s", 7]]),
                     "unreachable nodes: [2, 8, 9, 10, 11, 12, 13, 14, 15, 16]"),
    # outputs.csv has one column per output name
    "an output named twice": (
        _set_netlist(outputs=[["s", 7], ["c", 16], ["s", 7]]),
        "outputs [('s', 7), ('c', 16), ('s', 7)] name an output more than once"),
    "one output name on two nodes": (
        _set_netlist(outputs=[["s", 7], ["s", 16]]),
        "outputs [('s', 7), ('s', 16)] name an output more than once"),
    # a run would have nothing to read or score
    "an empty program": (_edits(_set_netlist(inputs=[], nodes=[], outputs=[]),
                                lambda data: data.update(ops=[])),
                         "a netlist needs at least one output"),
}


@pytest.mark.parametrize("edit, message", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
def test_a_corrupted_program_file_exits_5_with_its_message(tmp_path, capsys, edit, message):
    data = json.loads(json.dumps(EDITED_PROGRAM))
    edit(data)
    prog, inputs = tmp_path / "prog.json", tmp_path / "in.csv"
    prog.write_text(json.dumps(data))
    inputs.write_text("a,cin,b\n0,1,1\n")
    capsys.readouterr()
    assert main(["run", str(prog), "--inputs", str(inputs), "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err == f"gcpim: malformed program: {message}\n"


@pytest.mark.parametrize("command", [["run", "--mode", "ideal"], ["run", "--mode", "mc"],
                                     ["mc", "--program"]], ids=["run-ideal", "run-mc", "mc-program"])
def test_an_empty_program_file_exits_5_in_the_other_modes(tmp_path, capsys, command):
    # CORRUPTIONS runs it in nominal mode
    data = {**EDITED_PROGRAM, "netlist": {"inputs": [], "nodes": [], "outputs": []}, "ops": []}
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([*command, str(prog), "--trials", "2", "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err == (
        "gcpim: malformed program: a netlist needs at least one output\n")
    assert not (tmp_path / "out").exists()


CLI_EXPRESSIONS = st.recursive(
    st.sampled_from(["a", "b", "c", "d", "e", "0", "1"]),
    lambda inner: inner.map(lambda e: f"~{e}") | st.tuples(
        inner, st.sampled_from("&|^"), inner).map(lambda t: "({} {} {})".format(*t)),
    max_leaves=20)


@contextlib.contextmanager
def wall_time_limit(seconds: float):
    """Fail the enclosed block, in process, once it has run ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def accepted_configs_and_sources(draw):
    """A config over the ranges the validators are asked to accept, and a
    source of random expressions behind an optional NOT-chain filler whose
    links ``~(f | 0)`` the lowering cannot cancel as it would ``~~f``."""
    drt_read = draw(st.integers(20, 20_000))
    model = {"drt_read_ns": drt_read, "drt_logic_ns": draw(st.integers(1, drt_read))}
    vdd, v_sa_read = 0.9, 0.45
    if draw(st.booleans()):  # 0 < v_residual_floor < v_sa_read < vdd, 0 <= v_t_drive < v_sa_read
        vdd = draw(st.floats(0.1, 3.0))
        v_sa_read = vdd * draw(st.floats(0.05, 0.95))
        model.update(vdd=vdd, v_sa_read=v_sa_read,
                     v_residual_floor=v_sa_read * draw(st.floats(0.01, 0.95)),
                     v_t_drive=v_sa_read * draw(st.floats(0, 0.95)))
    # tau_ns at or above the calibrated one, below which a '1' misreads
    # before drt_read_ns; the default tau only where it is above too
    tau_min = calibrate_tau(vdd, v_sa_read, drt_read)
    if draw(st.booleans()) or tau_min > DEFAULT_TAU_NS:
        model["tau_ns"] = tau_min * draw(st.floats(1, 100))
    # rows >= max_nor_arity + 3 >= 5: a gate's inputs, its output and the two constant rows
    rows = draw(st.integers(5, 7) | st.integers(8, 128) | st.integers(129, 256))
    config = {"version": 1, "model": model,
              "compiler": {"rows": rows, "max_nor_arity": draw(st.integers(2, min(8, rows - 3)))},
              "timing_energy": {name: draw(st.integers(1, 4)) for name in
                                ("t_write_ns", "t_read_ns", "t_init_ns", "t_eval_ns")}}
    links = draw(st.integers(0, 150))
    filler = [f"f{i} = ~{'a' if i == 0 else f'(f{i - 1} | 0)'};" for i in range(links)]
    exprs = draw(st.lists(CLI_EXPRESSIONS, min_size=1, max_size=4))
    return config, "\n".join(filler + [f"o{k} = {e};" for k, e in enumerate(exprs)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=accepted_configs_and_sources())
def test_every_accepted_config_compiles_and_runs_or_fails_typed(case):
    # compile succeeds, or fails as a syntax/config (2) or resource (3)
    # error; a compiled program's nominal run, on every input combination
    # (one column for a program of constants), is right or raises (3), and
    # its mc run passes the floor, falls below it (1) or raises (3)
    config, source = case
    with tempfile.TemporaryDirectory() as tmp, wall_time_limit(20):
        cfg, src, prog = Path(tmp) / "cfg.json", Path(tmp) / "p.txt", Path(tmp) / "p.json"
        cfg.write_text(json.dumps(config))
        src.write_text(source)
        rc = main(["compile", str(src), "-o", str(prog), "--config", str(cfg)])
        assert rc in (0, 2, 3)
        if rc == 0:
            assert main(["run", str(prog), "--mode", "nominal", "--config", str(cfg),
                         "--out", str(Path(tmp) / "out")]) in (0, 3)
            assert main(["run", str(prog), "--mode", "mc", "--trials", "2", "--config",
                         str(cfg), "--out", str(Path(tmp) / "mc")]) in (0, 1, 3)


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


@pytest.mark.parametrize("text, message", [
    ("a,b\n0,1\n\n\n1,2\n", ":5: '2' is not a bit"),
    ("a,b\n\n0,1\n1,0,1\n", ":4: 3 cells, expected 2"),
])
def test_an_input_csv_error_names_the_file_line_past_blank_lines(
        tmp_path, capsys, text, message):
    src, prog, csv_path = tmp_path / "and.txt", tmp_path / "and.json", tmp_path / "in.csv"
    src.write_text("o = a & b;\n")
    assert main(["compile", str(src), "-o", str(prog)]) == 0
    csv_path.write_text(text)
    capsys.readouterr()
    assert main(["run", str(prog), "--inputs", str(csv_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"gcpim: error: {csv_path}{message}\n"


def test_csvs_with_a_byte_order_mark_read_as_plain_ones(adder, tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with a BOM, which is not part of
    # the first column's name
    src, inputs = adder
    main(["compile", str(src)])
    compiled = tmp_path / "adder.compiled.json"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + inputs.read_bytes())
    for name, csv_path in (("plain", inputs), ("bom", bom)):
        assert main(["run", str(compiled), "--inputs", str(csv_path),
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "bom" / "outputs.csv").read_bytes()
            == (tmp_path / "plain" / "outputs.csv").read_bytes())
    # and so does a ledger given to report
    ledger = tmp_path / "plain" / "ledger.csv"
    bom_ledger = tmp_path / "bom_ledger.csv"
    bom_ledger.write_bytes(b"\xef\xbb\xbf" + ledger.read_bytes())
    capsys.readouterr()
    assert main(["report", str(ledger)]) == 0
    plain_report = capsys.readouterr().out
    assert main(["report", str(bom_ledger)]) == 0
    assert capsys.readouterr().out == plain_report.replace(str(ledger), str(bom_ledger))


def aged_and_source() -> str:
    chain = ["t0 = ~b;"]
    for i in range(1, 40):
        chain.append(f"t{i} = ~(t{i - 1} | 0);")
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
    src.write_text("t0 = ~a;\n" + "".join(f"t{i} = ~(t{i - 1} | 0);\n" for i in range(1, 30))
                   + "out = ~(a | b | c | d | t29);\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "compiler": {"max_nor_arity": 4},
                               "model": {"drt_read_ns": 1000, "drt_logic_ns": 12}}))
    done = compile_in_a_capped_process(src, cfg)
    assert done.returncode == 3, done.stderr
    assert "more than the 12ns logic window" in done.stderr


def test_compile_whose_live_rows_outlast_their_refreshes_exits_3(tmp_path):
    # before op 8 five rows are live; a round of 5 ns refreshes takes 25 ns,
    # but a refreshed row is due again 21 ns after its refresh starts, so
    # refreshing never leaves room for the op; ~(x | 0) is a NOT gate (a NOR
    # with the constant row) that the lowering keeps, where ~(x | x) and
    # ~~x would cancel
    src = tmp_path / "live.txt"
    src.write_text("f0 = ~(a | 0);\nf1 = ~(f0 | 0);\nf2 = ~(a | f1);\no0 = ~(f1 | 0);\n"
                   "o1 = ~(f1 | f0);\no2 = ~(f1 | f2);\no3 = ~(f2 | f0);\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "model": {"drt_read_ns": 20, "drt_logic_ns": 17},
                               "timing_energy": {"t_read_ns": 4, "t_init_ns": 2}}))
    done = compile_in_a_capped_process(src, cfg)
    assert done.returncode == 3, done.stderr
    assert ("op 8 never starts: 5 live rows, refreshed 5ns apart, outlast the 20ns read "
            "window") in done.stderr


def compile_in_a_capped_process(src, cfg) -> subprocess.CompletedProcess:
    """``gcpim compile`` in a child with 2 GiB of address space and 30 s,
    so a compile that never ends fails the test rather than hanging it."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "gcpim.cli", "compile", str(src), "--config", str(cfg),
         "-o", str(src.with_suffix(".json"))],
        env=_cli_env(), capture_output=True, text=True, timeout=30, preexec_fn=cap_memory)


def _cli_env() -> dict:
    """The environment of a spawned ``python -m gcpim.cli``."""
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_run_into_a_closed_stdout_exits_141_and_prints_no_error(
        adder, tmp_path, capsys, unbuffered):
    # `gcpim run ... | head -1` with the reader already gone: an unbuffered
    # stdout fails at the first line, a buffered one when main flushes it
    src, inputs = adder
    prog, out = tmp_path / "adder.json", tmp_path / "out"
    assert main(["compile", str(src), "-o", str(prog)]) == 0
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gcpim.cli", "run", str(prog), "--inputs", str(inputs),
             "--out", str(out)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    assert sorted(os.listdir(out)) == ["ledger.csv", "outputs.csv"]
