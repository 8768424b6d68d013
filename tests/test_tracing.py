"""The benchmark's span tracer still finds every name it wraps.

``bench/tracing.py`` patches functions where gcpim looks them up.  A
rename or a changed lookup would otherwise surface only when the traced
benchmark runs; here the tracer is loaded from its source (nothing is
written under ``bench/``), entered and exited around one compile, and
around a traced nominal run and a small program Monte Carlo, whose
per-layer counts read zero if the array kernels stop calling the
patched names.
"""

import types
from pathlib import Path

from gcpim.cli import main
from gcpim.compiler import compile_program

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_the_benchmark_tracer_wraps_and_restores_every_target():
    tracing = load_tracing()
    targets = ([(owner, attr) for _, owner, attr, _ in tracing.SPANS]
               + [(owner, attr) for _, owner, attr in tracing.COUNTERS])
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.Tracer() as tracer:
        assert all(owner.__dict__[attr] is not raw
                   for (owner, attr), raw in zip(targets, before))
        compile_program("s = a ^ b;\nc = a & b;")
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in zip(targets, before))
    metrics = tracer.layer_metrics()
    assert tracer.nesting_problems() == []
    assert metrics["expr.statements"] == 2
    for stage in ("netlist.lower_s", "allocate.allocate_s", "program.emit_s",
                  "program.insert_refresh_s"):
        assert metrics[stage] > 0, stage


def test_the_run_path_goes_through_every_patched_kernel(tmp_path):
    tracing = load_tracing()
    source = tmp_path / "half.txt"
    source.write_text("s = a ^ b;\nc = a & b;\n")
    program = tmp_path / "half.json"
    inputs = tmp_path / "ab.csv"
    inputs.write_text("a,b\n0,0\n0,1\n1,0\n1,1\n")
    assert main(["compile", str(source), "-o", str(program)]) == 0
    run = ["run", str(program), "--inputs", str(inputs), "--mode", "nominal"]
    # a traced nominal run keeps the array path; an untraced one is
    # certified by its margin and simulates no cell
    for command in ([*run, "--trace"], ["mc", "--program", str(program), "--trials", "8"]):
        with tracing.Tracer() as tracer:
            assert main([*command, "--out", str(tmp_path / "out")]) == 0, command
        metrics = tracer.layer_metrics()
        assert tracer.nesting_problems() == []
        for name in ("subarray.logic_calls", "charge.overdrive_calls",
                     "charge.residual_calls"):
            assert metrics[name] > 0, (command[0], name)
    # the 8 trials draw one grid each and all run on one block array
    assert metrics["montecarlo.sample_params_calls"] == 8
    assert metrics["subarray.instances"] == 1
    with tracing.Tracer() as tracer:
        assert main([*run, "--out", str(tmp_path / "out")]) == 0
    metrics = tracer.layer_metrics()
    assert metrics["subarray.logic_calls"] == metrics["simulate.run_on_array_calls"] == 0


def test_a_traced_command_after_an_untraced_one_is_still_booked(tmp_path):
    # the CLI builds its parser once and looks each cmd_* up per call, so
    # a tracer entered after the first command still sees every later one
    tracing = load_tracing()
    source = tmp_path / "half.txt"
    source.write_text("s = a ^ b;\nc = a & b;\n")
    assert main(["compile", str(source), "-o", str(tmp_path / "plain.json")]) == 0
    with tracing.Tracer() as tracer:
        assert main(["compile", str(source), "-o", str(tmp_path / "traced.json")]) == 0
    metrics = tracer.layer_metrics()
    assert metrics["cli.compile_s"] > 0
    assert metrics["program.emit_s"] > 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
