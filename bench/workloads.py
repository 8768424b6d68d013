"""The three workloads, each a closed loop of in-process ``gcpim`` CLI calls.

A workload generates its inputs from the seed in ``setup()``; every
``run_pass()`` then makes the same fixed sequence of calls, each one
waiting for the previous.  Only the calls themselves are timed; the
checks that follow each pass read the written artifacts and compare them
with the references in ``corpus.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gcpim.cli import main as gcpim_main
from gcpim.compiler.program import PimProgram

import corpus

FLOOR = 0.99  # the CLI's default success floor


@dataclass
class Call:
    rc: int
    seconds: float
    output: str


class Cli:
    """Runs ``gcpim`` in-process with its terminal output captured.

    With a tracer attached, the tracer's wrappers are installed for the
    duration of each call only, so the benchmark's own checks stay
    untraced.
    """

    def __init__(self) -> None:
        self.tracer = None

    def __call__(self, *argv) -> Call:
        buf = io.StringIO()
        tracing = self.tracer if self.tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), tracing:
            t0 = perf_counter()
            try:
                rc = gcpim_main([str(a) for a in argv])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what a crashing CLI process would print
                traceback.print_exc()
                rc = 1
            seconds = perf_counter() - t0
        return Call(rc, seconds, buf.getvalue())


@dataclass
class PassResult:
    seconds: float = 0.0        # time inside CLI calls
    work: float = 0.0           # the workload's work units
    work_seconds: float = 0.0   # time of the calls that did that work
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # wrong outputs: not correct
    failures: list = field(default_factory=list)   # failed calls, for the log
    digests: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)    # named sums for the report
    call_seconds: dict = field(default_factory=dict)  # label -> time of that call

    def add(self, name: str, value: float) -> None:
        self.figures[name] = self.figures.get(name, 0) + value

    def call(self, cli: Cli, label: str, *argv, ok_codes=(0,)) -> Call:
        c = cli(*argv)
        self.seconds += c.seconds
        self.call_seconds[label] = c.seconds
        self.attempted += 1
        if c.rc not in ok_codes:
            self.failed += 1
            last = c.output.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit {c.rc}: {last[0]}")
        return c

    def digest(self, label: str, path: str) -> None:
        with open(path, "rb") as fh:
            self.digests[label] = hashlib.sha256(fh.read()).hexdigest()


def read_ledger(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ledger_makespan(rows: list[dict]) -> int:
    return max(int(r["start_ns"]) + int(r["duration_ns"]) for r in rows)


def check_outputs(res: PassResult, label: str, path: str, expected: dict) -> None:
    got = corpus.read_bits_csv(path)
    if sorted(got) != sorted(expected):
        res.problems.append(f"{label}: outputs {sorted(got)} != {sorted(expected)}")
        return
    for name, bits in expected.items():
        if not np.array_equal(got[name], bits):
            bad = int(np.sum(got[name] != bits))
            res.problems.append(f"{label}: output {name} wrong in {bad} columns")


def check_report(res: PassResult, label: str, call: Call, path: str,
                 trials_for: dict[str, int]) -> dict:
    """MC report: every combination present with its trial count, the
    failure breakdown summing to the failures, and the exit code agreeing
    with the floor verdict.  Returns the combinations."""
    with open(path) as fh:
        combos = json.load(fh)["combinations"]
    if sorted(combos) != sorted(trials_for):
        res.problems.append(f"{label}: combinations {sorted(combos)} != {sorted(trials_for)}")
        return combos
    for key, c in combos.items():
        if c["trials"] != trials_for[key]:
            res.problems.append(f"{label}: {key} ran {c['trials']} trials, not {trials_for[key]}")
        if not 0 <= c["successes"] <= c["trials"]:
            res.problems.append(f"{label}: {key} successes out of range")
        if sum(c["failures"].values()) != c["trials"] - c["successes"]:
            res.problems.append(f"{label}: {key} failure breakdown does not add up")
    worst = min(c["successes"] / c["trials"] for c in combos.values())
    if call.rc != (1 if worst < FLOOR else 0):
        res.problems.append(f"{label}: exit {call.rc} disagrees with worst case {worst:.4f}")
    res.add("mc_successes", sum(c["successes"] for c in combos.values()))
    res.digest(f"{label}/report.json", path)
    return combos


def smoke(cli: Cli, workdir: str, res: PassResult) -> None:
    """One short call of every subcommand, touching every layer and op kind
    (the tight half adder needs refreshes).  Runs as set-up warm-up and at
    the start of every traced iteration."""
    d = os.path.join(workdir, "smoke")
    os.makedirs(d, exist_ok=True)
    src, prog, tight = (os.path.join(d, f) for f in ("ha.txt", "ha.json", "tight.json"))
    inputs, tight_prog = os.path.join(d, "ha.csv"), os.path.join(d, "ha_tight.json")
    with open(src, "w") as fh:
        fh.write(corpus.HALF_ADDER)
    vec = corpus.make_vectors(["a", "b"], np.random.default_rng(0))
    corpus.write_vectors(inputs, vec)
    corpus.write_config(tight, retention=(40, 12))
    res.call(cli, "smoke compile", "compile", src, "-o", prog)
    res.call(cli, "smoke compile", "compile", src, "-o", tight_prog, "--config", tight)
    res.call(cli, "smoke run", "run", tight_prog, "--inputs", inputs, "--config", tight,
             "--out", os.path.join(d, "run"))
    res.call(cli, "smoke mc", "mc", "--program", prog, "--trials", 2,
             "--out", os.path.join(d, "mc"), ok_codes=(0, 1))
    res.call(cli, "smoke gate", "mc", "--gate", "NOT", "--arity", 1, "--trials", 64,
             "--out", os.path.join(d, "gate"), ok_codes=(0, 1))
    # a tolerance that covers 1 - target returns before any probe
    res.call(cli, "smoke calibrate", "calibrate", "--target", 0.99, "--tolerance", 0.5,
             "--trials", 10000, "--out", os.path.join(d, "cal.json"))
    res.call(cli, "smoke report", "report", os.path.join(d, "run", "ledger.csv"))
    check_outputs(res, "smoke", os.path.join(d, "run", "outputs.csv"),
                  corpus.small_adder_reference("half_adder", vec))


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.var_seed = corpus.variation_seed(seed)
        self.cli = Cli()

    def setup(self) -> PassResult:
        """Fresh inputs, set-up compiles and the warm-up."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        res = PassResult()
        self.prepare(res)
        smoke(self.cli, self.workdir, res)
        return res

    def prepare(self, res: PassResult) -> None:
        pass

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def summary(self, passes: list[PassResult]) -> dict:
        """Issue-level figures over all passes, as (value, unit) pairs."""
        raise NotImplementedError


def _rate(passes, num: str, den: str):
    n = sum(p.figures.get(num, 0) for p in passes)
    d = sum(p.figures.get(den, 0) for p in passes)
    return n / d if d else float("nan")


class Pipeline(Workload):
    name = "pipeline"
    work_unit = "micro-ops compiled per second of compile calls"

    def prepare(self, res: PassResult) -> None:
        self.entries = corpus.pipeline_corpus(self.workdir, self.seed)
        self.trace_entry = next(e for e in self.entries if e.name == "ripple8")
        self.trace_dir = os.path.join(self.workdir, "out", "trace")
        self.report_path = os.path.join(self.workdir, "out", "report.json")

    def run_pass(self) -> PassResult:
        res = PassResult()
        ledgers = []
        for e in self.entries:
            c = res.call(self.cli, f"compile {e.name}", "compile", e.source_path,
                         "-o", e.program_path, "--config", e.config_path)
            res.add("compile_s", c.seconds)
            res.add("compiles", 1)
            if c.rc != 0:
                res.add("compile_errors", 1)
                continue
            prog = PimProgram.from_json(e.program_path)
            res.add("compile_ops", len(prog.ops))
            res.digest(f"{e.name}/compiled.json", e.program_path)
            c = res.call(self.cli, f"run {e.name}", "run", e.program_path, "--inputs",
                         e.inputs_path, "--mode", "nominal", "--config", e.config_path,
                         "--out", e.out_dir)
            if c.rc != 0:
                continue
            rows = self.check_run(res, e, e.out_dir, prog)
            res.add("nominal_s", c.seconds)
            res.add("nominal_ops", len(rows))
            ledgers.append(os.path.join(e.out_dir, "ledger.csv"))
            if not e.tight:
                res.add("sim_ns", ledger_makespan(rows))
                res.add("sim_energy_pj", sum(float(r["energy_fj"]) for r in rows) / 1000)
                res.add("refresh_ops", sum(r["op"] == "REFRESH" for r in rows))
        res.work = res.figures.get("compile_ops", 0)
        res.work_seconds = res.figures["compile_s"]

        e = self.trace_entry
        c = res.call(self.cli, "run --trace ripple8", "run", e.program_path, "--inputs",
                     e.inputs_path, "--mode", "nominal", "--trace", "--config",
                     e.config_path, "--out", self.trace_dir)
        if c.rc == 0:
            self.check_run(res, e, self.trace_dir, PimProgram.from_json(e.program_path))
            trace_csv = os.path.join(self.trace_dir, "trace.csv")
            with open(trace_csv, "rb") as fh:
                res.add("trace_rows", sum(1 for _ in fh) - 1)
            res.add("trace_s", c.seconds)
            res.digest("trace/trace.csv", trace_csv)
            ledgers.append(os.path.join(self.trace_dir, "ledger.csv"))

        c = res.call(self.cli, "report", "report", "--json", *ledgers)
        if c.rc == 0:
            self.check_report_totals(res, c.output, ledgers)
        return res

    def check_run(self, res, e, out_dir, prog) -> list[dict]:
        check_outputs(res, e.name, os.path.join(out_dir, "outputs.csv"), e.expected)
        ledger = os.path.join(out_dir, "ledger.csv")
        rows = read_ledger(ledger)
        if ledger_makespan(rows) != prog.duration_ns:
            res.problems.append(f"{e.name}: ledger makespan {ledger_makespan(rows)} "
                                f"!= program duration {prog.duration_ns}")
        tag = os.path.basename(out_dir)
        res.digest(f"{tag}/outputs.csv", os.path.join(out_dir, "outputs.csv"))
        res.digest(f"{tag}/ledger.csv", ledger)
        return rows

    def check_report_totals(self, res, text, ledgers) -> None:
        with open(self.report_path, "w") as fh:
            fh.write(text)
        summary = json.loads(text)
        rows = [read_ledger(p) for p in ledgers]
        if summary["ops"] != sum(len(r) for r in rows):
            res.problems.append(f"report: {summary['ops']} ops, ledgers hold "
                                f"{sum(len(r) for r in rows)}")
        if summary["makespan_ns"] != max(ledger_makespan(r) for r in rows):
            res.problems.append("report: makespan disagrees with the ledgers")
        res.digest("report.json", self.report_path)

    def summary(self, passes):
        p = passes[0]
        n = len(passes)
        return {
            "compile_ops_per_s": (_rate(passes, "compile_ops", "compile_s"), "ops/s"),
            "nominal_ops_per_s": (_rate(passes, "nominal_ops", "nominal_s"), "ops/s"),
            "trace_rows_per_s": (_rate(passes, "trace_rows", "trace_s"), "rows/s"),
            "compile_errors": (f"{p.figures.get('compile_errors', 0):g}/"
                               f"{p.figures['compiles']:g}", "compiles failed per pass"),
            "sim_ns": (p.figures.get("sim_ns", 0), "ns"),
            "sim_energy_pj": (p.figures.get("sim_energy_pj", 0), "pJ"),
            "refresh_ops": (p.figures.get("refresh_ops", 0), "count"),
            "passes": (n, "count"),
        }


class ProgramMC(Workload):
    name = "program-mc"
    work_unit = "whole-program MC trials per second"
    FA_TRIALS = 300
    R8_TRIALS = 40

    def prepare(self, res: PassResult) -> None:
        d = self.workdir
        self.fa, self.r8 = (os.path.join(d, f) for f in ("fa.json", "r8.json"))
        for src, out in ((corpus.FULL_ADDER, self.fa), (corpus.ripple_source(8), self.r8)):
            path = out.replace(".json", ".txt")
            with open(path, "w") as fh:
                fh.write(src)
            res.call(self.cli, "set-up compile", "compile", path, "-o", out)
        self.r8_inputs = os.path.join(d, "r8.inputs.csv")
        names = corpus.input_names(corpus.ripple_source(8))
        self.r8_vec = corpus.make_vectors(names, np.random.default_rng([self.seed, 0]))
        corpus.write_vectors(self.r8_inputs, self.r8_vec)
        self.r8_expected = corpus.adder_reference(8, self.r8_vec)
        self.r8_combos: dict[str, int] = {}
        for c in range(corpus.N_RANDOM_VECTORS):
            key = "".join(str(int(self.r8_vec[n][c])) for n in names)
            self.r8_combos[key] = self.r8_combos.get(key, 0) + self.R8_TRIALS
        self.configs = {}
        for factor in (1, 2):
            path = os.path.join(d, f"sigma{factor}x.json")
            corpus.write_config(path, sigma_factor=factor)
            self.configs[factor] = path
        self.r8_duration = PimProgram.from_json(self.r8).duration_ns

    def run_pass(self) -> PassResult:
        res = PassResult()
        fa_combos = {format(c, "03b"): self.FA_TRIALS for c in range(8)}
        for factor, cfg in self.configs.items():
            out = os.path.join(self.workdir, "out", f"fa_{factor}x")
            c = res.call(self.cli, f"mc fa {factor}x", "mc", "--program", self.fa,
                         "--trials", self.FA_TRIALS, "--seed", self.var_seed,
                         "--config", cfg, "--out", out, ok_codes=(0, 1))
            res.work += self.FA_TRIALS
            if c.rc in (0, 1):
                check_report(res, f"fa_{factor}x", c, os.path.join(out, "report.json"),
                             fa_combos)
            out = os.path.join(self.workdir, "out", f"r8_{factor}x")
            c = res.call(self.cli, f"run mc r8 {factor}x", "run", self.r8, "--inputs",
                         self.r8_inputs, "--mode", "mc", "--trials", self.R8_TRIALS,
                         "--seed", self.var_seed, "--config", cfg, "--out", out,
                         ok_codes=(0, 1))
            res.work += self.R8_TRIALS
            if c.rc in (0, 1):
                check_report(res, f"r8_{factor}x", c, os.path.join(out, "report.json"),
                             self.r8_combos)
                check_outputs(res, f"r8_{factor}x", os.path.join(out, "outputs.csv"),
                              self.r8_expected)
                rows = read_ledger(os.path.join(out, "ledger.csv"))
                if ledger_makespan(rows) != self.r8_duration:
                    res.problems.append(f"r8_{factor}x: ledger makespan != program duration")
                res.digest(f"r8_{factor}x/ledger.csv", os.path.join(out, "ledger.csv"))
        res.work_seconds = res.seconds
        return res

    def summary(self, passes):
        return {
            "mc_trials_per_s": (sum(p.work for p in passes) / sum(p.seconds for p in passes),
                                "trials/s"),
            "mc_successes": (passes[0].figures.get("mc_successes", 0), "count"),
            "passes": (len(passes), "count"),
        }


class GateMC(Workload):
    name = "gate-mc"
    work_unit = "gate trials per second (campaign and calibration-probe trials)"
    TRIALS = 10000
    GATES = (("NOT", 1), ("NOR", 2), ("NOR", 3))
    README_NOR2 = ("01", 0.993)
    Z_999 = 3.2905  # two-sided 99.9% normal quantile

    def run_pass(self) -> PassResult:
        res = PassResult()
        for gate, k in self.GATES:
            label = f"{gate}{k}"
            out = os.path.join(self.workdir, "out", label)
            c = res.call(self.cli, f"mc {label}", "mc", "--gate", gate, "--arity", k,
                         "--trials", self.TRIALS, "--seed", self.var_seed, "--out", out,
                         ok_codes=(0, 1))
            res.work += self.TRIALS * 2**k
            if c.rc not in (0, 1):
                continue
            combos = check_report(res, label, c, os.path.join(out, "report.json"),
                                  {format(i, f"0{k}b"): self.TRIALS for i in range(2**k)})
            zero = combos.get("0" * k)
            if zero and zero["successes"] != zero["trials"]:
                # no input cell holds charge, so nothing can discharge the output
                res.problems.append(f"{label}: all-zero inputs failed")
            if label == "NOR2":
                self.check_reference(res, combos)
        self.calibrate(res)
        res.work_seconds = res.seconds
        return res

    def check_reference(self, res, combos) -> None:
        """README: NOR2 at the default seed has worst case ('01', 0.993)."""
        key = min(sorted(combos), key=lambda k: combos[k]["successes"] / combos[k]["trials"])
        rate = combos[key]["successes"] / combos[key]["trials"]
        ref_key, ref_rate = self.README_NOR2
        res.figures["nor2_worst"] = f"('{key}', {rate:g})"
        if self.var_seed == corpus.DEFAULT_VARIATION_SEED:
            if (key, rate) != (ref_key, ref_rate):
                res.problems.append(f"NOR2 worst case ('{key}', {rate}) != README {self.README_NOR2}")
        else:
            half = self.Z_999 * math.sqrt(ref_rate * (1 - ref_rate) / self.TRIALS)
            if abs(rate - ref_rate) > half:
                res.problems.append(f"NOR2 worst case {rate} outside {ref_rate} +- {half:.4f}")

    def calibrate(self, res) -> None:
        target, tol = 0.99, 0.001
        path = os.path.join(self.workdir, "out", "calibrated.json")
        c = res.call(self.cli, "calibrate", "calibrate", "--target", target, "--tolerance",
                     tol, "--trials", self.TRIALS, "--seed", self.var_seed, "--out", path)
        if c.rc != 0:
            return
        probes = [(float(s), float(r) / 100) for s, r in
                  re.findall(r"scale (\S+)\s+worst-case rate (\S+)%", c.output)]
        res.work += len(probes) * self.TRIALS
        res.add("probes", len(probes))
        if not probes or abs(probes[-1][1] - target) > tol + 5e-6:  # rate printed to 0.001%
            res.problems.append(f"calibrate: last probe {probes[-1:]} misses {target}+-{tol}")
        with open(path) as fh:
            var = json.load(fh)["variation"]
        scales = [var["sigma_tau"] / 0.10, var["sigma_sa"] / 0.02, var["sigma_drive"] / 0.017]
        if probes and not np.allclose(scales, probes[-1][0], rtol=1e-5):
            res.problems.append(f"calibrate: sigmas {var} do not match scale {probes[-1][0]}")
        res.digest("calibrated.json", path)

    def summary(self, passes):
        p = passes[0]
        return {
            "gate_trials_per_s": (sum(q.work for q in passes) / sum(q.seconds for q in passes),
                                  "trials/s"),
            "nor2_worst_case": (p.figures.get("nor2_worst", "?"), "(combination, rate)"),
            "calibrate_probes": (p.figures.get("probes", 0), "count"),
            "mc_successes": (p.figures.get("mc_successes", 0), "count"),
            "passes": (len(passes), "count"),
        }


WORKLOADS = {w.name: w for w in (Pipeline, ProgramMC, GateMC)}
