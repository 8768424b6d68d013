#!/usr/bin/env python3
"""gcpim benchmark: three workloads driving the ``gcpim`` CLI in-process.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced measurement and prints every per-layer metric.  Human-readable
figures, the correctness checks and the artifact fingerprint come first;
the last line of standard output is the JSON result.  Generated inputs
and artifacts go to ``bench/_work/<workload>/``.
"""

from __future__ import annotations

import os
import sys

# single-threaded numpy; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import gcpim.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return perf_counter() - t0


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def run_setup(wl) -> tuple[float, list]:
    """Set up SETUP_REPEATS times; the median import + set-up time."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        res = wl.setup()
        times.append(t_import + perf_counter() - t0)
        problems += res.problems + [f"set-up: {f}" for f in res.failures]
    return statistics.median(times), problems


def reference_seconds() -> float:
    """Median time of a fixed mix of interpreter, dict and small-array work
    that uses nothing from gcpim.

    On a shared host the machine's speed drifts by 20% or more from one
    minute to the next.  Dividing each pass by this reference, timed just
    before and after it, cancels most of that drift.
    """
    import numpy as np

    times = []
    for _ in range(5):
        t0 = perf_counter()
        s = 0
        for i in range(40000):
            s += i * i
        a = np.random.default_rng(0).random((64, 64))
        for _ in range(400):
            a = np.exp(-a) + 0.1
        d = {}
        for i in range(20000):
            d[i & 1023] = str(i)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(wl, seconds: float) -> tuple[list, list, list]:
    """Closed loop of passes until ``seconds`` have gone by (at least one).
    Returns the passes, the reference time around each, and problems."""
    passes, refs = [], []
    ref_before = reference_seconds()
    t_end = perf_counter() + seconds
    while not passes or perf_counter() < t_end:
        passes.append(wl.run_pass())
        ref_after = reference_seconds()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
    problems = [p for r in passes for p in r.problems]
    for i, r in enumerate(passes[1:], start=2):
        changed = sorted(k for k in set(r.digests) | set(passes[0].digests)
                         if r.digests.get(k) != passes[0].digests.get(k))
        if changed:
            problems.append(f"pass {i}: artifacts differ from pass 1: {changed[:4]}")
    return passes, refs, problems


def measure_traced(wl, seconds: float):
    """Alternate an untraced and a traced iteration (warm-up smoke + one
    pass) until ``seconds`` have gone by.  Per-layer figures are medians
    over the traced iterations; counts must repeat exactly."""
    from tracing import Tracer
    from workloads import PassResult, smoke

    def iteration():
        res = PassResult()
        smoke(wl.cli, wl.workdir, res)
        p = wl.run_pass()
        res.seconds += p.seconds
        res.attempted += p.attempted
        res.failed += p.failed
        res.problems += p.problems
        res.failures += p.failures
        return res

    rows, overhead, results, problems = [], [], [], []
    t_end = perf_counter() + seconds
    tracer = None
    while not rows or perf_counter() < t_end:
        plain = iteration()
        tracer = Tracer()
        wl.cli.tracer = tracer
        try:
            traced = iteration()
        finally:
            wl.cli.tracer = None
        rows.append(tracer.layer_metrics())
        rows[-1]["trace.spans"] = len(tracer.spans)
        overhead.append(traced.seconds - plain.seconds)
        results += [plain, traced]
        problems += tracer.nesting_problems()
    metrics = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        if isinstance(values[0], float):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                problems.append(f"per-layer count {name} differs between iterations: {values}")
    metrics["trace.overhead_s"] = statistics.median(overhead)
    tracer.write_spans(os.path.join(wl.workdir, "spans.jsonl"))
    return metrics, results, problems, len(rows)


def fingerprint(passes) -> list[str]:
    digests = passes[0].digests
    lines = [f"  {hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()[:16]}"
             f"  (all {len(digests)} artifacts)"]
    lines += [f"  {d[:16]}  {name}" for name, d in sorted(digests.items())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gcpim benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcpim", "cli.py")):
        return fail(f"no package source at {os.path.relpath(SRC)}/gcpim; "
                    "run from a full checkout of the repository")
    sys.path[:0] = [SRC, BENCH]
    os.chdir(ROOT)
    import gcpim
    if not os.path.abspath(gcpim.__file__).startswith(SRC + os.sep):
        return fail(f"imported gcpim from {gcpim.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    from tracing import PER_LAYER

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join("bench", "_work", args.workload)
    wl = WORKLOADS[args.workload](workdir, args.seed)

    env = environment()
    print(f"workload {wl.name}, seed {args.seed} (variation seed {wl.var_seed}), "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    setup_s, problems = run_setup(wl)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        layer, results, more, n = measure_traced(wl, args.seconds)
        problems += more
        print(f"traced run: {n} traced and {n} untraced iterations "
              f"(each the warm-up smoke plus one pass)")
        print(f"tracing overhead: {layer['trace.overhead_s']:.4f} s per iteration "
              f"(traced minus untraced wall time in CLI calls)")
        for name in list(PER_LAYER) + ["trace.spans", "trace.overhead_s"]:
            unit = "s" if name.endswith("_s") else "count"
            value = layer[name]
            metrics[name] = (float(value) if unit == "s" else int(value), unit)
    else:
        passes, refs, more = measure(wl, args.seconds)
        problems += more
        results = passes
        with open(os.path.join(workdir, "passes.json"), "w") as fh:
            json.dump([{"work": p.work, "work_seconds": p.work_seconds, "reference_s": r,
                        "call_seconds": p.call_seconds} for p, r in zip(passes, refs)],
                      fh, indent=1)
        metrics["setup_s"] = (setup_s, "s")
        metrics["pass_ref"] = (statistics.median(p.seconds / r for p, r in zip(passes, refs)),
                               "ref")
        metrics["work_per_ref"] = (statistics.median(p.work / p.work_seconds * r
                                                     for p, r in zip(passes, refs)), "1/ref")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        times = sorted(p.seconds for p in passes)
        print(f"{len(passes)} passes; pass time min {times[0]:.4f} s, "
              f"median {statistics.median(times):.4f} s, max {times[-1]:.4f} s; "
              f"reference {1000 * statistics.median(refs):.2f} ms")
        print(f"work unit: {wl.work_unit}")
        print(f"  {'work_per_s':<20} {statistics.median(p.work / p.work_seconds for p in passes):.6g}"
              f" 1/s (median over passes)")
        for name, (value, unit) in wl.summary(passes).items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name:<20} {shown} {unit}")
        print("call times, median over passes:")
        for label in passes[0].call_seconds:
            t = statistics.median(p.call_seconds[label] for p in passes)
            print(f"  {label:<24} {1000 * t:9.2f} ms")
        print("fingerprint (sha256 of the written artifacts):")
        for line in fingerprint(passes):
            print(line)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f} "
          f"(failed CLI calls / attempted)")
    for msg in sorted(set(f for r in results for f in r.failures)):
        print(f"  failed: {msg}")
    for msg in problems[:20]:
        print(f"  WRONG: {msg}")
    print(f"correct: {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
