#!/usr/bin/env python3
"""Compare two source trees' Monte Carlo yields, combination by combination.

Usage (from the repository root):

    python scripts/compare_yield.py HEAD~1 HEAD --seeds 20 --first-seed 1000
    python scripts/compare_yield.py ../other-checkout . --compile --model 2000/1000

A side is a git revision of this repository, unpacked with ``git
archive``, or a directory holding a ``src/gcpim`` tree.  Each side runs
in its own Python subprocess with ``PYTHONPATH`` set to its ``src``, so
the two trees never share imports.  A side runs a fixed case list
through the ``gcpim`` CLI, once per seed: ``mc --program`` on the full
adder and ``run --mode mc`` on ripple-8 (64 fixed random vectors), each
at 1x and 2x the calibrated sigmas, and the NOT and NOR2 gate campaigns.

Per case and input combination the counts pool over the seeds.  The
script prints both sides' pooled successes/trials, the two-proportion z
(positive when B succeeds more often) and the Holm-adjusted p-value over
every combination (Holm, Scand. J. Statist. 1979).  It exits 1 when an
adjusted p falls below ``--alpha``; the sign of z tells which side is
better.

``--compile`` first prints, per program of the benchmark corpus
(``bench/corpus.py``), gates, ops, refreshes,
duration, energy and worst margin on each side, under the default model
or under ``--model READ/LOGIC`` windows (ns) with tau re-derived for them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_corpus():
    """The benchmark's ``bench/corpus.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "corpus", os.path.join(ROOT, "bench", "corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def corpus_programs(corpus) -> dict:
    """name -> (source, rows) of the compile table: the pipeline's programs."""
    table = {"half_adder": (corpus.HALF_ADDER, 64), "full_adder": (corpus.FULL_ADDER, 64)}
    for n in (8, 16, 32):
        table[f"ripple{n}"] = (corpus.ripple_source(n), 256 if n == 32 else 64)
    table["xor_chain"] = (corpus.xor_chain_source(corpus.xor_chain_terms(0)), 64)
    return table


# name -> (CLI argv with {fa}/{r8}/{r8_inputs} placeholders, sigma factor, trials per seed)
CASES = {
    "fa_1x": (["mc", "--program", "{fa}"], 1, 300),
    "fa_2x": (["mc", "--program", "{fa}"], 2, 300),
    "r8_1x": (["run", "{r8}", "--inputs", "{r8_inputs}", "--mode", "mc"], 1, 40),
    "r8_2x": (["run", "{r8}", "--inputs", "{r8_inputs}", "--mode", "mc"], 2, 40),
    "not": (["mc", "--gate", "NOT", "--arity", "1"], 1, 2000),
    "nor2": (["mc", "--gate", "NOR", "--arity", "2"], 1, 2000),
}


def worker(spec: dict) -> dict:
    """Runs inside one side's interpreter; returns pooled yields and the
    compile table as JSON-ready data."""
    import gcpim
    from gcpim.cli import main

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(gcpim.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {gcpim.__file__}, not the tree under {src}")
    work, paths = spec["work"], spec["paths"]
    for name in ("fa", "r8"):  # compiled by this side's compiler
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["compile", paths[name + "_src"], "-o", os.path.join(work, name + ".json")]):
                raise SystemExit(f"compile of {name} failed")
    fill = dict(paths, fa=os.path.join(work, "fa.json"), r8=os.path.join(work, "r8.json"))
    pooled: dict = {}
    for case in spec["cases"]:
        argv, factor, trials = CASES[case]
        argv = [a.format(**fill) for a in argv]
        counts = pooled.setdefault(case, {})
        for seed in spec["seeds"]:
            out = os.path.join(work, f"{case}_{seed}")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([*argv, "--trials", str(spec["trials"] or trials), "--seed", str(seed),
                           "--config", paths[f"sigma{factor}x"], "--out", out])
            if rc not in (0, 1):  # 1: below the success floor
                raise SystemExit(f"{case} at seed {seed} exited {rc}")
            with open(os.path.join(out, "report.json")) as fh:
                for key, c in json.load(fh)["combinations"].items():
                    s, n = counts.get(key, (0, 0))
                    counts[key] = (s + c["successes"], n + c["trials"])
    compiled = compile_table(spec["programs"], spec["model"]) if spec["compile"] else None
    return {"yield": pooled, "compile": compiled}


def compile_table(programs: dict, windows) -> dict:
    from gcpim.charge import ModelConfig
    from gcpim.compiler import CompilerConfig, compile_program
    from gcpim.compiler import program as program_mod

    model = ModelConfig()
    if windows:
        model = ModelConfig(drt_read_ns=windows[0], drt_logic_ns=windows[1]).calibrated()
    margin = getattr(program_mod, "worst_margin", None)  # older trees lack it
    table = {}
    for name, (source, rows) in programs.items():
        try:
            prog = compile_program(source, CompilerConfig(rows=rows), model)
        except Exception as exc:  # a schedule or capacity error is a table entry
            table[name] = f"{type(exc).__name__}: {exc}"
            continue
        table[name] = [prog.netlist.n_gates, len(prog.ops), prog.n_refresh, prog.duration_ns,
                       round(prog.energy_fj, 1),
                       round(1000 * margin(prog, model)[0], 1) if margin else None]
    return table


def unpack(side: str, into: str) -> str:
    """The tree a side names: a directory as is, a revision via git archive."""
    if os.path.isdir(side):
        return os.path.abspath(side)
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", side],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        # the "data" filter where this Python has it (3.10.12+, 3.11.4+)
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def run_side(tree: str, spec: dict) -> dict:
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                          input=json.dumps(dict(spec, src=src)), env=env, cwd=spec["work"],
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"side {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def two_proportion_z(s_a: int, n_a: int, s_b: int, n_b: int) -> float:
    pooled = (s_a + s_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    return (s_b / n_b - s_a / n_a) / se if se else 0.0


def holm(p: list[float]) -> list[float]:
    """Holm's step-down adjustment; the adjusted p keep the input order."""
    adjusted, running = [0.0] * len(p), 0.0
    for rank, i in enumerate(sorted(range(len(p)), key=p.__getitem__)):
        running = max(running, min(1.0, (len(p) - rank) * p[i]))
        adjusted[i] = running
    return adjusted


def compare(a: dict, b: dict) -> list[tuple]:
    """(case, combination, A counts, B counts, z, Holm-adjusted p) rows."""
    rows = []
    for case in a:
        for key in sorted(set(a[case]) | set(b[case])):
            (s_a, n_a), (s_b, n_b) = a[case].get(key, (0, 0)), b[case].get(key, (0, 0))
            if not (n_a and n_b):
                raise SystemExit(f"{case} {key!r} ran on one side only")
            z = two_proportion_z(s_a, n_a, s_b, n_b)
            rows.append((case, key, (s_a, n_a), (s_b, n_b), z, math.erfc(abs(z) / math.sqrt(2))))
    return [row[:5] + (adj,) for row, adj in zip(rows, holm([r[5] for r in rows]))]


def print_compile(a: dict, b: dict) -> None:
    widths = (11, 11, 9, 13, 21, 15)
    print(f"{'program':<11} " + " ".join(f"{h:>{w}}" for h, w in zip(
        ("gates", "ops", "refreshes", "ns", "fJ", "margin mV"), widths)))
    for name in a:
        if isinstance(a[name], str) or isinstance(b[name], str):
            print(f"{name:<11} A: {a[name] if isinstance(a[name], str) else 'compiles'}; "
                  f"B: {b[name] if isinstance(b[name], str) else 'compiles'}")
            continue
        cells = [f"{x}->{y}" for x, y in zip(a[name], b[name])]
        print(f"{name:<11} " + " ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="baseline: git revision or tree directory")
    p.add_argument("b", help="candidate: git revision or tree directory")
    p.add_argument("--seeds", type=int, default=20, help="seeds per case")
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--trials", type=int, help="trials per seed for every case")
    p.add_argument("--cases", default=",".join(CASES), help="comma-separated subset")
    p.add_argument("--alpha", type=float, default=0.05, help="level for the adjusted p")
    p.add_argument("--compile", action="store_true", help="print the compile table first")
    p.add_argument("--model", help="READ/LOGIC windows in ns for the compile table")
    args = p.parse_args(argv)
    cases = args.cases.split(",")
    if unknown := sorted(set(cases) - set(CASES)):
        p.error(f"unknown cases {unknown}; choose from {list(CASES)}")
    if args.seeds < 1:
        p.error("--seeds must be at least 1")
    if args.model and not re.fullmatch(r"[1-9]\d*/[1-9]\d*", args.model):
        p.error(f"--model takes READ/LOGIC in ns, got {args.model!r}")
    windows = [int(x) for x in args.model.split("/")] if args.model else None

    with tempfile.TemporaryDirectory() as tmp:
        paths = {"fa_src": os.path.join(tmp, "fa.txt"), "r8_src": os.path.join(tmp, "r8.txt"),
                 "r8_inputs": os.path.join(tmp, "r8.csv")}
        corpus = load_corpus()
        for key, text in (("fa_src", corpus.FULL_ADDER), ("r8_src", corpus.ripple_source(8))):
            with open(paths[key], "w") as fh:
                fh.write(text)
        names = [f"{x}{i}" for i in range(8) for x in "ab"] + ["cin"]
        rng = random.Random(8)
        with open(paths["r8_inputs"], "w") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(",".join(str(rng.getrandbits(1)) for _ in names) + "\n"
                          for _ in range(64))
        for factor in (1, 2):  # the calibrated sigmas, scaled
            paths[f"sigma{factor}x"] = os.path.join(tmp, f"sigma{factor}x.json")
            corpus.write_config(paths[f"sigma{factor}x"], sigma_factor=factor)
        results = []
        for label, side in (("a", args.a), ("b", args.b)):
            tree = unpack(side, os.path.join(tmp, f"tree_{label}"))
            work = os.path.join(tmp, f"work_{label}")
            os.makedirs(work)
            results.append(run_side(tree, {
                "work": work, "paths": paths, "cases": cases, "trials": args.trials,
                "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                "compile": args.compile, "model": windows,
                "programs": corpus_programs(corpus)}))
    a, b = results
    print(f"A = {args.a}, B = {args.b}; seeds {args.first_seed}..."
          f"{args.first_seed + args.seeds - 1}")
    if args.compile:
        print_compile(a["compile"], b["compile"])
    rows = compare(a["yield"], b["yield"])
    print(f"{'case':<6} {'combination':<18} {'A succ/trials':>14} {'B succ/trials':>14} "
          f"{'z':>7} {'p (Holm)':>9}")
    for case, key, (s_a, n_a), (s_b, n_b), z, p_adj in rows:
        print(f"{case:<6} {key or '(none)':<18} {f'{s_a}/{n_a}':>14} {f'{s_b}/{n_b}':>14} "
              f"{z:>7.2f} {p_adj:>9.4f}")
    flagged = [r for r in rows if r[5] < args.alpha]
    print(f"{len(flagged)} of {len(rows)} combinations differ at adjusted p < {args.alpha}, "
          f"{sum(r[4] < 0 for r in flagged)} of them worse in B")
    return 1 if flagged else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        json.dump(worker(json.load(sys.stdin)), sys.stdout)
    else:
        sys.exit(main())
