#!/usr/bin/env python3
"""Regenerate the headline numbers in one run.

Covers the decay constant, the retention boundary, refresh overhead,
per-gate cost, compiled-macro cost, variation-limited success rates, and
the sigma calibration.  Everything is seeded, so two runs of this script
produce identical output; reports land in --out as JSON/CSV.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from gcpim.charge import ModelConfig
from gcpim.compiler import compile_program, exhaustive_vectors, simulate_program
from gcpim.montecarlo import VariationConfig, calibrate_variation, run_gate_campaign
from gcpim.subarray import MicroOp, OpKind, SubArray, TimingEnergyConfig

MACROS = {
    "NOT": "out = ~a;",
    "NOR2": "out = ~(a | b);",
    "AND": "out = a & b;",
    "OR": "out = a | b;",
    "XOR": "out = a ^ b;",
    "full_adder": (
        "s1 = a ^ b;\nsum = s1 ^ cin;\n"
        "c1 = a & b;\nc2 = s1 & cin;\ncout = c1 | c2;"
    ),
}


def retention_flip_ns(model: ModelConfig) -> int:
    lo, hi = 1, 10 * model.drt_read_ns
    # first read time whose sensed bit is 0; bisection on a monotone scan
    while lo < hi:
        mid = (lo + hi) // 2
        arr = SubArray(model)
        arr.write_row(0, np.ones(64, dtype=np.uint8), 0)
        if int(arr.read_row(0, mid)[0]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=10000)
    ap.add_argument("--out", type=Path, default=Path("results"))
    ap.add_argument("--skip-calibration", action="store_true")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    model = ModelConfig()
    timing = TimingEnergyConfig()

    print("== charge model ==")
    print(f"decay constant tau        : {model.tau_ns:.1f} ns")
    flip = retention_flip_ns(model)
    print(f"stored '1' first misreads : {flip} ns (target {model.drt_read_ns})")

    print("\n== refresh overhead ==")
    arr = SubArray(model)
    arr.run([MicroOp(OpKind.REFRESH, (row,), t_start_ns=row * timing.t_refresh_ns)
             for row in range(arr.rows)])
    sweep = int(arr.last_update.max())
    avail = 1.0 - sweep / model.drt_logic_ns
    print(f"64-row refresh sweep      : {sweep} ns")
    print(f"availability at {model.drt_logic_ns} ns : {100 * avail:.2f}%")

    print("\n== compiled macros (64 columns) ==")
    print(f"{'macro':<11}{'gates':>6}{'rows':>6}{'ns':>6}{'fJ':>10}")
    for name, src in MACROS.items():
        prog = compile_program(src)
        simulate_program(prog, exhaustive_vectors(prog.inputs), mode="nominal")
        print(
            f"{name:<11}{prog.netlist.n_gates:>6}{prog.peak_rows:>6}"
            f"{prog.duration_ns:>6}{prog.energy_fj:>10.1f}"
        )

    print(f"\n== variation at age {model.drt_logic_ns} ns, {args.trials} trials ==")
    var = VariationConfig()
    for gate, arity in (("NOT", 1), ("NOR", 2)):
        rep = run_gate_campaign(gate, arity, args.trials, model.drt_logic_ns, var)
        rep.to_json(args.out / f"{gate.lower()}{arity}_report.json")
        rep.to_csv(args.out / f"{gate.lower()}{arity}_report.csv")
        bits, rate = rep.worst_case()
        print(f"{gate}/{arity}  worst case {100 * rate:.3f}% on inputs '{bits}'")

    if not args.skip_calibration:
        print("\n== sigma calibration ==")
        cal = calibrate_variation(n_trials=args.trials)
        print(f"sigma_tau={cal.sigma_tau:.4f}  sigma_sa={cal.sigma_sa:.4f}  "
              f"sigma_drive={cal.sigma_drive:.4f}")

    print(f"\nreports in {args.out}/  ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
