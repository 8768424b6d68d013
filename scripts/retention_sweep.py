#!/usr/bin/env python3
"""Sweep hold time and record what a stored '1' can still do.

For each age we track three quantities on the default model: the decayed
cell level itself, the residual an inverter driven by that cell leaves on
its output row, and the margin between that residual and the sense
threshold.  The CSV is byte-stable (repr floats, fixed ordering); the
plot is optional sugar.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gcpim.charge import (ModelConfig, decay, drive_threshold, overdrive,
                          residual_from_overdrive, time_constant)


def sweep(model: ModelConfig, ages_ns: np.ndarray) -> list[dict]:
    rows = []
    tau, v_drive = time_constant(1.0, model), drive_threshold(0.0, model)
    for age in ages_ns:
        level = float(decay(model.vdd, age, tau))
        residual = float(residual_from_overdrive(overdrive(level, v_drive), model))
        rows.append(
            {
                "age_ns": int(age),
                "stored_level_v": level,
                "inverter_residual_v": residual,
                "sense_margin_v": float(model.v_sa_read - residual),
                "still_reads_1": int(level >= model.v_sa_read),
                "inverter_output_correct": int(residual < model.v_sa_read),
            }
        )
    return rows


def write_csv(rows: list[dict], path: Path) -> None:
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def maybe_plot(rows: list[dict], model: ModelConfig, path: Path) -> bool:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    age_us = [r["age_ns"] / 1000.0 for r in rows]
    fig, ax = plt.subplots(figsize=(6.0, 3.6))
    ax.plot(age_us, [r["stored_level_v"] for r in rows], label="stored '1' level")
    ax.plot(age_us, [r["inverter_residual_v"] for r in rows], label="inverter residual")
    ax.axhline(model.v_sa_read, color="gray", ls=":", lw=1, label="sense threshold")
    ax.set_xlabel("hold time (us)")
    ax.set_ylabel("voltage (V)")
    ax.legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-age-ns", type=int, default=30000)
    ap.add_argument("--points", type=int, default=121)
    ap.add_argument("--out", type=Path, default=Path("retention_sweep.csv"))
    ap.add_argument("--plot", type=Path, default=None,
                    help="also render a PNG (needs matplotlib)")
    args = ap.parse_args(argv)

    model = ModelConfig()
    ages = np.unique(np.linspace(0, args.max_age_ns, args.points).round().astype(int))
    rows = sweep(model, ages)
    write_csv(rows, args.out)

    read_limit = next((r["age_ns"] for r in rows if not r["still_reads_1"]), None)
    logic_limit = next((r["age_ns"] for r in rows if not r["inverter_output_correct"]), None)
    print(f"wrote {args.out} ({len(rows)} points, 0..{args.max_age_ns} ns)")
    print(f"stored '1' first misreads at  : {read_limit} ns" if read_limit else
          "stored '1' never misreads in the swept range")
    print(f"inverter first misfires at    : {logic_limit} ns" if logic_limit else
          "inverter output stays correct over the swept range")
    if args.plot is not None:
        if maybe_plot(rows, model, args.plot):
            print(f"wrote {args.plot}")
        else:
            print("matplotlib not available, skipped the plot", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
