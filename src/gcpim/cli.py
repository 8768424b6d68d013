"""Command line front end.

Subcommands: compile, run, mc, calibrate, report.  Exit codes: 0 ok,
1 Monte Carlo worst case below the success floor, 2 source or usage
errors, 3 resource errors (row capacity, refresh schedule, retention
violations), 4 calibration failure, 5 missing, corrupt or malformed
files (an unsound compiled program is malformed), 141 stdout closed
before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import json
import math
import os
import sys

import numpy as np

from gcpim.charge import ConfigError, calibrate_tau
from gcpim.compiler import (
    CapacityError,
    MalformedProgramError,
    ParseError,
    RefreshScheduleError,
    RetentionViolationError,
    compile_program,
    exhaustive_vectors,
    simulate_program,
)
from gcpim.compiler.program import PimProgram
from gcpim.compiler.simulate import MODES
from gcpim.config import load_config
from gcpim.montecarlo import (
    CalibrationError,
    SuccessReport,
    calibrate_variation,
    run_gate_campaign,
)
from gcpim.subarray import EventLedger

__all__ = ["main"]

EXIT_OK = 0
EXIT_FLOOR = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CALIBRATION = 4
EXIT_IO = 5
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _read_input_csv(path) -> dict[str, list[int]]:
    """Input vectors: header row of signal names, one bit row per vector;
    a UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)  # (file line, cells): skipped blank lines still count
        rows = [(reader.line_num, r) for r in reader if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ConfigError(f"{path}: need a header row and at least one vector")
    header = [c.strip() for c in rows[0][1]]
    if len(set(header)) != len(header):
        raise ConfigError(f"{path}: duplicate column names")
    vectors: dict[str, list[int]] = {name: [] for name in header}
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ConfigError(
                f"{path}:{lineno}: {len(row)} cells, expected {len(header)}"
            )
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise ConfigError(f"{path}:{lineno}: {cell!r} is not a bit")
            vectors[name].append(int(cell))
    return vectors


def _write_output_csv(path, names, outputs, width) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for c in range(width):
            writer.writerow([int(outputs[n][c]) for n in names])


def _write_trace_csv(path, trace_rows) -> None:
    """One line per cell of each ``(time_ns, row, voltages)`` record,
    stably sorted by time, then signal name (as strings, so ``sn_r10_c0``
    precedes ``sn_r1_c0``), then record order."""
    with open(path, "w", newline="") as fh:
        fh.write("time_ns,signal,value\r\n")
        if trace_rows:
            fh.writelines(_trace_lines(*zip(*trace_rows)))


def _trace_lines(times, rows, values) -> list[str]:
    values = np.vstack(values)
    cols = values.shape[1]
    used_rows, row_of = np.unique(np.asarray(rows, dtype=np.int64), return_inverse=True)
    names = [f"sn_r{r}_c{c}" for r in used_rows.tolist() for c in range(cols)]
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    signal = (row_of[:, None] * cols + np.arange(cols)).ravel()
    time = np.repeat(np.asarray(times, dtype=np.int64), cols)
    order = np.lexsort((np.arange(signal.size), rank[signal], time))
    # one repr per distinct bit pattern, so -0.0, 0.0 and NaN keep their own text
    flat = values.ravel()
    _, first, text_of = np.unique(flat.view(np.uint64), return_index=True, return_inverse=True)
    text = [repr(v) for v in flat[first].tolist()]
    return [f"{t},{names[s]},{text[v]}\r\n" for t, s, v in
            zip(time[order].tolist(), signal[order].tolist(), text_of[order].tolist())]


def _print_report(report: SuccessReport, floor: float) -> int:
    print(f"{'inputs':>8}  {'trials':>7}  {'success':>8}  {'rate':>8}  breakdown")
    for key, combo in sorted(report.combinations.items()):
        detail = (f"decay={combo.decay_only} threshold={combo.threshold_only} "
                  f"both={combo.both} other={combo.other}")
        print(f"{key or '(none)':>8}  {combo.trials:>7}  {combo.successes:>8}  "
              f"{100 * combo.success_rate:>7.3f}%  {detail}")
    key, rate = report.worst_case()
    print(f"worst case: {key or '(none)'} at {100 * rate:.3f}% (floor {100 * floor:.2f}%)")
    if rate < floor:
        print("FAIL: worst-case success rate is below the floor")
        return EXIT_FLOOR
    return EXIT_OK


def _write_artifacts(outdir, writers) -> None:
    """Write each artifact as ``writers[name](path)`` into ``outdir``, after
    deleting the ones it will not write, so the directory holds one
    command's artifacts; other files stay."""
    os.makedirs(outdir, exist_ok=True)
    for name in ("outputs.csv", "ledger.csv", "trace.csv", "report.json", "report.csv"):
        if name not in writers and os.path.lexists(path := os.path.join(outdir, name)):
            os.remove(path)
    for name, write in writers.items():
        write(os.path.join(outdir, name))


def cmd_compile(args) -> int:
    cfg = load_config(args.config)
    with open(args.source) as fh:
        text = fh.read()
    ccfg = cfg.compiler
    if args.no_refresh:
        ccfg = dataclasses.replace(ccfg, insert_refreshes=False)
    prog = compile_program(text, ccfg, cfg.model, cfg.timing_energy)
    out = args.out or os.path.splitext(args.source)[0] + ".compiled.json"
    prog.to_json(out)
    arities = [len(node.args) for node in prog.netlist.nodes if node.op == "nor"]
    n_not = arities.count(1)
    print(f"wrote {out}")
    print(f"inputs:  {', '.join(prog.inputs) or '(none)'}")
    print(f"outputs: {', '.join(prog.output_names)}")
    print(f"gates:   {len(arities)} ({n_not} NOT, {len(arities) - n_not} NOR), "
          f"peak rows {prog.peak_rows}/{prog.rows - 2}")
    print(f"ops:     {len(prog.ops)} ({prog.n_refresh} refresh), "
          f"{prog.duration_ns} ns, {prog.energy_fj:.1f} fJ")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    prog = PimProgram.from_json(args.program)
    vectors = (_read_input_csv(args.inputs) if args.inputs is not None
               else exhaustive_vectors(prog.inputs, prog.cols))
    mode = args.mode or cfg.run.mode
    trials = args.trials if args.trials is not None else cfg.run.trials
    res = simulate_program(
        prog, vectors, mode=mode, model_cfg=cfg.model, var_cfg=cfg.variation,
        n_trials=trials, trace=args.trace,
    )
    names = list(prog.output_names)
    writers = {"outputs.csv": lambda path: _write_output_csv(path, names, res.outputs, res.width)}
    if mode != "ideal":  # an array run executes the program's ops
        writers["ledger.csv"] = EventLedger(prog.timing, prog.cols, prog.ops).to_csv
    if res.trace is not None:
        writers["trace.csv"] = lambda path: _write_trace_csv(path, res.trace)
    if res.report is not None:
        writers.update({"report.json": res.report.to_json, "report.csv": res.report.to_csv})
    _write_artifacts(args.out, writers)
    print(f"{mode} run: {res.width} vectors, {prog.duration_ns} ns, "
          f"{prog.energy_fj:.1f} fJ")
    if res.margin is not None:  # a program that runs reads at least one output
        (v, at), how = res.margin, "certified" if res.certified else "array-checked"
        print(f"worst margin: {1000 * v:.1f} mV at op {at} ({prog.ops[at].kind.value}), {how}")
    code = EXIT_OK if res.report is None else _print_report(res.report, cfg.run.success_floor)
    print(f"results in {args.out}")
    return code


def cmd_mc(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    trials = args.trials if args.trials is not None else cfg.run.trials
    age = args.age if args.age is not None else cfg.model.drt_logic_ns
    if args.gate:
        report = run_gate_campaign(
            args.gate, args.arity, trials, age, cfg.variation,
            cfg.model, cfg.timing_energy,
        )
    else:
        prog = PimProgram.from_json(args.program)
        vectors = exhaustive_vectors(prog.inputs, prog.cols)
        res = simulate_program(
            prog, vectors, mode="mc", model_cfg=cfg.model,
            var_cfg=cfg.variation, n_trials=trials,
        )
        report = res.report
    _write_artifacts(args.out, {"report.json": report.to_json, "report.csv": report.to_csv})
    code = _print_report(report, cfg.run.success_floor)
    print(f"report in {args.out}")
    return code


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    tau = calibrate_tau(cfg.model.vdd, cfg.model.v_sa_read, cfg.model.drt_read_ns)
    print(f"retention fit: tau = {tau:.4f} ns "
          f"({cfg.model.drt_read_ns} ns to {cfg.model.v_sa_read} V "
          f"from {cfg.model.vdd} V)")

    def on_step(scale: float, rate: float) -> None:
        print(f"  scale {scale:<10.6g} worst-case rate {100 * rate:.3f}%")

    print(f"bisecting variation scale to {100 * args.target:.2f}% "
          f"worst case ({args.trials} trials per step):")
    var = calibrate_variation(
        args.target, cfg.model, cfg.timing_energy,
        seed=cfg.variation.seed, n_trials=args.trials,
        tolerance=args.tolerance, on_step=on_step,
    )
    print(f"calibrated: sigma_tau={var.sigma_tau:.6g} "
          f"sigma_sa={var.sigma_sa:.6g} sigma_drive={var.sigma_drive:.6g}")
    out_cfg = dataclasses.replace(cfg, variation=var)
    out_cfg.to_json(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    per_file = [{"file": str(path), **EventLedger.read_totals(path)} for path in args.ledgers]
    total_energy = math.fsum(f["energy_fj"] for f in per_file)
    makespan = max(f["makespan_ns"] for f in per_file)
    refresh_time = sum(f["refresh_ns"] for f in per_file)
    n_ops = sum(f["ops"] for f in per_file)
    # a period must hold the refresh work, or availability turns negative;
    # the default period, the longest makespan, must hold it too
    floor = max(1, refresh_time)
    period = args.period if args.period is not None else makespan
    if period < floor:
        given = (f"got {args.period}" if args.period is not None
                 else f"the default, the longest makespan, is {makespan} ns")
        raise ConfigError(f"--period must be >= {floor} ns (the ledgers hold "
                          f"{refresh_time} ns of refresh), {given}")
    availability = 1.0 - refresh_time / period
    summary = {
        "files": per_file,
        "ops": n_ops,
        "energy_fj": total_energy,
        "makespan_ns": makespan,
        "refresh_ns": refresh_time,
        "period_ns": period,
        "availability": availability,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for f in per_file:
            print(f"{f['file']}: {f['ops']} ops, {f['energy_fj']:.1f} fJ, "
                  f"{f['makespan_ns']} ns ({f['refresh_ns']} ns refresh)")
        print(f"total: {n_ops} ops, {total_energy:.1f} fJ, "
              f"makespan {makespan} ns, refresh {refresh_time} ns")
        print(f"array availability over {period} ns: {100 * availability:.2f}%")
    return EXIT_OK


@functools.cache  # one parser per process; main dispatches on ``command``
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gcpim",
        description="Compile Boolean programs onto a gain-cell array and "
                    "simulate them with retention and variation effects.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a source file to micro-ops")
    c.add_argument("source", help="program text (name = expr; per line)")
    c.add_argument("-o", "--out", help="output path (default: <source>.compiled.json)")
    c.add_argument("--config", help="run configuration JSON")
    c.add_argument("--no-refresh", action="store_true",
                   help="skip refresh insertion")

    r = sub.add_parser("run", help="execute a compiled program")
    r.add_argument("program", help="compiled program JSON")
    r.add_argument("--inputs", help="CSV of input vectors (default: every input combination)")
    r.add_argument("--mode", choices=MODES)
    r.add_argument("--trials", type=int, help="Monte Carlo trials (mc mode)")
    r.add_argument("--seed", type=int, help="override the variation seed")
    r.add_argument("--trace", action="store_true",
                   help="record node waveforms (nominal mode)")
    r.add_argument("--out", default="runout", help="output directory")
    r.add_argument("--config", help="run configuration JSON")

    m = sub.add_parser("mc", help="Monte Carlo success-rate campaign")
    tgt = m.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--gate", choices=["NOT", "NOR"], help="single gate")
    tgt.add_argument("--program", help="compiled program JSON")
    m.add_argument("--arity", type=int, default=2, help="gate input count")
    m.add_argument("--age", type=int, help="operand age in ns before the gate")
    m.add_argument("--trials", type=int, help="trials per input combination")
    m.add_argument("--seed", type=int, help="override the variation seed")
    m.add_argument("--out", default="mcout", help="output directory")
    m.add_argument("--config", help="run configuration JSON")

    k = sub.add_parser("calibrate", help="fit variation magnitudes to a yield target")
    k.add_argument("--target", type=float, default=0.995,
                   help="worst-case success-rate target")
    k.add_argument("--trials", type=int, default=20000,
                   help="trials per bisection step (>= 10000)")
    k.add_argument("--tolerance", type=float, default=0.003,
                   help="acceptable rate error")
    k.add_argument("--seed", type=int, help="override the variation seed")
    k.add_argument("--out", default="calibrated.json",
                   help="output configuration path")
    k.add_argument("--config", help="starting configuration JSON")

    g = sub.add_parser("report", help="summarize event ledgers")
    g.add_argument("ledgers", nargs="+", help="ledger CSV files")
    g.add_argument("--period", type=int,
                   help="availability period in ns (default: makespan)")
    g.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a command builds tens of thousands of acyclic records (tokens, netlist
    # nodes, micro-ops, ledger rows) that reference counting frees; scanning
    # them took the cyclic collector ~15% of an XOR-chain compile or run, so it
    # pauses for the command and comes back only if the caller had it on
    collecting = gc.isenabled()
    gc.disable()
    try:
        # looked up per call, so a cmd_* patched after the parser was built runs
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (`| head`); the artifacts are written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SIGPIPE
    except ParseError as exc:
        print(f"gcpim: syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, RefreshScheduleError, RetentionViolationError) as exc:
        print(f"gcpim: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CalibrationError as exc:
        print(f"gcpim: calibration failed: {exc}", file=sys.stderr)
        for scale, rate in exc.diagnostics.get("evaluations", []):
            print(f"  scale {scale:<10.6g} rate {100 * rate:.3f}%",
                  file=sys.stderr)
        return EXIT_CALIBRATION
    except ConfigError as exc:
        print(f"gcpim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedProgramError as exc:
        print(f"gcpim: malformed program: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileNotFoundError as exc:
        print(f"gcpim: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError) as exc:
        print(f"gcpim: error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
