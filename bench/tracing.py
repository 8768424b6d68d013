"""Span tracing from outside the package, for the per-layer metrics.

The tracer replaces public functions of each gcpim module with wrappers
that record a span (name, parent, start, end) in memory.  A function is
wrapped where its caller looks it up, so ``parse_program`` is wrapped in
``gcpim.compiler.program`` and ``overdrive`` in ``gcpim.subarray``.
Self time is a span's duration minus the time its child spans cover.
Some boundaries only count calls, because a span there would cost more
than the work it measures.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import gcpim.cli as cli_mod
import gcpim.compiler.program as program_mod
import gcpim.compiler.simulate as simulate_mod
import gcpim.montecarlo as mc_mod
import gcpim.subarray as subarray_mod
from gcpim.compiler.netlist import NorNetlist
from gcpim.compiler.program import PimProgram
from gcpim.subarray import EventLedger, SubArray


def _sim_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "nominal")


def _trials(result, args, kwargs) -> dict:
    combo = next(iter(result.combinations.values()))
    return {"trials": combo.trials, "failed": combo.trials - combo.successes}


# (span name, owner, attribute, per-call values from the result)
SPANS = [
    ("cli.compile", cli_mod, "cmd_compile", None),
    ("cli.run", cli_mod, "cmd_run", None),
    ("cli.mc", cli_mod, "cmd_mc", None),
    ("cli.calibrate", cli_mod, "cmd_calibrate", None),
    ("cli.report", cli_mod, "cmd_report", None),
    ("expr.parse", program_mod, "parse_program",
     lambda r, a, k: {"statements": len(r.statements)}),
    ("netlist.lower", program_mod, "lower_program", lambda r, a, k: {"gates": r.n_gates}),
    ("netlist.evaluate", NorNetlist, "evaluate", None),
    ("allocate.allocate", program_mod, "allocate_rows",
     lambda r, a, k: {"peak_live": r.peak_live}),
    ("program.emit", program_mod, "emit_ops", None),
    ("program.insert_refresh", program_mod, "insert_refresh",
     lambda r, a, k: {"refresh_ops": r.n_refresh}),
    ("program.audit_refresh", simulate_mod, "audit_refresh_safety", None),
    ("program.audit_soundness", simulate_mod, "audit_row_soundness", None),
    ("program.to_json", PimProgram, "to_json", None),
    ("program.from_json", PimProgram, "from_json", None),
    (lambda a, k: f"simulate.{_sim_mode(a, k)}", cli_mod, "simulate_program", None),
    ("simulate.run_on_array", simulate_mod, "run_program_on_array", None),
    ("montecarlo.sample_params", simulate_mod, "sample_params", None),
    ("montecarlo.sample_params", mc_mod, "sample_params", None),
    ("montecarlo.run_gate_trials", mc_mod, "run_gate_trials", _trials),
    ("montecarlo.calibrate", cli_mod, "calibrate_variation", None),
    ("subarray.init", SubArray, "__init__", None),
    ("subarray.write", SubArray, "write_row", None),
    ("subarray.read", SubArray, "read_row", None),
    ("subarray.refresh", SubArray, "refresh_row", None),
    ("subarray.logic", SubArray, "exec_logic", None),
    ("charge.overdrive", subarray_mod, "overdrive", None),
]

# (counter name, owner, attribute): calls counted, no span
COUNTERS = [
    ("subarray.ledger_entries", EventLedger, "append"),
    ("charge.residual_calls", subarray_mod, "residual_from_overdrive"),
]

# metric -> (span name, field[, required parent span]); fields: self,
# total (whole-call time), calls, errors, or a per-call value summed
PER_LAYER = {
    "cli.compile_s": ("cli.compile", "self"),
    "cli.run_s": ("cli.run", "self"),
    "cli.mc_s": ("cli.mc", "self"),
    "cli.calibrate_s": ("cli.calibrate", "self"),
    "cli.report_s": ("cli.report", "self"),
    "expr.parse_s": ("expr.parse", "self"),
    "expr.statements": ("expr.parse", "statements"),
    "netlist.lower_s": ("netlist.lower", "self"),
    "netlist.gates": ("netlist.lower", "gates"),
    "netlist.evaluate_s": ("netlist.evaluate", "self"),
    "allocate.allocate_s": ("allocate.allocate", "self"),
    "allocate.peak_live_rows": ("allocate.allocate", "peak_live"),
    "program.emit_s": ("program.emit", "self"),
    "program.insert_refresh_s": ("program.insert_refresh", "self"),
    "program.refresh_ops": ("program.insert_refresh", "refresh_ops"),
    "program.schedule_errors": ("program.insert_refresh", "errors"),
    "program.audit_refresh_s": ("program.audit_refresh", "self"),
    "program.audit_soundness_s": ("program.audit_soundness", "self"),
    "program.to_json_s": ("program.to_json", "self"),
    "program.from_json_s": ("program.from_json", "self"),
    "simulate.nominal_s": ("simulate.nominal", "total"),
    "simulate.mc_s": ("simulate.mc", "total"),
    "simulate.mc_self_s": ("simulate.mc", "self"),
    "simulate.run_on_array_s": ("simulate.run_on_array", "self"),
    "simulate.run_on_array_calls": ("simulate.run_on_array", "calls"),
    "montecarlo.sample_params_s": ("montecarlo.sample_params", "self"),
    "montecarlo.sample_params_calls": ("montecarlo.sample_params", "calls"),
    "montecarlo.run_gate_trials_s": ("montecarlo.run_gate_trials", "self"),
    "montecarlo.gate_trials": ("montecarlo.run_gate_trials", "trials"),
    "montecarlo.failed_trials": ("montecarlo.run_gate_trials", "failed"),
    "montecarlo.calibrate_probes": ("montecarlo.run_gate_trials", "calls",
                                    "montecarlo.calibrate"),
    "subarray.instances": ("subarray.init", "calls"),
    "subarray.init_s": ("subarray.init", "self"),
    "subarray.write_s": ("subarray.write", "self"),
    "subarray.read_s": ("subarray.read", "self"),
    "subarray.refresh_s": ("subarray.refresh", "self"),
    "subarray.logic_s": ("subarray.logic", "self"),
    "subarray.write_calls": ("subarray.write", "calls"),
    "subarray.read_calls": ("subarray.read", "calls"),
    "subarray.refresh_calls": ("subarray.refresh", "calls"),
    "subarray.logic_calls": ("subarray.logic", "calls"),
    "subarray.ledger_entries": ("subarray.ledger_entries", "count"),
    "charge.overdrive_calls": ("charge.overdrive", "calls"),
    "charge.overdrive_s": ("charge.overdrive", "self"),
    "charge.residual_calls": ("charge.residual_calls", "count"),
}

# span record layout
NAME, PARENT, ROOT, START, END, CHILD, VALUES, ERROR = range(8)


class Tracer:
    """Installs the wrappers while active and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, owner, attr, values in SPANS:
            self._patch(owner, attr, self._span_wrapper(name, values))
        for name, owner, attr in COUNTERS:
            self._patch(owner, attr, self._count_wrapper(name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, make) -> None:
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        wrapper = make(raw.__func__ if is_static else raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def _span_wrapper(self, name, values):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                sid = len(spans)
                root = spans[parent][ROOT] if parent >= 0 else sid
                label = name(args, kwargs) if callable(name) else name
                rec = [label, parent, root, 0.0, 0.0, 0.0, None, None]
                spans.append(rec)
                stack.append(sid)
                rec[START] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    rec[ERROR] = type(exc).__name__
                    raise
                finally:
                    rec[END] = perf_counter()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][CHILD] += rec[END] - rec[START]
                if values is not None:
                    rec[VALUES] = values(result, args, kwargs)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def nesting_problems(self) -> list[str]:
        """Children must lie inside their parent and never exceed it."""
        problems = []
        for sid, s in enumerate(self.spans):
            dur = s[END] - s[START]
            if s[CHILD] > dur + 1e-9:
                problems.append(f"span {sid} {s[NAME]}: children {s[CHILD]:.6f}s > {dur:.6f}s")
            p = s[PARENT]
            if p >= 0 and not (self.spans[p][START] <= s[START] and s[END] <= self.spans[p][END]):
                problems.append(f"span {sid} {s[NAME]} lies outside its parent {p}")
        return problems[:5]

    def layer_metrics(self) -> dict[str, float]:
        agg: dict = defaultdict(lambda: defaultdict(float))
        under: dict = defaultdict(int)  # (name, parent name) -> calls
        for s in self.spans:
            a = agg[s[NAME]]
            dur = s[END] - s[START]
            a["total"] += dur
            a["self"] += dur - s[CHILD]
            a["calls"] += 1
            if s[ERROR] is not None:
                a["errors"] += 1
            for k, v in (s[VALUES] or {}).items():
                a[k] += v
            if s[PARENT] >= 0:
                under[(s[NAME], self.spans[s[PARENT]][NAME])] += 1
        for name, n in self.counts.items():
            agg[name]["count"] = n
        out: dict[str, float] = {}
        for metric, (span, field, *parent) in PER_LAYER.items():
            if parent:
                out[metric] = under[(span, parent[0])]
            else:
                value = agg[span][field] if span in agg else 0
                out[metric] = float(value) if field in ("self", "total") else int(value)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "parent": s[PARENT], "request": s[ROOT],
                    "start_s": s[START], "end_s": s[END],
                    "self_s": s[END] - s[START] - s[CHILD], "error": s[ERROR],
                }) + "\n")
