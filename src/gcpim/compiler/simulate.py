"""Execution of compiled programs: logical, nominal-array, and Monte Carlo.

Input vectors are laid out one per column, so a single pass evaluates up
to 64 vectors bitwise-parallel.  Nominal mode must agree with ideal mode
exactly; Monte Carlo mode samples one array instance per trial (all
columns of a trial share that instance's variation draw) and scores each
column against the ideal outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gcpim.charge import ConfigError, ModelConfig
from gcpim.montecarlo import (
    CombinationResult,
    SuccessReport,
    VariationConfig,
    _adverse_threshold_mask,
    _classify_failures,
    _fast_decay_mask,
    sample_params,
)
from gcpim.subarray import EventLedger, OpKind, SubArray, TraceSample
from gcpim.compiler.program import PimProgram, audit_refresh_safety, audit_row_soundness

__all__ = ["RetentionViolationError", "SimulationResult", "exhaustive_vectors",
           "run_program_on_array", "simulate_program"]

MODES = ("ideal", "nominal", "mc")


class RetentionViolationError(ValueError):
    """The program consumes or refreshes a value past its retention
    window, so an array run would compute garbage."""


@dataclass
class SimulationResult:
    mode: str
    width: int
    outputs: dict[str, np.ndarray]
    duration_ns: int
    energy_fj: float
    ledger: EventLedger | None = None
    trace: list[TraceSample] | None = None
    report: SuccessReport | None = None


def _normalize_vectors(program: PimProgram, input_vectors: dict) -> tuple[dict, int]:
    declared = set(program.inputs)
    given = set(input_vectors)
    if given != declared:
        missing = sorted(declared - given)
        extra = sorted(given - declared)
        parts = []
        if missing:
            parts.append(f"missing inputs {missing}")
        if extra:
            parts.append(f"unknown inputs {extra}")
        raise ConfigError("; ".join(parts))
    vectors = {}
    width = None
    for name in program.inputs:
        v = np.asarray(input_vectors[name], dtype=np.uint8)
        if v.ndim != 1:
            raise ConfigError(f"input {name!r} must be a flat bit vector")
        if np.any(v > 1):
            raise ConfigError(f"input {name!r} has non-bit values")
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ConfigError(
                f"input {name!r} has {len(v)} values, expected {width}"
            )
        vectors[name] = v
    if width is None or width == 0:
        raise ConfigError("empty input vectors")
    if width > program.cols:
        raise ConfigError(
            f"{width} vectors exceed the {program.cols} columns of one sub-array"
        )
    return vectors, width


def exhaustive_vectors(inputs: Sequence[str], max_width: int = 64) -> dict[str, list[int]]:
    """All input combinations, one per column, MSB-first counting order."""
    k = len(inputs)
    if 2**k > max_width:
        raise ConfigError(
            f"{k} inputs need {2**k} columns; only {max_width} available"
        )
    return {
        name: [(c >> (k - 1 - i)) & 1 for c in range(2**k)]
        for i, name in enumerate(inputs)
    }


def run_program_on_array(
    program: PimProgram,
    subarray: SubArray,
    vectors: dict[str, np.ndarray],
    width: int,
) -> dict[str, np.ndarray]:
    """Execute the timestamped ops; returns output name -> bits[width]."""
    cols = subarray.cols
    outputs: dict[str, np.ndarray] = {}
    for i, op in enumerate(program.ops):
        t = op.t_start_ns
        if op.kind is OpKind.WRITE:
            if op.source is not None:
                kind, _, arg = op.source.partition(":")
                if kind == "input":
                    bits = np.zeros(cols, dtype=np.uint8)
                    bits[:width] = vectors[arg]
                elif kind == "const":
                    bits = np.full(cols, int(arg), dtype=np.uint8)
                else:
                    raise ConfigError(f"unknown write source {op.source!r}")
            else:
                if len(op.bits) != cols:
                    raise ConfigError(
                        f"literal write carries {len(op.bits)} bits for {cols} columns"
                    )
                bits = np.asarray(op.bits, dtype=np.uint8)
            subarray.write_row(op.rows[0], bits, t)
        elif op.kind is OpKind.READ:
            bits = subarray.read_row(op.rows[0], t)
            name = program.read_outputs[i] if program.read_outputs else None
            if name is not None:
                outputs[name] = bits[:width].copy()
        elif op.kind is OpKind.REFRESH:
            subarray.refresh_row(op.rows[0], t)
        else:
            subarray.exec_logic(op.rows, op.out_row, t)
    return outputs


def simulate_program(
    program: PimProgram,
    input_vectors: dict,
    mode: str = "nominal",
    model_cfg: ModelConfig | None = None,
    var_cfg: VariationConfig | None = None,
    *,
    n_trials: int = 1000,
    trial_stream_base: int = 0,
    trace: bool = False,
    enforce_freshness: bool = True,
) -> SimulationResult:
    """Run a compiled program over the given input vectors.

    ideal: netlist evaluation only.  nominal: array simulation with
    nominal cells (must match ideal).  mc: n_trials array simulations
    with sampled variation, scored per column against ideal; the
    returned outputs are the ideal reference, and the report aggregates
    per input combination.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (expected one of {MODES})")
    if trace and mode != "nominal":
        raise ConfigError("waveform tracing needs nominal mode")
    model = model_cfg or ModelConfig()
    vectors, width = _normalize_vectors(program, input_vectors)

    clobbered = audit_row_soundness(program)
    if clobbered:
        raise ValueError(
            f"program is unsound: {clobbered[0].message} "
            f"(+{len(clobbered) - 1} more)" if len(clobbered) > 1
            else f"program is unsound: {clobbered[0].message}"
        )
    if enforce_freshness and mode != "ideal":
        stale = audit_refresh_safety(program)
        if stale:
            raise RetentionViolationError(
                f"program violates retention budgets: {stale[0].message} "
                f"({len(stale)} violations); compile it with refresh insertion"
            )

    ideal_out = {
        name: np.broadcast_to(np.asarray(v, dtype=np.uint8), (width,)).copy()
        for name, v in program.netlist.evaluate(vectors).items()
    }

    if mode == "ideal":
        return SimulationResult(
            mode=mode, width=width, outputs=ideal_out,
            duration_ns=program.duration_ns, energy_fj=program.energy_fj,
        )

    if mode == "nominal":
        sa = SubArray(model, program.timing, rows=program.rows,
                      cols=program.cols, trace=trace)
        outputs = run_program_on_array(program, sa, vectors, width)
        return SimulationResult(
            mode=mode, width=width, outputs=outputs,
            duration_ns=sa.ledger.makespan_ns(),
            energy_fj=sa.ledger.total_energy_fj(),
            ledger=sa.ledger,
            trace=sa.trace_samples,
        )

    # Monte Carlo over whole-program executions
    if var_cfg is None:
        raise ConfigError("mc mode needs a VariationConfig (calibrated or explicit)")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")

    combo_key = [
        "".join(str(int(vectors[name][c])) for name in program.inputs)
        for c in range(width)
    ]
    input_rows = [program.assignment.input_rows[n] for n in program.inputs]
    input_bits = np.array([vectors[n] for n in program.inputs])
    ok = np.ones((n_trials, width), dtype=bool)
    fast = np.zeros((n_trials, width), dtype=bool)
    adverse = np.zeros((n_trials, width), dtype=bool)
    ledger = None

    for trial in range(n_trials):
        sv = sample_params(
            var_cfg, rng_stream=trial_stream_base + trial,
            rows=program.rows, cols=program.cols, model_cfg=model,
        )
        sa = SubArray(
            model, program.timing, rows=program.rows, cols=program.cols,
            tau_scale=sv.tau_scale, drive_offset=sv.drive_offset,
            sa_threshold=sv.sa_threshold,
        )
        outputs = run_program_on_array(program, sa, vectors, width)
        # a failing column is attributed by its first wrong output
        first_bad_expected = np.zeros(width, dtype=np.uint8)
        for name in ideal_out:
            bad = outputs[name] != ideal_out[name]
            newly = bad & ok[trial]
            first_bad_expected[newly] = ideal_out[name][newly]
            ok[trial] &= ~bad
        fast[trial] = _fast_decay_mask(sv.tau_scale[input_rows, :width], input_bits)
        adverse[trial] = _adverse_threshold_mask(
            sv.sa_threshold[:width], model.v_sa_read, first_bad_expected)
        ledger = sa.ledger

    combos: dict[str, CombinationResult] = {}
    for key in dict.fromkeys(combo_key):  # stable order, unique
        cols_for = [c for c in range(width) if combo_key[c] == key]
        combos[key] = CombinationResult(
            input_bits=tuple(int(ch) for ch in key),
            trials=n_trials * len(cols_for),
            successes=int(ok[:, cols_for].sum()),
            breakdown=_classify_failures(
                ~ok[:, cols_for], fast[:, cols_for], adverse[:, cols_for]),
        )
    report = SuccessReport(
        gate="program", n_inputs=len(program.inputs),
        input_age_ns=0, combinations=combos,
    )
    return SimulationResult(
        mode=mode, width=width, outputs=ideal_out,
        duration_ns=ledger.makespan_ns(), energy_fj=ledger.total_energy_fj(),
        ledger=ledger, report=report,
    )
