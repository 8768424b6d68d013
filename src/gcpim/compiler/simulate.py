"""Execution of compiled programs: logical, nominal-array, and Monte Carlo.

Input vectors are laid out one per column, so a single pass evaluates up
to 64 vectors bitwise-parallel.  Every mode evaluates the netlist once:
its outputs are ideal mode's result, the values a nominal run must match
(or raise ``RetentionViolationError``) and Monte Carlo's reference.
Monte Carlo gives every trial its own variation draw, shared by the
trial's columns, and scores each column through ``montecarlo.block_masks``,
the engine gate campaigns use too: trials run side by side on one block
array of about ``PROGRAM_BLOCK_CELLS`` cells, 4x a gate campaign's
``BLOCK_CELLS``, since a program replays all its ops per block at a fixed
few numpy calls each.  Trial ``i`` draws from stream ``i``, numpy's
``default_rng(SeedSequence((seed, i)))``, at the stream positions of one
full ``program.rows x program.cols`` grid, but only the corner of cells
the block uses is transformed (``sample_params(..., keep=...)``).

Every mode first runs the soundness audit, which replays the ops'
``node``/``output`` names against the netlist; nominal and MC runs also
run the retention audit.  A program that fails either is never executed:
run an unrefreshed program's ops with ``run_program_on_array`` to see
what the array computes.  A run's time and energy are the program's
own (``PimProgram.duration_ns`` and ``energy_fj``): its ops carry their
compiled start times, and their cost never depends on the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gcpim.charge import ConfigError, ModelConfig
from gcpim.montecarlo import (
    PROGRAM_BLOCK_CELLS,
    CombinationResult,
    SuccessReport,
    VariationConfig,
    block_masks,
    sample_params,
    stream_generators,
)
from gcpim.subarray import OpKind, SubArray
from gcpim.compiler.program import (MalformedProgramError, PimProgram, audit_refresh_safety,
                                    audit_row_soundness)

__all__ = ["RetentionViolationError", "SimulationResult", "UnsoundProgramError",
           "exhaustive_vectors", "run_program_on_array", "simulate_program"]

MODES = ("ideal", "nominal", "mc")


class UnsoundProgramError(MalformedProgramError):
    """An op consumes a row that does not hold the netlist value it was
    compiled against: the program file is malformed."""


class RetentionViolationError(ValueError):
    """The program consumes or refreshes a value past its retention
    window, so an array run would compute garbage."""


@dataclass
class SimulationResult:
    width: int
    outputs: dict[str, np.ndarray]
    trace: list[tuple[int, int, np.ndarray]] | None = None  # SubArray.trace_rows
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
        v = np.asarray(input_vectors[name])
        if v.ndim != 1:
            raise ConfigError(f"input {name!r} must be a flat bit vector")
        if not np.all((v == 0) | (v == 1)):  # before the cast can wrap or truncate
            raise ConfigError(f"input {name!r} has non-bit values")
        v = v.astype(np.uint8)
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
) -> dict[str, np.ndarray]:
    """Execute the timestamped ops; returns output name -> one bit per
    array column.

    Array column ``j`` holds vector ``j``: each ``input:<name>`` WRITE
    stores that input, with 0s in the columns past its end.
    """
    inputs = {}
    for name, v in vectors.items():
        inputs[name] = np.zeros(subarray.cols, dtype=np.uint8)
        inputs[name][:len(v)] = v
    reads = subarray.run(program.ops, inputs)
    names = [op.output for op in program.ops if op.kind is OpKind.READ]
    return {name: bits for name, bits in zip(names, reads) if name is not None}


def simulate_program(
    program: PimProgram,
    input_vectors: dict,
    mode: str = "nominal",
    model_cfg: ModelConfig | None = None,
    var_cfg: VariationConfig | None = None,
    *,
    n_trials: int = 1000,
    trace: bool = False,
) -> SimulationResult:
    """Run a compiled program over the given input vectors.

    ideal: netlist evaluation only.  nominal: array simulation with
    nominal cells (must match ideal).  mc: n_trials array simulations
    with sampled variation, run in blocks of trials side by side on one
    array's columns and scored per column against ideal; the returned
    outputs are the ideal reference, and the report aggregates per input
    combination.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (expected one of {MODES})")
    if trace and mode != "nominal":
        raise ConfigError("waveform tracing needs nominal mode")
    model = model_cfg or ModelConfig()
    vectors, width = _normalize_vectors(program, input_vectors)

    unsound = audit_row_soundness(program)
    if unsound:
        more = f" (+{len(unsound) - 1} more)" if len(unsound) > 1 else ""
        raise UnsoundProgramError(f"program is unsound: {unsound[0].message}{more}")
    if mode != "ideal":
        stale = audit_refresh_safety(program)
        if stale:
            raise RetentionViolationError(
                f"program fails the retention audit: {stale[0].message} "
                f"({len(stale)} violations); recompile it with refresh insertion"
            )

    # the netlist's outputs: ideal mode's result, and what nominal and MC
    # runs are held to
    ideal_out = {
        name: np.broadcast_to(np.asarray(v, dtype=np.uint8), (width,)).copy()
        for name, v in program.netlist.evaluate(vectors).items()
    }
    if mode == "ideal":
        return SimulationResult(width=width, outputs=ideal_out)

    if mode == "nominal":
        sa = SubArray(model, program.timing, rows=program.rows,
                      cols=program.cols, trace=trace)
        outputs = {name: bits[:width]
                   for name, bits in run_program_on_array(program, sa, vectors).items()}
        for name, want in ideal_out.items():
            wrong = np.flatnonzero(outputs[name] != want)
            if wrong.size:
                raise RetentionViolationError(
                    f"nominal run differs from the netlist: output {name!r} wrong in "
                    f"vector {wrong[0]} ({wrong.size} of {width} vectors); the retention "
                    "audit checks ages, not levels")
        return SimulationResult(width=width, outputs=outputs, trace=sa.trace_rows)

    # Monte Carlo over whole-program executions
    if var_cfg is None:
        raise ConfigError("mc mode needs a VariationConfig (calibrated or explicit)")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")

    combo_key = [
        "".join(str(int(vectors[name][c])) for name in program.inputs)
        for c in range(width)
    ]
    # a block array keeps only the rows the program touches
    n_rows = 1 + max((r for op in program.ops for r in (*op.rows, op.out_row)
                      if r is not None), default=0)
    rngs = stream_generators(var_cfg.seed, range(n_trials))
    draws = (sample_params(var_cfg, rng, rows=program.rows, cols=program.cols,
                           model_cfg=model, keep=(n_rows, width)) for rng in rngs)
    ok, fast, adverse = (mask.reshape(n_trials, width) for mask in block_masks(
        model, program.timing, program.ops, draws, n_trials,
        max(1, PROGRAM_BLOCK_CELLS // (n_rows * width)), vectors, ideal_out))

    combos: dict[str, CombinationResult] = {}
    for key in dict.fromkeys(combo_key):  # stable order, unique
        cols_for = [c for c in range(width) if combo_key[c] == key]
        combos[key] = CombinationResult.from_masks(
            ok[:, cols_for], fast[:, cols_for], adverse[:, cols_for])
    report = SuccessReport(
        gate="program", n_inputs=len(program.inputs),
        input_age_ns=0, combinations=combos,
    )
    return SimulationResult(width=width, outputs=ideal_out, report=report)
