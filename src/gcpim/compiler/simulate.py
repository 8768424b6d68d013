"""Execution of compiled programs: logical, nominal-array, and Monte Carlo.

Input vectors are laid out one per column, so a single pass evaluates up
to 64 vectors bitwise-parallel.  Every mode evaluates the netlist once:
its outputs are every mode's result and Monte Carlo's reference.  A
``worst_margin`` above ``MARGIN_ALLOWANCE_V`` certifies them for nominal
cells; otherwise (the bound is conservative) or when tracing, a nominal
array runs and must match them or raise ``RetentionViolationError``.
Monte Carlo gives trial ``i`` its own draw from stream ``i``: the rows
the program touches at its full column width, of which the vectors use
the first columns, so no cell depends on the vector count or the block
size.  ``montecarlo.block_masks`` copies those columns into block arrays
of as many trials as fit in ``PROGRAM_BLOCK_CELLS`` cells and scores each
column, and ``CombinationResult.grouped`` counts every input combination
in one pass over each block.

Every mode first runs the soundness audit; nominal and MC runs also run
the retention audit and the margin replay.  All three read one replay of
the ops, ``PimProgram.senses``, which the first of them builds.  A
program that fails an audit is never executed: run an unrefreshed
program's ops with ``run_program_on_array`` to see what the array
computes.  A run's time and energy are the program's own
(``PimProgram.duration_ns`` and ``energy_fj``): its ops carry their
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
    SampledVariation,
    SuccessReport,
    VariationConfig,
    block_masks,
    sample_params,
    stream_generators,
)
from gcpim.subarray import OpKind, SubArray
from gcpim.compiler.program import (MalformedProgramError, PimProgram, audit_refresh_safety,
                                    audit_row_soundness, worst_margin)

__all__ = ["MARGIN_ALLOWANCE_V", "RetentionViolationError", "SimulationResult",
           "UnsoundProgramError", "exhaustive_vectors", "run_program_on_array",
           "simulate_program"]

MODES = ("ideal", "nominal", "mc")

MARGIN_ALLOWANCE_V = 1e-6  # far above where replay and array round apart


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
    margin: tuple[float, int | None] | None = None  # worst_margin; None in ideal mode
    certified: bool = False  # the margin, not a nominal array run, vouches for the outputs


def _normalize_vectors(program: PimProgram, input_vectors: dict) -> tuple[dict, int]:
    """Bit vectors per declared input, and the run's width: their common
    length, or one column for a program that declares no inputs."""
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
    width = None if program.inputs else 1
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
    """All input combinations (one, empty, for no inputs), one per column in
    MSB-first counting order: what ``run`` without a CSV and ``mc --program`` run."""
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
    stores that input, with 0s in the columns past its end.  A program
    without inputs computes the same bits in every column.
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

    ideal: netlist evaluation only.  nominal: the netlist's outputs,
    certified by the worst margin or by a nominal array run (always when
    tracing).  mc: that check, then n_trials array simulations with
    sampled variation, run in blocks of trials side by side on one
    array's columns and scored per column against ideal; the report
    aggregates per input combination.  Every mode's outputs hold one bit
    per vector; a program without inputs takes ``{}`` and runs on one column.
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

    # the netlist's outputs, one bit per column (evaluate({}) gives 0-d
    # arrays): ideal mode's result, and what nominal and MC runs are held to
    ideal_out = {n: np.broadcast_to(v, width) for n, v in program.netlist.evaluate(vectors).items()}
    if mode == "ideal":
        return SimulationResult(width=width, outputs=ideal_out)

    if mode == "mc" and var_cfg is None:
        raise ConfigError("mc mode needs a VariationConfig (calibrated or explicit)")
    if mode == "mc" and n_trials < 1:
        raise ConfigError("n_trials must be >= 1")

    margin = worst_margin(program, model)
    result = SimulationResult(width=width, outputs=ideal_out, margin=margin,
                              certified=margin[0] > MARGIN_ALLOWANCE_V and not trace)
    if not result.certified:
        sa = SubArray(model, program.timing, rows=program.rows, cols=program.cols, trace=trace)
        outputs = run_program_on_array(program, sa, vectors)
        for name, want in ideal_out.items():
            wrong = np.flatnonzero(outputs[name][:width] != want)
            if wrong.size:
                raise RetentionViolationError(
                    f"nominal run differs from the netlist: output {name!r} wrong in "
                    f"vector {wrong[0]} ({wrong.size} of {width} vectors); the retention "
                    "audit checks ages, not levels")
        result.trace = sa.trace_rows
    if mode == "nominal":
        return result

    # Monte Carlo over whole-program executions
    # a block array keeps only the rows the program touches
    n_rows = 1 + max((r for op in program.ops for r in (*op.rows, op.out_row)
                      if r is not None), default=0)
    # drawn at full width; block_masks copies the vectors' columns into its block
    draws = (sample_params(var_cfg, rng, rows=n_rows, cols=program.cols, model_cfg=model)
             for rng in stream_generators(var_cfg.seed, range(n_trials)))
    draws = (SampledVariation(sv.tau_scale[:, :width], sv.drive_offset[:, :width],
                              sv.sa_threshold[:width]) for sv in draws)
    # column c's combination: its input bits in declaration order ("" without inputs)
    keys = ["".join(map(str, bits))
            for bits in zip(*(vectors[name].tolist() for name in program.inputs))] or [""]
    combos = CombinationResult.grouped(keys, block_masks(
        model, program.timing, program.ops, draws, PROGRAM_BLOCK_CELLS, vectors, ideal_out))
    result.report = SuccessReport(
        gate="program", n_inputs=len(program.inputs),
        input_age_ns=0, combinations=combos,
    )
    return result
