"""Execution of compiled programs: logical, nominal-array, and Monte Carlo.

Input vectors are laid out one per column, so a single pass evaluates up
to 64 vectors bitwise-parallel.  Nominal mode must agree with ideal mode
exactly.  Monte Carlo mode gives every trial its own variation draw (all
columns of a trial share it) and scores each column against the ideal
outputs.  Trials run in blocks of about ``BLOCK_CELLS`` cells, side by
side on the columns of one array (``montecarlo.block_array``, shared with
gate campaigns): columns never interact, so each trial computes exactly
what it would on an array of its own.  Trial ``i`` draws from stream
``i`` at the stream positions of one full ``program.rows x program.cols``
grid, but only the corner of cells the block uses is transformed
(``sample_params(..., keep=...)``).  Gate campaigns score the same way:
``score_block`` masks each block's columns and
``CombinationResult.from_masks`` counts each input combination.

Every mode first runs the soundness audit, which replays the ops'
``node``/``output`` names against the netlist; nominal and MC runs also
run the retention audit.  A program that fails either is never executed:
run an unrefreshed program's ops with ``run_program_on_array`` to see
what the array computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gcpim.charge import ConfigError, ModelConfig
from gcpim.montecarlo import (
    BLOCK_CELLS,
    CombinationResult,
    SuccessReport,
    VariationConfig,
    block_array,
    sample_params,
    score_block,
)
from gcpim.subarray import EventLedger, OpKind, SubArray
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
    mode: str
    width: int
    outputs: dict[str, np.ndarray]
    duration_ns: int
    energy_fj: float
    ledger: EventLedger | None = None
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
    columns: np.ndarray,
) -> dict[str, np.ndarray]:
    """Execute the timestamped ops; returns output name -> one bit per
    array column.

    Array column ``j`` runs program column ``columns[j]``: it is written
    that column's input bit and literal-write bit.  Program columns past
    the end of the input vectors hold input bits of 0.
    """
    columns = np.asarray(columns)
    inputs = {}
    for name, v in vectors.items():
        padded = np.zeros(program.cols, dtype=np.uint8)
        padded[:len(v)] = v
        inputs[name] = padded[columns]

    def write_bits(op):
        if op.source is None:  # audit_row_soundness checks the bit count
            return np.asarray(op.bits, dtype=np.uint8)[columns]
        kind, _, arg = op.source.partition(":")
        if kind == "input":
            return inputs[arg]
        if kind == "const":
            return np.full(len(columns), int(arg), dtype=np.uint8)
        raise ConfigError(f"unknown write source {op.source!r}")

    reads = subarray.run(program.ops, write_bits)
    names = [op.output for op in program.ops if op.kind is OpKind.READ]
    return {name: bits for name, bits in zip(names, reads) if name is not None}


def _run_mc_block(program, model, var_cfg, vectors, ideal_out, n_rows, width,
                  streams):
    """Run MC trials side by side on one block array.

    Trial ``i`` draws from stream ``streams[i]`` and owns array columns
    ``[i*width, (i+1)*width)``.  Returns the ``score_block`` masks shaped
    (trials, width).
    """
    n = len(streams)
    draws = (sample_params(var_cfg, rng_stream=stream, rows=program.rows,
                           cols=program.cols, model_cfg=model, keep=(n_rows, width))
             for stream in streams)
    sa = block_array(model, program.timing, draws)
    outputs = run_program_on_array(program, sa, vectors, np.tile(np.arange(width), n))
    # the rows the WRITE ops store inputs in, which the soundness audit checks
    input_writes = [(op.rows[0], op.source[len("input:"):]) for op in program.ops
                    if op.kind is OpKind.WRITE and op.source is not None
                    and op.source.startswith("input:")]
    masks = score_block(
        sa, [outputs[name] for name in ideal_out],
        [np.tile(want, n) for want in ideal_out.values()],
        [row for row, _ in input_writes],
        np.tile([vectors[name] for _, name in input_writes], n))
    return tuple(mask.reshape(n, width) for mask in masks)


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
    outputs are the ideal reference, the ledger is the nominal one, and
    the report aggregates per input combination.
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

    ideal_out = {
        name: np.broadcast_to(np.asarray(v, dtype=np.uint8), (width,)).copy()
        for name, v in program.netlist.evaluate(vectors).items()
    }

    if mode == "ideal":
        return SimulationResult(
            mode=mode, width=width, outputs=ideal_out,
            duration_ns=program.duration_ns, energy_fj=program.energy_fj,
        )

    # op timing and energy depend on the ops and the active columns, not
    # on the cells: nominal and every MC trial share this ledger
    ledger = EventLedger.from_ops(program.ops, program.timing, program.cols)
    if mode == "nominal":
        sa = SubArray(model, program.timing, rows=program.rows,
                      cols=program.cols, trace=trace)
        outputs = run_program_on_array(program, sa, vectors, np.arange(program.cols))
        return SimulationResult(
            mode=mode, width=width,
            outputs={name: bits[:width] for name, bits in outputs.items()},
            duration_ns=ledger.makespan_ns(), energy_fj=ledger.total_energy_fj(),
            ledger=ledger, trace=sa.trace_rows,
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
    # a block array keeps only the rows the program touches
    n_rows = 1 + max((r for op in program.ops for r in (*op.rows, op.out_row)
                      if r is not None), default=0)
    per_block = max(1, BLOCK_CELLS // (n_rows * width))
    streams = range(n_trials)
    blocks = [
        _run_mc_block(program, model, var_cfg, vectors, ideal_out, n_rows, width,
                      streams[first:first + per_block])
        for first in range(0, n_trials, per_block)
    ]
    ok, fast, adverse = (np.concatenate(masks) for masks in zip(*blocks))

    combos: dict[str, CombinationResult] = {}
    for key in dict.fromkeys(combo_key):  # stable order, unique
        cols_for = [c for c in range(width) if combo_key[c] == key]
        combos[key] = CombinationResult.from_masks(
            map(int, key), ok[:, cols_for], fast[:, cols_for], adverse[:, cols_for])
    report = SuccessReport(
        gate="program", n_inputs=len(program.inputs),
        input_age_ns=0, combinations=combos,
    )
    return SimulationResult(
        mode=mode, width=width, outputs=ideal_out,
        duration_ns=ledger.makespan_ns(), energy_fj=ledger.total_energy_fj(),
        ledger=ledger, report=report,
    )
