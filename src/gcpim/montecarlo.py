"""Monte Carlo yield estimation for in-array NOT/NOR gates and programs.

Each gate trial is one column-gate instance with freshly sampled per-cell
variation: the input cells' decay-rate multipliers and discharge-path
offsets, the output cell's multiplier, and the column's sense threshold.
Trials run through the same sub-array simulator as compiled programs
(write inputs, let them age, fire the gate, sense the output) so the
estimated yield reflects the full behavioral model, not a shortcut
formula.

Trials are batched onto sub-array columns: batch ``b`` covers trial
indices ``[64b, 64b + 64)`` and draws all its randomness from stream
``b``, so every trial's draw is a pure function of (seed, trial index)
and results do not depend on execution order or batch scheduling.
Stream ``s`` is numpy's ``default_rng(SeedSequence((seed, s)))``; a run
seeds all its streams together (``stream_generators``), which computes
numpy's seeding hash for a chunk of streams in one pass over its
four-word pool; seeds and streams stay below 2^64.  One engine,
``block_masks``, runs gates and programs alike: it copies as many draws
side by side as fit in ``BLOCK_CELLS`` cells (``PROGRAM_BLOCK_CELLS`` for
programs) into one block's grids, runs the ops on a block array and
scores every column; columns never interact, so grouping changes no
result.  A gate is a 3-op program and draws one ``(k+1) x 64`` grid per
batch; a program trial draws the rows the program touches at the
program's full column width, row-major, so a cell's value depends on
neither the vector count nor the block budget.
``CombinationResult.grouped`` counts every input combination's trials
in one pass over each block's columns, so memory follows the block, not
the run.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from gcpim.charge import ConfigError, ModelConfig
from gcpim.subarray import MicroOp, OpKind, SubArray, TimingEnergyConfig

__all__ = [
    "BASE_SIGMA_RATIOS",
    "CalibrationError",
    "CombinationResult",
    "SampledVariation",
    "SuccessReport",
    "VariationConfig",
    "block_masks",
    "calibrate_variation",
    "gate_trial_masks",
    "run_gate_campaign",
    "run_gate_trials",
    "sample_params",
    "stream_generators",
]

# Sigma ratios used by the calibration root-find, chosen so the three
# sources erode the worst-case sense margin by comparable amounts at
# nominal settings.  The calibrated defaults below are these ratios times
# the scale factor found by calibrate_variation() for the standard seed.
BASE_SIGMA_RATIOS = {"sigma_tau": 0.10, "sigma_sa": 0.02, "sigma_drive": 0.017}

_CALIBRATED_SCALE = 2.0

DEFAULT_SEED = 314159265

_BATCH_COLS = 64
_STREAM_STRIDE = 2**32

# Cells in one Monte Carlo block array, which holds at least one 64-trial
# batch (gates) or one trial (programs); peak memory grows by about 43
# bytes per cell.  A gate block runs 4 ops on k+1 rows, not bound by
# per-call overhead: at 4x these cells, 10,000-trial NOT/NOR2/NOR3
# campaigns took -4% to +3% time, no gain.  A program block replays every op
# (ripple-8: 170) at ~15 numpy calls each, so programs get 16x: ripple-8 on
# 64 vectors runs 40 trials in 1 block, not 3 at 4x, in 10 ms, not 14 (2-vCPU
# host), at a 5.6 MB peak for a full block, not 1.4 MB; the full adder 300 in 1.
BLOCK_CELLS = 8192
PROGRAM_BLOCK_CELLS = 16 * BLOCK_CELLS


def _below_2_64(value) -> int:
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{value} is not a non-negative integer below 2^64")
    return value


@dataclass(frozen=True)
class VariationConfig:
    """Magnitudes of the sampled process variation.

    tau_scale is lognormal with median 1.0 and log-sigma ``sigma_tau``;
    the per-column sense threshold is normal around the model's read
    threshold with std-dev ``sigma_sa`` volts; the discharge-path offset
    is normal around zero with std-dev ``sigma_drive`` volts.
    """

    sigma_tau: float = BASE_SIGMA_RATIOS["sigma_tau"] * _CALIBRATED_SCALE
    sigma_sa: float = BASE_SIGMA_RATIOS["sigma_sa"] * _CALIBRATED_SCALE
    sigma_drive: float = BASE_SIGMA_RATIOS["sigma_drive"] * _CALIBRATED_SCALE
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("sigma_tau", "sigma_sa", "sigma_drive"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be non-negative and finite")
        try:
            _below_2_64(self.seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed: {exc}") from None

    def scaled(self, factor: float) -> "VariationConfig":
        return replace(self, sigma_tau=self.sigma_tau * factor,
                       sigma_sa=self.sigma_sa * factor,
                       sigma_drive=self.sigma_drive * factor)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): 32-bit words,
# a pool of 4, and the constants of its two hash streams and its mix
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# streams seeded per vectorised pass, so memory does not grow with the run
_SEED_CHUNK = 1024


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants ``steps`` successive hash steps xor and multiply by,
    as columns: step ``i`` xors ``init * mult**i`` and multiplies by the
    next power."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return (np.array(consts[:-1], dtype=np.uint64)[:, None],
            np.array(consts[1:], dtype=np.uint64)[:, None])


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # uint64 products of 32-bit values are exact; the difference wraps
    # mod 2**64, which keeps its low 32 bits right
    value = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return value ^ value >> 16


def _pcg64_seeds(pool: np.ndarray) -> list[list[int]]:
    """The 4 uint64 words ``SeedSequence.generate_state(4, np.uint64)``
    gives for each column of ``pool`` (numpy's four-word entropy pool,
    zero past the entropy): the PCG64 seed high and low, then the
    increment high and low."""
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_WORDS)
    pool = _hash(pool, xor[:_POOL_WORDS], mult[:_POOL_WORDS])
    # every pool word into every other one; a source never changes while
    # it feeds the other three, so they take it in one step
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        k = _POOL_WORDS + 3 * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mult[k:k + 3]))
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
    state = _hash(np.tile(pool, (2, 1)), xor, mult)
    return (state[0::2] | state[1::2] << 32).tolist()  # little-endian pairs


def stream_generators(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator per stream, each at the state
    ``np.random.default_rng(np.random.SeedSequence((seed, stream)))``
    starts from; seed and streams lie in [0, 2^64), or raise ``ValueError``.

    numpy puts the seed's and then the stream's 32-bit words, two at most,
    into its four-word pool, zero past them, so that a high word of 0
    hashes as none.  The hash runs for up to ``_SEED_CHUNK`` streams at a
    time in one pass over the pool; the seed then becomes a PCG64 state as
    ``pcg64_set_seed`` makes it.  Every yield is the same ``Generator``,
    moved to the next stream: draw from it before asking for the next one.
    """
    seed = _below_2_64(seed)
    at = 2 if seed >> 32 else 1  # the pool word the stream starts at
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    streams = iter(streams)
    while chunk := [_below_2_64(s) for s in islice(streams, _SEED_CHUNK)]:
        values = np.array(chunk, dtype=np.uint64)
        pool = np.zeros((_POOL_WORDS, len(chunk)), dtype=np.uint64)
        pool[0], pool[1] = seed & _MASK32, seed >> 32
        pool[at], pool[at + 1] = values & _MASK32, values >> 32
        for seed_hi, seed_lo, inc_hi, inc_lo in zip(*_pcg64_seeds(pool)):
            # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1, then
            # two LCG steps with the seed added after the first
            inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
            state = (((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


@dataclass(frozen=True)
class SampledVariation:
    """One draw of per-cell and per-column parameters (struct of arrays)."""

    tau_scale: np.ndarray
    drive_offset: np.ndarray
    sa_threshold: np.ndarray


def sample_params(
    var_cfg: VariationConfig,
    rng_stream: int | np.random.Generator = 0,
    *,
    rows: int = 64,
    cols: int = 64,
    model_cfg: ModelConfig | None = None,
) -> SampledVariation:
    """Draw one ``rows x cols`` grid of variation parameters.

    Deterministic given (var_cfg.seed, rng_stream) and the grid shape;
    every cell and column is an independent draw.  ``rng_stream`` is a
    stream number, or that stream's generator from ``stream_generators``
    (which a run uses to seed all its streams at once).  Zero sigmas
    reproduce nominal parameters exactly.  Grids are drawn row-major:
    program MC draws a program's touched rows at its full column width
    and cuts out one column per vector.
    """
    model = model_cfg or ModelConfig()
    if rows <= 0 or cols <= 0:
        raise ConfigError(f"bad grid shape {rows}x{cols}")
    rng = (rng_stream if isinstance(rng_stream, np.random.Generator)
           else next(stream_generators(var_cfg.seed, (rng_stream,))))
    # draw order is part of the determinism contract: tau, drive, threshold
    tau_scale = rng.lognormal(mean=0.0, sigma=var_cfg.sigma_tau, size=(rows, cols))
    drive_offset = rng.normal(loc=0.0, scale=var_cfg.sigma_drive, size=(rows, cols))
    sa_threshold = rng.normal(loc=model.v_sa_read, scale=var_cfg.sigma_sa, size=cols)
    return SampledVariation(tau_scale, drive_offset, sa_threshold)


@dataclass(frozen=True)
class CombinationResult:
    """One input combination's trials, successes and failures by which
    adverse factors were present.

    A failing trial is tagged "decay" when some input cell holding '1'
    drew a decay-rate multiplier below 1 (faster discharge of the stored
    level), and "threshold" when the column's sense threshold deviated
    toward the failing side for the expected output bit (below nominal
    when a '0' must be sensed, above nominal when a '1' must).
    """

    trials: int
    successes: int
    decay_only: int
    threshold_only: int
    both: int
    other: int

    def __post_init__(self) -> None:
        failures = self.decay_only + self.threshold_only + self.both + self.other
        if not 0 <= failures == self.trials - self.successes <= self.trials:
            raise ValueError("successes and failures must be >= 0 and sum to the trials")

    @classmethod
    def grouped(cls, keys: Sequence[str],
                blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
                ) -> "dict[str, CombinationResult]":
        """Each combination's result from ``block_masks`` blocks of whole
        trials of ``len(keys)`` columns each, column ``j`` running
        combination ``keys[j]``; keyed in the order combinations first
        appear.  Counts are kept per column, so a block's masks are dropped
        once counted."""
        tally = np.zeros((5, len(keys)), dtype=np.int64)
        for ok, fast, adverse in blocks:
            ok, fast, adverse = (m.reshape(-1, len(keys)) for m in (ok, fast, adverse))
            fail = ~ok
            # successes, then the failures in field order
            tally += np.stack([ok, fail & fast & ~adverse, fail & ~fast & adverse,
                               fail & fast & adverse, fail & ~fast & ~adverse]).sum(axis=1)
        index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        counts = np.zeros((len(index), 5), dtype=np.int64)
        np.add.at(counts, [index[key] for key in keys], tally.T)
        return {key: cls(sum(row), *row) for key, row in zip(index, counts.tolist())}

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "failures": {"decay_only": self.decay_only,
                         "threshold_only": self.threshold_only,
                         "both": self.both, "other": self.other},
        }


@dataclass(eq=False)
class SuccessReport:
    """Per-input-combination yield for one gate at one operand age."""

    gate: str
    n_inputs: int
    input_age_ns: int
    combinations: dict[str, CombinationResult] = field(default_factory=dict)

    def worst_case(self) -> tuple[str, float]:
        bits = min(self.combinations, key=lambda k: self.combinations[k].success_rate)
        return bits, self.combinations[bits].success_rate

    def to_json_dict(self) -> dict:
        return {
            "gate": self.gate,
            "n_inputs": self.n_inputs,
            "input_age_ns": self.input_age_ns,
            "combinations": {k: v.to_dict() for k, v in sorted(self.combinations.items())},
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["combination", "trials", "successes", "success_rate",
                 "decay_only", "threshold_only", "both", "other"]
            )
            writer.writerows(
                [bits, c.trials, c.successes, repr(c.success_rate),
                 c.decay_only, c.threshold_only, c.both, c.other]
                for bits, c in sorted(self.combinations.items()))


def _check_gate(gate: str, input_bits: Sequence[int]) -> tuple[str, tuple[int, ...]]:
    name = gate.upper()
    if name not in ("NOT", "NOR"):
        raise ConfigError(f"unknown gate {gate!r} (expected NOT or NOR)")
    bits = tuple(int(b) for b in input_bits)
    if any(b not in (0, 1) for b in bits):
        raise ConfigError(f"input bits must be 0/1, got {input_bits}")
    if name == "NOT" and len(bits) != 1:
        raise ConfigError(f"NOT takes exactly one input, got {len(bits)}")
    if name == "NOR" and not (1 <= len(bits) <= 63):
        raise ConfigError(f"NOR arity {len(bits)} outside [1, 63]")
    return name, bits


def _across(values, cols: int) -> np.ndarray:
    """``values`` for one draw's columns (one value stands for them all),
    repeated across a block of ``cols`` columns."""
    values = np.asarray(values)
    return np.broadcast_to(values, (cols // values.size, values.size)).reshape(cols)


def block_masks(model: ModelConfig, timing: TimingEnergyConfig, ops: Sequence[MicroOp],
                draws: Iterator[SampledVariation], cells: int,
                inputs: dict, wants: dict) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run ``ops`` on every variation draw of ``draws`` and score every column.

    Draws run side by side on block arrays, draw ``i`` right of draw
    ``i-1``: a block takes as many as fit in ``cells`` cells at its first
    draw's size, and at least one.  Every draw has the ops' row count.
    ``inputs[name]`` is what an ``input:<name>`` WRITE stores in
    one draw's columns, and ``wants[name]`` what the READ of output
    ``name`` must sense.  A block's grids are allocated once and each draw
    is copied into its column slice, so it lives no longer than that; no
    draw may be wider than its block's first.  Yields each block's masks,
    one entry per column: every output right, some input cell holding '1'
    decaying faster than nominal, and a sense threshold shifted toward the
    failing side of the first wrong output (of the first output in a column
    with none wrong): below the model's read threshold when a '0' must be
    sensed, above it when a '1' must.
    """
    writes = [(op.rows[0], op.source[len("input:"):]) for op in ops
              if op.kind is OpKind.WRITE and op.source.startswith("input:")]
    outputs = [op.output for op in ops if op.kind is OpKind.READ]
    for first in draws:
        rows, step = first.tau_scale.shape
        fits = max(1, cells // first.tau_scale.size)
        tau, drive = np.empty((2, rows, fits * step))
        threshold, end = np.empty(fits * step), 0
        for sv in chain((first,), islice(draws, fits - 1)):
            cols = slice(end, end + sv.sa_threshold.size)
            tau[:, cols], drive[:, cols], threshold[cols] = (
                sv.tau_scale, sv.drive_offset, sv.sa_threshold)
            end = cols.stop
        sa = SubArray(model, timing, rows=rows, cols=end, tau_scale=tau[:, :end],
                      drive_offset=drive[:, :end], sa_threshold=threshold[:end])
        del first, sv, tau, drive, threshold  # the array keeps what it derives from them
        bits = {name: _across(v, sa.cols) for name, v in inputs.items()}
        sensed = dict(zip(outputs, sa.run(ops, bits)))  # the last READ of a name
        scored = [(sensed[name], _across(want, sa.cols)) for name, want in wants.items()]
        got, side = scored[0]
        ok = got == side
        for got, want in scored[1:]:
            side = np.where(ok & (got != want), want, side)
            ok &= got == want
        # faster than nominal: tau_ns * s < tau_ns exactly when s < 1, since
        # a product with s < 1 never rounds up to tau_ns
        fast = np.zeros(sa.cols, dtype=bool)
        for row, name in writes:
            fast |= (sa.tau[row] < model.tau_ns) & (bits[name] != 0)
        adverse = np.where(side == 0, sa.sa_threshold < model.v_sa_read,
                           sa.sa_threshold > model.v_sa_read)
        del sa  # before the next block's draws
        yield ok, fast, adverse


def gate_trial_masks(
    gate: str,
    input_bits: Sequence[int],
    n_trials: int,
    input_age_ns: int,
    var_cfg: VariationConfig,
    model_cfg: ModelConfig | None = None,
    timing_cfg: TimingEnergyConfig | None = None,
    *,
    stream_base: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the trials of one gate on one input combination.

    Every trial writes the operand rows, lets them age so the oldest
    operand is ``input_age_ns`` old at the evaluation phase, fires the
    gate and senses the output.  Returns per-trial masks: success, some
    '1' input cell decaying faster than nominal, and a sense threshold
    shifted toward the failing side.
    """
    _, bits = _check_gate(gate, input_bits)
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if input_age_ns < 0:
        raise ConfigError("input_age_ns must be >= 0")
    model = model_cfg or ModelConfig()
    timing = timing_cfg or TimingEnergyConfig()

    k = len(bits)
    expected = int(not any(bits))  # NOT is the one-input NOR
    # oldest operand is written first; the gate fires so that its age at
    # the start of the evaluation phase equals input_age_ns (clamped up
    # only when the remaining writes have not finished yet)
    t_first_valid = timing.t_write_ns
    t_logic = max(k * timing.t_write_ns, t_first_valid + input_age_ns - timing.t_init_ns)
    ops = [MicroOp(OpKind.WRITE, (i,), source=f"input:x{i}", t_start_ns=i * timing.t_write_ns)
           for i in range(k)]
    ops += [MicroOp(OpKind.LOGIC, tuple(range(k)), out_row=k, t_start_ns=t_logic),
            MicroOp(OpKind.READ, (k,), t_start_ns=t_logic + timing.t_logic_ns, output="out")]

    n_batches = -(-n_trials // _BATCH_COLS)
    rngs = stream_generators(var_cfg.seed, range(stream_base, stream_base + n_batches))
    draws = (sample_params(var_cfg, rng, rows=k + 1,
                           cols=min(_BATCH_COLS, n_trials - b * _BATCH_COLS), model_cfg=model)
             for b, rng in enumerate(rngs))
    blocks = block_masks(model, timing, ops, draws, BLOCK_CELLS,
                         {f"x{i}": b for i, b in enumerate(bits)}, {"out": expected})
    return tuple(map(np.concatenate, zip(*blocks)))


def run_gate_trials(
    gate: str,
    input_bits: Sequence[int],
    n_trials: int,
    input_age_ns: int,
    var_cfg: VariationConfig,
    model_cfg: ModelConfig | None = None,
    timing_cfg: TimingEnergyConfig | None = None,
    *,
    stream_base: int = 0,
) -> SuccessReport:
    """Estimate the success rate of one gate on one input combination
    (see ``gate_trial_masks``), scored against the truth table."""
    name, bits = _check_gate(gate, input_bits)
    ok, fast, adverse = gate_trial_masks(
        name, bits, n_trials, input_age_ns, var_cfg, model_cfg, timing_cfg,
        stream_base=stream_base,
    )
    return SuccessReport(
        gate=name,
        n_inputs=len(bits),
        input_age_ns=int(input_age_ns),
        combinations=CombinationResult.grouped(["".join(map(str, bits))], [(ok, fast, adverse)]),
    )


def run_gate_campaign(
    gate: str,
    n_inputs: int,
    n_trials: int,
    input_age_ns: int,
    var_cfg: VariationConfig,
    model_cfg: ModelConfig | None = None,
    timing_cfg: TimingEnergyConfig | None = None,
) -> SuccessReport:
    """Run every input combination of a gate; one report, 2^n entries.

    Stream indices are partitioned per combination so campaign results
    for a combination match a standalone run_gate_trials call with
    stream_base = combination_index * 2^32, so a campaign takes at most 32
    inputs: every stream stays below 2^64.
    """
    max_inputs = 65 - _STREAM_STRIDE.bit_length()
    if not 1 <= n_inputs <= max_inputs:
        raise ConfigError(f"gate arity must be >= 1 and <= {max_inputs}, got {n_inputs}")
    report = SuccessReport(gate=gate.upper(), n_inputs=n_inputs, input_age_ns=int(input_age_ns))
    for c in range(2**n_inputs):
        bits = tuple((c >> (n_inputs - 1 - i)) & 1 for i in range(n_inputs))
        one = run_gate_trials(
            gate, bits, n_trials, input_age_ns, var_cfg, model_cfg, timing_cfg,
            stream_base=c * _STREAM_STRIDE,
        )
        report.combinations.update(one.combinations)
    return report


class CalibrationError(RuntimeError):
    """Raised when the variation-scale root-find cannot reach its target."""

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def calibrate_variation(
    target_worst_case: float = 0.995,
    model_cfg: ModelConfig | None = None,
    timing_cfg: TimingEnergyConfig | None = None,
    *,
    seed: int = DEFAULT_SEED,
    n_trials: int = 20000,
    tolerance: float = 0.003,
    max_iter: int = 48,
    on_step=None,
) -> VariationConfig:
    """Find variation magnitudes that reproduce the target worst-case yield.

    The worst case is a single stored '1' consumed at the full logic
    retention budget: NOT('1') with the operand aged drt_logic_ns.  One
    loop probes a common scale over the base sigma ratios: it doubles from
    1 while the rate stays above the band, then bisects, until the success
    rate over n_trials lands within ``tolerance`` of the target.  All
    evaluations reuse the same random streams (common random numbers), so
    the rate is a deterministic function of the scale and the root-find
    is stable.  ``on_step(scale, rate)`` is called after each evaluation.
    """
    if not (0.5 < target_worst_case < 1.0):
        raise ConfigError("target_worst_case must lie in (0.5, 1.0)")
    if n_trials < 10**4:
        raise ConfigError("calibration needs at least 10^4 trials")
    model = model_cfg or ModelConfig()
    base = VariationConfig(**BASE_SIGMA_RATIOS, seed=seed)
    # zero variation always succeeds; targets within tolerance of 1 are
    # served by the degenerate config
    if 1.0 - target_worst_case <= tolerance:
        return base.scaled(0.0)

    # hi stays None while the scale doubles to bracket the target
    lo, hi, scale, halvings = 0.0, None, 1.0, 0
    evaluations: list[tuple[float, float]] = []
    diagnostics = {"evaluations": evaluations, "n_trials": n_trials}
    while True:
        rate = run_gate_trials("NOT", (1,), n_trials, model.drt_logic_ns, base.scaled(scale),
                               model, timing_cfg).combinations["1"].success_rate
        evaluations.append((scale, rate))
        if on_step is not None:
            on_step(scale, rate)
        if hi is None and rate > target_worst_case + tolerance and scale < 2**10:
            lo, scale = scale, 2 * scale
            continue
        if abs(rate - target_worst_case) <= tolerance:
            return base.scaled(scale)
        if hi is None and rate > target_worst_case:
            raise CalibrationError(f"worst-case rate stays above {target_worst_case} "
                                   f"up to scale {scale}", diagnostics)
        if rate > target_worst_case:
            lo = scale
        else:
            hi = scale
        if hi - lo < 1e-9 or halvings >= max_iter:
            raise CalibrationError(f"no scale within {tolerance} of {target_worst_case} after "
                                   f"{halvings} steps", {**diagnostics, "bracket": (lo, hi)})
        scale, halvings = 0.5 * (lo + hi), halvings + 1
