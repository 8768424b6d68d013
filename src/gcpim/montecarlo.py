"""Monte Carlo yield estimation for in-array NOT/NOR gates.

Each trial is one column-gate instance with freshly sampled per-cell
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
Batches run side by side on the columns of one block array of about
``BLOCK_CELLS`` cells (``block_array``), which program Monte Carlo uses
too; columns never interact, so grouping changes no result.  Each path
keeps its own draw contract: gates draw one ``(k+1) x 64`` grid per
batch; a program trial's stream is positioned as if it drew one full
grid, but only the corner its block array keeps is transformed
(``sample_params(..., keep=...)``).  Both score a block with
``score_block`` and count one input combination's trials with
``CombinationResult.from_masks``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from gcpim.charge import ConfigError, ModelConfig
from gcpim.subarray import MicroOp, OpKind, SubArray, TimingEnergyConfig

__all__ = [
    "BASE_SIGMA_RATIOS",
    "CalibrationError",
    "CombinationResult",
    "FailureBreakdown",
    "SampledVariation",
    "SuccessReport",
    "VariationConfig",
    "block_array",
    "calibrate_variation",
    "gate_trial_masks",
    "run_gate_campaign",
    "run_gate_trials",
    "sample_params",
    "score_block",
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

# Cells in one Monte Carlo block array; a block holds at least one trial
# (programs) or one 64-trial batch (gates).  Peak memory grows by about 64
# bytes per cell: this budget runs NOR2 gates 42 batches at a time and
# the ripple-8 adder on 64 vectors 4 trials at a time for well under 1 MB.
BLOCK_CELLS = 8192


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
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in 64 bits")

    def scaled(self, factor: float) -> "VariationConfig":
        return replace(self, sigma_tau=self.sigma_tau * factor,
                       sigma_sa=self.sigma_sa * factor,
                       sigma_drive=self.sigma_drive * factor)


@dataclass(frozen=True)
class SampledVariation:
    """One draw of per-cell and per-column parameters (struct of arrays)."""

    tau_scale: np.ndarray
    drive_offset: np.ndarray
    sa_threshold: np.ndarray


def sample_params(
    var_cfg: VariationConfig,
    rng_stream: int = 0,
    *,
    rows: int = 64,
    cols: int = 64,
    model_cfg: ModelConfig | None = None,
    keep: tuple[int, int] | None = None,
) -> SampledVariation:
    """Draw one grid of variation parameters.

    Deterministic given (var_cfg.seed, rng_stream) and the grid shape;
    every cell and column is an independent draw.  Zero sigmas reproduce
    nominal parameters exactly.  ``keep=(n_rows, width)`` returns only
    the grid's top-left ``n_rows x width`` corner and the first ``width``
    thresholds, equal to the same corner of the full draw: the stream
    advances past the other cells with raw normal draws, which consume
    exactly the bits their transformed draws would.
    """
    model = model_cfg or ModelConfig()
    if rows <= 0 or cols <= 0:
        raise ConfigError(f"bad grid shape {rows}x{cols}")
    n_rows, width = (rows, cols) if keep is None else keep
    if not (0 < n_rows <= rows and 0 < width <= cols):
        raise ConfigError(f"cannot keep {n_rows}x{width} of a {rows}x{cols} grid")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(var_cfg.seed, rng_stream)))
    skipped = (rows - n_rows) * cols
    # draw order is part of the determinism contract: tau, drive, threshold
    tau_scale = rng.lognormal(mean=0.0, sigma=var_cfg.sigma_tau, size=(n_rows, cols))
    if skipped:
        rng.standard_normal(skipped)
    drive_offset = rng.normal(loc=0.0, scale=var_cfg.sigma_drive, size=(n_rows, cols))
    if skipped:
        rng.standard_normal(skipped)
    sa_threshold = rng.normal(loc=model.v_sa_read, scale=var_cfg.sigma_sa, size=width)
    # a copy, so a kept corner does not hold the rest of its rows alive
    return SampledVariation(np.ascontiguousarray(tau_scale[:, :width]),
                            np.ascontiguousarray(drive_offset[:, :width]), sa_threshold)


@dataclass(frozen=True)
class FailureBreakdown:
    """Counts of failed trials by which adverse factors were present.

    A failing trial is tagged "decay" when some input cell holding '1'
    drew a decay-rate multiplier below 1 (faster discharge of the stored
    level), and "threshold" when the column's sense threshold deviated
    toward the failing side for the expected output bit (below nominal
    when a '0' must be sensed, above nominal when a '1' must).
    """

    decay_only: int = 0
    threshold_only: int = 0
    both: int = 0
    other: int = 0

    @property
    def total(self) -> int:
        return self.decay_only + self.threshold_only + self.both + self.other

    def to_dict(self) -> dict:
        return {
            "decay_only": self.decay_only,
            "threshold_only": self.threshold_only,
            "both": self.both,
            "other": self.other,
        }


@dataclass(frozen=True)
class CombinationResult:
    input_bits: tuple[int, ...]
    trials: int
    successes: int
    breakdown: FailureBreakdown

    def __post_init__(self) -> None:
        if not (0 <= self.successes <= self.trials):
            raise ValueError("successes must lie in [0, trials]")
        if self.breakdown.total != self.trials - self.successes:
            raise ValueError("failure breakdown does not sum to the failure count")

    @classmethod
    def from_masks(cls, input_bits: Sequence[int], ok: np.ndarray, fast: np.ndarray,
                   adverse: np.ndarray) -> "CombinationResult":
        """One combination's result from its ``score_block`` masks, one
        entry per trial."""
        fail = ~ok
        return cls(
            input_bits=tuple(input_bits),
            trials=ok.size,
            successes=int(ok.sum()),
            breakdown=FailureBreakdown(
                decay_only=int(np.sum(fail & fast & ~adverse)),
                threshold_only=int(np.sum(fail & ~fast & adverse)),
                both=int(np.sum(fail & fast & adverse)),
                other=int(np.sum(fail & ~fast & ~adverse)),
            ),
        )

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def bits_str(self) -> str:
        return "".join(str(b) for b in self.input_bits)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "failures": self.breakdown.to_dict(),
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
            for bits in sorted(self.combinations):
                c = self.combinations[bits]
                b = c.breakdown
                writer.writerow(
                    [bits, c.trials, c.successes, repr(c.success_rate),
                     b.decay_only, b.threshold_only, b.both, b.other]
                )


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


def block_array(model: ModelConfig, timing: TimingEnergyConfig,
                draws: Iterable[SampledVariation]) -> SubArray:
    """One array holding the draws side by side, draw ``i`` right of draw
    ``i-1``; every draw has the array's row count."""
    tau, drive, threshold = zip(*((sv.tau_scale, sv.drive_offset, sv.sa_threshold)
                                  for sv in draws))
    return SubArray(model, timing, rows=len(tau[0]), cols=sum(map(len, threshold)),
                    tau_scale=np.hstack(tau), drive_offset=np.hstack(drive),
                    sa_threshold=np.concatenate(threshold))


def score_block(sa: SubArray, reads: Sequence[np.ndarray], wants: Sequence[np.ndarray],
                input_rows: Sequence[int],
                input_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score one block array's READ results, one entry per column.

    ``reads[j]`` and ``wants[j]`` are the sensed and wanted bits of output
    ``j``; ``input_bits[i]`` is what input row ``input_rows[i]`` holds.
    Returns the masks: every output right, some input cell holding '1'
    decaying faster than nominal, and a sense threshold shifted toward the
    failing side of the first wrong output (of the first output in a
    column with none wrong): below the model's read threshold when a '0'
    must be sensed, above it when a '1' must.
    """
    ok = reads[0] == wants[0]
    side = wants[0]
    for got, want in zip(reads[1:], wants[1:]):
        side = np.where(ok & (got != want), want, side)
        ok &= got == want
    # faster than nominal: tau_ns * s < tau_ns exactly when s < 1, since a
    # product with s < 1 never rounds up to tau_ns
    fast = ((sa.tau[input_rows] < sa.model.tau_ns)
            & np.asarray(input_bits, dtype=bool)).any(axis=0)
    threshold, nominal = sa.sa_threshold, sa.model.v_sa_read
    adverse = np.where(side == 0, threshold < nominal, threshold > nominal)
    return ok, fast, adverse


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
    ops = [MicroOp(OpKind.WRITE, (i,), source=f"const:{b}", t_start_ns=i * timing.t_write_ns)
           for i, b in enumerate(bits)]
    ops += [MicroOp(OpKind.LOGIC, tuple(range(k)), out_row=k, t_start_ns=t_logic),
            MicroOp(OpKind.READ, (k,), t_start_ns=t_logic + timing.t_logic_ns)]

    n_batches = -(-n_trials // _BATCH_COLS)
    per_block = max(1, BLOCK_CELLS // ((k + 1) * _BATCH_COLS))
    blocks = []
    for first in range(0, n_batches, per_block):
        draws = (
            sample_params(var_cfg, rng_stream=stream_base + b, rows=k + 1,
                          cols=min(_BATCH_COLS, n_trials - b * _BATCH_COLS),
                          model_cfg=model)
            for b in range(first, min(first + per_block, n_batches))
        )
        sa = block_array(model, timing, draws)
        reads = sa.run(ops, lambda op: np.full(
            sa.cols, int(op.source.partition(":")[2]), dtype=np.uint8))
        blocks.append(score_block(
            sa, reads, [np.full(sa.cols, expected)], range(k),
            np.repeat(np.array(bits, dtype=bool)[:, None], sa.cols, axis=1)))
    return tuple(np.concatenate(masks) for masks in zip(*blocks))


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
    combo = CombinationResult.from_masks(bits, ok, fast, adverse)
    return SuccessReport(
        gate=name,
        n_inputs=len(bits),
        input_age_ns=int(input_age_ns),
        combinations={combo.bits_str: combo},
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
    stream_base = combination_index * 2^32.
    """
    if n_inputs < 1:
        raise ConfigError(f"gate arity must be >= 1, got {n_inputs}")
    if gate.upper() == "NOT" and n_inputs != 1:
        raise ConfigError("NOT takes exactly one input")
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
    retention budget: NOT('1') with the operand aged drt_logic_ns.  A
    common scale factor over the base sigma ratios is bisected until the
    measured success rate over n_trials lands within ``tolerance`` of the
    target.  All evaluations reuse the same random streams (common random
    numbers), which makes the measured rate a deterministic function of
    the scale and keeps the root-find stable.  ``on_step(scale, rate)``
    is called after each evaluation when given.
    """
    if not (0.5 < target_worst_case < 1.0):
        raise ConfigError("target_worst_case must lie in (0.5, 1.0)")
    if n_trials < 10**4:
        raise ConfigError("calibration needs at least 10^4 trials")
    model = model_cfg or ModelConfig()
    base = VariationConfig(
        sigma_tau=BASE_SIGMA_RATIOS["sigma_tau"],
        sigma_sa=BASE_SIGMA_RATIOS["sigma_sa"],
        sigma_drive=BASE_SIGMA_RATIOS["sigma_drive"],
        seed=seed,
    )
    age = model.drt_logic_ns

    def rate(scale: float) -> float:
        report = run_gate_trials(
            "NOT", (1,), n_trials, age, base.scaled(scale), model, timing_cfg
        )
        return report.combinations["1"].success_rate

    evaluations: list[tuple[float, float]] = []

    def probe(scale: float) -> float:
        r = rate(scale)
        evaluations.append((scale, r))
        if on_step is not None:
            on_step(scale, r)
        return r

    # zero variation always succeeds; targets within tolerance of 1 are
    # served by the degenerate config
    if 1.0 - target_worst_case <= tolerance:
        return base.scaled(0.0)

    lo, hi = 0.0, 1.0
    r_hi = probe(hi)
    while r_hi > target_worst_case + tolerance and hi < 2**10:
        lo, hi = hi, hi * 2
        r_hi = probe(hi)
    if abs(r_hi - target_worst_case) <= tolerance:
        return base.scaled(hi)
    if r_hi > target_worst_case:
        raise CalibrationError(
            f"worst-case rate stays above {target_worst_case} up to scale {hi}",
            {"evaluations": evaluations, "n_trials": n_trials},
        )

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        r_mid = probe(mid)
        if abs(r_mid - target_worst_case) <= tolerance:
            return base.scaled(mid)
        if r_mid > target_worst_case:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break

    raise CalibrationError(
        f"no scale within {tolerance} of {target_worst_case} after {max_iter} steps",
        {"evaluations": evaluations, "n_trials": n_trials, "bracket": (lo, hi)},
    )
