"""Behavioral charge model for a 3T NMOS gain-cell storage node.

Three physical behaviors are captured, each as a pure function so the
array simulator and the Monte Carlo engine can share them:

* exponential decay of the storage-node (SN) voltage toward 0 V, which sets
  the data retention time,
* the sense-amplifier threshold decision that turns an SN voltage into a bit,
* the conditional-discharge transfer function of the two-phase logic pulse:
  input cells whose SN voltage exceeds the drive threshold open a pull-down
  path that drags a pre-charged output cell low.

All functions accept scalars or numpy arrays and broadcast elementwise, so a
whole 64-wide row evaluates in one call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CellParams",
    "CellState",
    "ConfigError",
    "ModelConfig",
    "NOMINAL_CELL",
    "RETIRED_KEYS",
    "calibrate_tau",
    "decay",
    "decay_with_scale",
    "known_keys",
    "overdrive",
    "residual_from_overdrive",
    "residual_after_discharge",
    "sense",
]


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


# Keys that version-1 config and program files may still carry from before
# their removal.  Readers drop them; every other unknown key is an error.
RETIRED_KEYS = {
    "run": frozenset({"n_subarrays", "schedule", "refresh_period_ns"}),
    "timing_energy": frozenset({"e_dual_sense_fj"}),
}


# JSON value types a field of each declared type takes; booleans are
# Python ints, so only a bool field takes them
_ACCEPTED_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def known_keys(section: str, cls, body: dict) -> dict:
    """``body`` without the retired keys of ``section``.

    Raises ConfigError for any other key that is not a field of ``cls``,
    and for a value that does not match its field's declared type.
    """
    retired = RETIRED_KEYS.get(section, frozenset())
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    bad = set(body) - set(declared) - retired
    if bad:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")
    for key, value in body.items():
        kind = declared.get(key)
        if kind is not None and (
            not isinstance(value, _ACCEPTED_TYPES[kind])
            or (isinstance(value, bool) and kind != "bool")
        ):
            raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
    return {k: v for k, v in body.items() if k not in retired}


def calibrate_tau(
    vdd: float = 0.9, v_sa_read: float = 0.45, drt_read_ns: float = 15000.0
) -> float:
    """Solve for the decay time constant that makes a stored '1' reach the
    sense threshold exactly at the read retention limit.

    The defining equation is ``vdd * exp(-drt_read_ns / tau) = v_sa_read``,
    so ``tau = drt_read_ns / ln(vdd / v_sa_read)``.
    """
    if not (0.0 < v_sa_read < vdd):
        raise ConfigError(
            f"cannot calibrate tau: need 0 < v_sa_read < vdd, "
            f"got v_sa_read={v_sa_read}, vdd={vdd}"
        )
    if drt_read_ns <= 0:
        raise ConfigError(f"drt_read_ns must be positive, got {drt_read_ns}")
    return drt_read_ns / math.log(vdd / v_sa_read)


# Default decay constant for the default 0.9 V / 0.45 V / 15 us configuration.
DEFAULT_TAU_NS = calibrate_tau()


@dataclass(frozen=True)
class ModelConfig:
    """Electrical constants of the behavioral cell model.

    Voltage levels are in volts, times in nanoseconds.  ``tau_ns`` defaults
    to the value calibrated so a full-level cell decays to ``v_sa_read``
    exactly at ``drt_read_ns``; call :meth:`calibrated` after overriding
    voltages to re-derive it.
    """

    vdd: float = 0.9
    v_sa_read: float = 0.45
    v_t_drive: float = 0.18
    v_residual_floor: float = 0.045
    drt_read_ns: int = 15000
    drt_logic_ns: int = 5000
    tau_ns: float = DEFAULT_TAU_NS

    def __post_init__(self) -> None:
        if not (0.0 < self.v_residual_floor < self.v_sa_read < self.vdd):
            raise ConfigError(
                "need 0 < v_residual_floor < v_sa_read < vdd, got "
                f"{self.v_residual_floor}, {self.v_sa_read}, {self.vdd}"
            )
        if not (0.0 <= self.v_t_drive < self.v_sa_read):
            raise ConfigError(
                f"need 0 <= v_t_drive < v_sa_read, got {self.v_t_drive}"
            )
        if self.tau_ns <= 0:
            raise ConfigError(f"tau_ns must be positive, got {self.tau_ns}")
        if not (0 < self.drt_logic_ns <= self.drt_read_ns):
            raise ConfigError(
                f"need 0 < drt_logic_ns <= drt_read_ns, got "
                f"{self.drt_logic_ns} and {self.drt_read_ns}"
            )

    def calibrated(self) -> "ModelConfig":
        """Return a copy with ``tau_ns`` re-derived from the voltage levels."""
        tau = calibrate_tau(self.vdd, self.v_sa_read, self.drt_read_ns)
        return ModelConfig(
            vdd=self.vdd,
            v_sa_read=self.v_sa_read,
            v_t_drive=self.v_t_drive,
            v_residual_floor=self.v_residual_floor,
            drt_read_ns=self.drt_read_ns,
            drt_logic_ns=self.drt_logic_ns,
            tau_ns=tau,
        )


@dataclass(frozen=True)
class CellParams:
    """Per-cell variation knobs sampled by the Monte Carlo engine.

    ``tau_scale`` multiplies the decay constant (values below 1 decay
    faster); ``drive_offset`` shifts the voltage at which the cell's read
    transistor starts pulling the shared bitline down.
    """

    tau_scale: float = 1.0
    drive_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.tau_scale <= 0:
            raise ConfigError(f"tau_scale must be positive, got {self.tau_scale}")


NOMINAL_CELL = CellParams()


@dataclass
class CellState:
    """Storage-node voltage as of ``last_update`` (ns since sim start)."""

    voltage: float = 0.0
    last_update: int = 0


def decay_with_scale(voltage, dt, tau_scale, cfg: ModelConfig):
    """Elementwise decay with an explicit (possibly per-cell) tau multiplier."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0):
        raise ValueError(f"dt must be non-negative, got {dt}")
    out = np.asarray(voltage, dtype=float) * np.exp(
        -dt / (cfg.tau_ns * np.asarray(tau_scale, dtype=float))
    )
    return float(out) if out.ndim == 0 else out


def decay(voltage, dt, params: CellParams, cfg: ModelConfig):
    """Storage-node voltage after ``dt`` nanoseconds of leakage.

    Single-pole exponential toward 0 V: a stored '0' is the stable state,
    a stored '1' leaks away with time constant ``tau_ns * tau_scale``.
    """
    return decay_with_scale(voltage, dt, params.tau_scale, cfg)


def sense(voltage, sa_threshold):
    """Sense-amplifier decision: 1 iff the voltage is at or above threshold.

    The tie at exactly the threshold reads as '1'; any consistent choice
    works and this one is pinned for determinism.
    """
    out = np.greater_equal(voltage, sa_threshold)
    return int(out) if out.ndim == 0 else out.astype(np.uint8)


def overdrive(voltage, drive_offset, cfg: ModelConfig):
    """Effective pull-down drive of one input cell, clamped at zero.

    An input only conducts once its SN voltage exceeds the drive threshold
    ``v_t_drive + drive_offset``; below that it contributes nothing.
    """
    return np.maximum(0.0, np.asarray(voltage, dtype=float) - (cfg.v_t_drive + drive_offset))


def residual_from_overdrive(total_overdrive, cfg: ModelConfig):
    """Output-SN voltage after the evaluation phase, given summed input drive.

    Zero total drive leaves the pre-charged output at ``vdd``.  Otherwise the
    output is pulled down proportionally to the drive, saturating at
    ``v_residual_floor`` (the level reached by a single full-strength input;
    the swing never quite reaches 0 V).
    """
    d = np.asarray(total_overdrive, dtype=float)
    full_drive = cfg.vdd - cfg.v_t_drive
    pull = np.minimum(1.0, d / full_drive)
    out = np.where(d > 0.0, cfg.vdd - (cfg.vdd - cfg.v_residual_floor) * pull, cfg.vdd)
    return float(out) if out.ndim == 0 else out


def residual_after_discharge(
    input_voltages, input_params, cfg: ModelConfig
):
    """Output-SN voltage after the logic pulse's evaluation phase.

    ``input_voltages`` holds one SN voltage per asserted input row and
    ``input_params`` the matching per-cell parameters.  Parallel pull-down
    paths combine additively in overdrive, so more (or stronger) '1' inputs
    can only pull the output lower.
    """
    voltages = list(input_voltages)
    params = list(input_params)
    if not voltages:
        raise ValueError("residual_after_discharge needs at least one input")
    if len(params) != len(voltages):
        raise ValueError(
            f"got {len(voltages)} voltages but {len(params)} parameter sets"
        )
    for v in voltages:
        if not (0.0 <= v <= cfg.vdd):
            raise ValueError(f"input voltage {v} outside [0, vdd={cfg.vdd}]")
    total = 0.0
    for v, p in zip(voltages, params):
        total += float(overdrive(v, p.drive_offset, cfg))
    return float(residual_from_overdrive(total, cfg))
