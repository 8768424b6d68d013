"""Behavioral charge model for a 3T NMOS gain-cell storage node.

Three physical behaviors are captured by four pure kernels, which the
array simulator (``SubArray``) calls for every cell level it computes:

* ``decay``: exponential decay of the storage-node (SN) voltage toward
  0 V, which sets the data retention time,
* ``sense``: the sense-amplifier threshold decision that turns an SN
  voltage into a bit,
* ``overdrive`` and ``residual_from_overdrive``: the conditional-discharge
  transfer function of the two-phase logic pulse.  Input cells whose SN
  voltage exceeds the drive threshold open a pull-down path that drags a
  pre-charged output cell low.

The kernels take each cell's parameters in physical units: its decay
time constant (``time_constant``) and its drive threshold
(``drive_threshold``), both derived once from the model and the cell's
sampled variation.  Voltages and per-cell parameters may be scalars or
numpy arrays and broadcast elementwise, so a whole row evaluates in one
call; the ``*_scalar`` twins take one Python float, for a replay.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ModelConfig",
    "RETIRED_KEYS",
    "calibrate_tau",
    "decay",
    "decay_scalar",
    "drive_threshold",
    "known_keys",
    "overdrive",
    "overdrive_scalar",
    "residual_from_overdrive",
    "residual_scalar",
    "sense",
    "time_constant",
]


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


# Keys that version-1 config and program files may still carry from before
# their removal.  Readers drop them; every other unknown key is an error.
RETIRED_KEYS = {
    "run": frozenset({"n_subarrays", "schedule", "refresh_period_ns"}),
    "timing_energy": frozenset({"e_dual_sense_fj"}),
    "compiler": frozenset({"rows_available"}),
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
    exactly at ``drt_read_ns``.  A smaller ``tau_ns`` is rejected: a stored
    '1' would misread before ``drt_read_ns``.  So a model with other levels
    or window passes ``tau_ns=calibrate_tau(vdd, v_sa_read, drt_read_ns)``;
    :meth:`calibrated` re-derives it only on a model that already loads.
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
        if not (0 < self.drt_logic_ns <= self.drt_read_ns):
            raise ConfigError(
                f"need 0 < drt_logic_ns <= drt_read_ns, got "
                f"{self.drt_logic_ns} and {self.drt_read_ns}"
            )
        tau_min = calibrate_tau(self.vdd, self.v_sa_read, self.drt_read_ns)
        if not self.tau_ns >= tau_min * (1 - 1e-9):  # the calibrated tau sits on the bound
            raise ConfigError(f"tau_ns must be at least {tau_min} for a stored '1' to stay "
                              f"above v_sa_read for drt_read_ns, got {self.tau_ns}. Pass "
                              "tau_ns=calibrate_tau(vdd, v_sa_read, drt_read_ns)")

    def calibrated(self) -> "ModelConfig":
        """Return a copy with ``tau_ns`` re-derived from the voltage levels."""
        return dataclasses.replace(
            self, tau_ns=calibrate_tau(self.vdd, self.v_sa_read, self.drt_read_ns))


def time_constant(tau_scale, cfg: ModelConfig):
    """Decay time constant (ns) of cells whose rate multiplier is
    ``tau_scale``."""
    return cfg.tau_ns * tau_scale


def drive_threshold(drive_offset, cfg: ModelConfig):
    """SN voltage above which an input cell with discharge-path offset
    ``drive_offset`` conducts."""
    return cfg.v_t_drive + drive_offset


def decay(voltage, dt, tau):
    """Storage-node voltage after ``dt`` nanoseconds of leakage.

    Single-pole exponential toward 0 V: a stored '0' is the stable state,
    a stored '1' leaks away with time constant ``tau`` (see
    ``time_constant``).  ``dt`` is one elapsed time; ``voltage`` and
    ``tau`` may be per-cell arrays.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    return voltage * np.exp(-dt / tau)


def sense(voltage, sa_threshold):
    """Sense-amplifier decision: 1 iff the voltage is at or above threshold.

    The tie at exactly the threshold reads as '1'; any consistent choice
    works and this one is pinned for determinism.
    """
    out = np.greater_equal(voltage, sa_threshold)
    return int(out) if out.ndim == 0 else out.astype(np.uint8)


def overdrive(voltage, threshold):
    """Effective pull-down drive of one input cell, clamped at zero.

    An input only conducts once its SN voltage exceeds its drive
    ``threshold`` (see ``drive_threshold``); below that it contributes
    nothing.
    """
    return np.maximum(0.0, voltage - threshold)


def residual_from_overdrive(total_overdrive, cfg: ModelConfig):
    """Output-SN voltage after the evaluation phase, given summed input drive.

    Zero (or negative) total drive leaves the pre-charged output at
    ``vdd``.  Otherwise the output is pulled down proportionally to the
    drive, saturating at ``v_residual_floor`` (the level reached by a
    single full-strength input; the swing never quite reaches 0 V).
    """
    d = np.asarray(total_overdrive, dtype=float)
    pull = np.minimum(1.0, np.maximum(d, 0.0) / (cfg.vdd - cfg.v_t_drive))
    out = cfg.vdd - (cfg.vdd - cfg.v_residual_floor) * pull
    return float(out) if out.ndim == 0 else out


def decay_scalar(voltage: float, dt: float, tau: float) -> float:
    """``decay`` of one level, on floats; ``dt`` is not checked."""
    return voltage * math.exp(-dt / tau)


def overdrive_scalar(voltage: float, threshold: float) -> float:
    """``overdrive`` of one level, on floats."""
    return voltage - threshold if voltage > threshold else 0.0


def residual_scalar(total_overdrive: float, cfg: ModelConfig) -> float:
    """``residual_from_overdrive`` of one summed drive, on floats."""
    if total_overdrive <= 0.0:
        return cfg.vdd
    pull = total_overdrive / (cfg.vdd - cfg.v_t_drive)
    return cfg.vdd - (cfg.vdd - cfg.v_residual_floor) * (pull if pull < 1.0 else 1.0)
