"""Cell-level model checks against independently computed references.

Reference values in this file were produced with scipy root-finding and
direct evaluation of the closed-form expressions, not by calling the
code under test, and are frozen here as literals.
"""

import hashlib
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gcpim.charge import (
    DEFAULT_TAU_NS,
    ConfigError,
    ModelConfig,
    calibrate_tau,
    decay,
    decay_scalar,
    drive_threshold,
    overdrive,
    overdrive_scalar,
    residual_from_overdrive,
    residual_scalar,
    sense,
    time_constant,
)
from gcpim.subarray import SubArray

CFG = ModelConfig()

# independently root-found from vdd*exp(-drt/tau) = v_sa at the defaults
TAU_REF_NS = 21640.42561333445
# stored '1' after the full logic retention window (5 us)
V_AGED_5US = 0.7143304733856898
RESIDUAL_AGED_5US = 0.26548256285449345
MARGIN_AGED_5US = 0.18451743714550656
# stored '1' one nanosecond old (the freshest a logic operand can be)
RESIDUAL_FRESH = 0.04504938559555649
# scripts/retention_sweep.py's default 121-point CSV
SWEEP_SHA256 = "75c92a6ef9e18010a1a24409152f7b8b52e6b842fbddd0520de6afe55847a4d3"
SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "retention_sweep.py"


def test_tau_matches_root_find():
    f = lambda tau: 0.9 * math.exp(-15000.0 / tau) - 0.45
    ref = brentq(f, 1e3, 1e6, xtol=1e-9)
    assert calibrate_tau() == pytest.approx(ref, rel=1e-12)
    assert DEFAULT_TAU_NS == pytest.approx(TAU_REF_NS, rel=1e-12)
    assert CFG.tau_ns == DEFAULT_TAU_NS


def test_tau_rederives_for_other_rails():
    cfg = ModelConfig(vdd=1.0, v_sa_read=0.5, drt_read_ns=10000).calibrated()
    assert decay(1.0, 10000, cfg.tau_ns) == pytest.approx(0.5, rel=1e-12)


def test_tau_rejects_degenerate_levels():
    with pytest.raises(ConfigError):
        calibrate_tau(vdd=0.9, v_sa_read=0.9)
    with pytest.raises(ConfigError):
        calibrate_tau(drt_read_ns=0)


def test_decay_reference_points():
    assert decay(CFG.vdd, 5000, CFG.tau_ns) == pytest.approx(
        V_AGED_5US, rel=1e-12
    )
    # the calibration point: half the rail at the read retention limit
    assert decay(CFG.vdd, 15000, CFG.tau_ns) == pytest.approx(
        0.45, rel=1e-12
    )
    assert decay(0.0, 10**6, CFG.tau_ns) == 0.0


def test_decay_rejects_negative_dt():
    with pytest.raises(ValueError):
        decay(0.9, -1, CFG.tau_ns)


@given(
    v=st.floats(0.0, 0.9),
    a=st.integers(0, 20000),
    b=st.integers(0, 20000),
)
@settings(max_examples=200, deadline=None)
def test_decay_composes(v, a, b):
    # two decays in sequence equal one decay over the summed interval
    once = decay(v, a + b, CFG.tau_ns)
    twice = decay(decay(v, a, CFG.tau_ns), b, CFG.tau_ns)
    assert twice == pytest.approx(once, rel=1e-12, abs=1e-15)


@given(
    v=st.floats(0.0, 0.9),
    dt=st.integers(0, 30000),
    scale=st.floats(0.25, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_decay_scale_equals_time_dilation(v, dt, scale):
    # multiplying tau by s is the same as dividing elapsed time by s
    scaled = decay(v, dt, time_constant(scale, CFG))
    dilated = decay(v, dt / scale, CFG.tau_ns)
    assert scaled == pytest.approx(dilated, rel=1e-12, abs=1e-15)


@given(
    tau_ns=st.floats(DEFAULT_TAU_NS, 1e7),  # the accepted ones at the default windows
    scale=st.sampled_from([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    | st.floats(0.5, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_time_constant_is_below_nominal_exactly_when_the_multiplier_is(tau_ns, scale):
    # Monte Carlo scoring tags a cell "faster than nominal" from its time
    # constant; that must agree with its sampled multiplier being below 1
    cfg = ModelConfig(tau_ns=tau_ns)
    assert (time_constant(scale, cfg) < cfg.tau_ns) == (scale < 1.0)


@given(
    v=st.floats(0.0, 1.2),
    dt=st.integers(0, 40000),
    tau=st.floats(1.0, 1e7),
    threshold=st.floats(0.0, 0.44),
    drive=st.floats(-1.0, 2.0) | st.sampled_from([0.0, CFG.vdd - CFG.v_t_drive]),
)
@settings(max_examples=200, deadline=None)
def test_the_scalar_twins_agree_with_the_kernels(v, dt, tau, threshold, drive):
    # the margin replay evaluates the laws on floats; it must not drift
    # from the kernels the array senses through
    assert abs(decay_scalar(v, dt, tau) - decay(v, dt, tau)) <= 1e-12
    assert abs(overdrive_scalar(v, threshold) - overdrive(v, threshold)) <= 1e-12
    assert abs(residual_scalar(drive, CFG) - residual_from_overdrive(drive, CFG)) <= 1e-12


def test_sense_tie_reads_high():
    assert sense(0.45, 0.45) == 1
    assert sense(np.nextafter(0.45, 0.0), 0.45) == 0
    got = sense(np.array([0.0, 0.44, 0.45, 0.9]), 0.45)
    assert got.tolist() == [0, 0, 1, 1]
    assert got.dtype == np.uint8


def test_overdrive_clamps_at_zero():
    nominal = drive_threshold(0.0, CFG)
    assert overdrive(0.0, nominal) == 0.0
    assert overdrive(0.18, nominal) == 0.0
    assert overdrive(0.9, nominal) == pytest.approx(0.72, rel=1e-12)
    # a positive offset raises the conduction knee
    assert overdrive(0.2, drive_threshold(0.05, CFG)) == 0.0


def residual(voltages):
    """Output level of a NOR whose nominal input cells hold ``voltages``:
    parallel pull-down paths add in overdrive."""
    return residual_from_overdrive(
        sum(float(overdrive(v, drive_threshold(0.0, CFG))) for v in voltages), CFG)


def test_residual_quiet_inputs_keep_precharge():
    # inputs below the drive threshold leave the output at the rail
    assert residual([0.0]) == CFG.vdd
    assert residual([0.17, 0.0]) == CFG.vdd


def test_residual_single_full_input_hits_floor():
    got = residual([CFG.vdd])
    assert got == pytest.approx(CFG.v_residual_floor, rel=1e-12)


def test_residual_reference_points():
    aged = residual([V_AGED_5US])
    assert aged == pytest.approx(RESIDUAL_AGED_5US, rel=1e-12)
    assert CFG.v_sa_read - aged == pytest.approx(MARGIN_AGED_5US, rel=1e-12)
    fresh_v = decay(CFG.vdd, 1, CFG.tau_ns)
    fresh = residual([fresh_v])
    assert fresh == pytest.approx(RESIDUAL_FRESH, rel=1e-12)


@given(
    v1=st.floats(0.0, 0.9),
    v2=st.floats(0.0, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_residual_monotone_in_input_level(v1, v2):
    lo, hi = sorted((v1, v2))
    r_lo = residual([lo])
    r_hi = residual([hi])
    assert r_hi <= r_lo + 1e-15


@given(
    voltages=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=8),
    extra=st.floats(0.0, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_residual_monotone_in_fan_in(voltages, extra):
    # adding one more input can only pull the output lower (wired-NOR)
    base = residual(voltages)
    more = residual(voltages + [extra])
    assert more <= base + 1e-15
    assert CFG.v_residual_floor <= more <= CFG.vdd


def test_residual_saturates_not_overshoots():
    # many strong inputs cannot pull below the floor
    got = residual([0.9] * 8)
    assert got == pytest.approx(CFG.v_residual_floor, rel=1e-12)


def test_residual_without_drive_is_the_rail():
    # no drive, including a negative zero or a negative sum, leaves the
    # pre-charged output at vdd, with a positive sign
    for d in (0.0, -0.0, -1e-300, -0.3):
        got = residual_from_overdrive(d, CFG)
        assert got == CFG.vdd and math.copysign(1.0, got) == 1.0
    got = residual_from_overdrive(np.array([0.0, -0.0, -0.3, 0.72]), CFG)
    assert got[:3].tolist() == [CFG.vdd] * 3
    assert got[3] == pytest.approx(CFG.v_residual_floor, rel=1e-12)


def test_residual_vectorized_matches_scalar():
    d = np.array([0.0, 0.1, 0.72, 5.0])
    got = residual_from_overdrive(d, CFG)
    ref = np.array([residual_from_overdrive(float(x), CFG) for x in d])
    np.testing.assert_allclose(got, ref, rtol=1e-15)


def test_config_rejects_bad_orderings():
    with pytest.raises(ConfigError):
        ModelConfig(v_sa_read=0.95)  # above the rail
    with pytest.raises(ConfigError):
        ModelConfig(v_t_drive=0.5)  # above the sense threshold
    with pytest.raises(ConfigError):
        ModelConfig(v_residual_floor=0.5)
    with pytest.raises(ConfigError):
        ModelConfig(tau_ns=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(drt_logic_ns=20000)  # longer than the read window


def test_config_rejects_a_tau_that_cannot_retain_a_one_for_the_read_window():
    # the calibrated tau is the bound, up to a relative 1e-9
    assert ModelConfig(tau_ns=DEFAULT_TAU_NS * (1 - 1e-10)).tau_ns < DEFAULT_TAU_NS
    assert ModelConfig(vdd=1.0, v_sa_read=0.5).tau_ns == DEFAULT_TAU_NS
    for cfg in ({"tau_ns": DEFAULT_TAU_NS * (1 - 1e-8)}, {"tau_ns": 5},
                {"tau_ns": float("nan")}, {"drt_read_ns": 15001},
                {"vdd": 0.9, "v_sa_read": 0.46}):
        with pytest.raises(ConfigError, match="^tau_ns must be at least "):
            ModelConfig(**cfg)
    with pytest.raises(ConfigError, match=rf"at least {DEFAULT_TAU_NS} .*, got 5\. Pass "
                       r"tau_ns=calibrate_tau\(vdd, v_sa_read, drt_read_ns\)$"):
        ModelConfig(tau_ns=5)


def test_a_longer_window_takes_its_tau_from_calibrate_tau():
    # the default tau retains a '1' for only 15 us, so a 20 us model is
    # built with the tau its error names, not through calibrated()
    with pytest.raises(ConfigError, match="^tau_ns must be at least "):
        ModelConfig(drt_read_ns=20000)
    cfg = ModelConfig(drt_read_ns=20000, tau_ns=calibrate_tau(0.9, 0.45, 20000))
    assert cfg.tau_ns == pytest.approx(DEFAULT_TAU_NS * 4 / 3, rel=1e-12)
    assert cfg.calibrated() == cfg
    # a stored '1' reaches the sense threshold exactly at the 20 us window
    assert decay_scalar(cfg.vdd, 20000, cfg.tau_ns) == pytest.approx(cfg.v_sa_read, rel=1e-12)


def test_cell_params_reject_nonpositive_tau_scale():
    # per-cell retention scales live on the subarray's grid; a single
    # nonpositive cell makes the decay exponent meaningless
    scale = np.ones((4, 4))
    scale[2, 1] = 0.0
    with pytest.raises(ConfigError, match="strictly positive"):
        SubArray(CFG, rows=4, cols=4, tau_scale=scale)
    scale[2, 1] = -1.0
    with pytest.raises(ConfigError, match="strictly positive"):
        SubArray(CFG, rows=4, cols=4, tau_scale=scale)


def test_retention_sweep_csv_is_byte_stable(tmp_path, capsys):
    # the sweep's CSV depends only on the charge kernels; the script is
    # loaded from its source, the way the tests load bench/tracing.py
    sweep = types.ModuleType("retention_sweep")
    exec(compile(SWEEP.read_text(), str(SWEEP), "exec"), sweep.__dict__)
    out = tmp_path / "sweep.csv"
    assert sweep.main(["--out", str(out)]) == 0
    assert "121 points" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256
