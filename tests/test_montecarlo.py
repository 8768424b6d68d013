"""Monte Carlo engine checks: determinism, distributions, calibration.

Statistical assertions use fixed seeds so they are reproducible; bounds
come from normal-approximation confidence intervals at the 0.01 level or
better, so spurious failures need a broken generator, not bad luck.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gcpim.charge import ConfigError, ModelConfig
from gcpim.montecarlo import (
    BASE_SIGMA_RATIOS,
    BLOCK_CELLS,
    DEFAULT_SEED,
    CalibrationError,
    FailureBreakdown,
    VariationConfig,
    calibrate_variation,
    gate_trial_masks,
    run_gate_campaign,
    run_gate_trials,
    sample_params,
)
from gcpim.subarray import SubArray, TimingEnergyConfig

CFG = ModelConfig()
VAR = VariationConfig()


def test_default_variation_is_the_frozen_calibration():
    # closed-loop fit: common scale 2.0 over the base ratios
    assert VAR.sigma_tau == pytest.approx(0.2)
    assert VAR.sigma_sa == pytest.approx(0.04)
    assert VAR.sigma_drive == pytest.approx(0.034)
    assert VAR.seed == DEFAULT_SEED
    for key, ratio in BASE_SIGMA_RATIOS.items():
        assert getattr(VAR, key) == pytest.approx(2.0 * ratio)


def test_scaled_keeps_ratios():
    half = VAR.scaled(0.5)
    assert half.sigma_tau == pytest.approx(VAR.sigma_tau * 0.5)
    assert half.sigma_sa == pytest.approx(VAR.sigma_sa * 0.5)
    assert half.sigma_drive == pytest.approx(VAR.sigma_drive * 0.5)
    assert half.seed == VAR.seed


def test_variation_validation():
    with pytest.raises(ConfigError):
        VariationConfig(sigma_tau=-0.1)
    with pytest.raises(ConfigError):
        VariationConfig(seed=-1)


def test_sample_params_deterministic_per_stream():
    a = sample_params(VAR, rng_stream=7)
    b = sample_params(VAR, rng_stream=7)
    c = sample_params(VAR, rng_stream=8)
    np.testing.assert_array_equal(a.tau_scale, b.tau_scale)
    np.testing.assert_array_equal(a.sa_threshold, b.sa_threshold)
    np.testing.assert_array_equal(a.drive_offset, b.drive_offset)
    assert not np.array_equal(a.tau_scale, c.tau_scale)


def test_sample_params_seed_changes_draws():
    a = sample_params(VAR, rng_stream=0)
    b = sample_params(VariationConfig(seed=1), rng_stream=0)
    assert not np.array_equal(a.tau_scale, b.tau_scale)


@given(
    rows=st.integers(1, 70),
    cols=st.integers(1, 70),
    keep=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    stream=st.integers(0, 2**40),
    seed=st.integers(0, 2**64 - 1),
    scale=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)
@settings(max_examples=200, deadline=None)
def test_a_kept_corner_equals_the_corner_of_the_full_draw(rows, cols, keep, stream,
                                                          seed, scale):
    n_rows, width = max(1, round(keep[0] * rows)), max(1, round(keep[1] * cols))
    var = VariationConfig(seed=seed).scaled(scale)
    full = sample_params(var, stream, rows=rows, cols=cols)
    part = sample_params(var, stream, rows=rows, cols=cols, keep=(n_rows, width))
    assert part.tau_scale.tobytes() == full.tau_scale[:n_rows, :width].tobytes()
    assert part.drive_offset.tobytes() == full.drive_offset[:n_rows, :width].tobytes()
    assert part.sa_threshold.tobytes() == full.sa_threshold[:width].tobytes()


def test_sample_params_rejects_a_corner_outside_the_grid():
    for keep in ((0, 4), (4, 0), (9, 4), (4, 9)):
        with pytest.raises(ConfigError, match="cannot keep"):
            sample_params(VAR, rows=8, cols=8, keep=keep)


def test_sample_params_distributions():
    # pooled over several streams: log tau_scale is N(0, sigma_tau^2),
    # sa_threshold is N(v_sa, sigma_sa^2), drive_offset is N(0, sigma_drive^2)
    logs, thrs, offs = [], [], []
    for s in range(8):
        sv = sample_params(VAR, rng_stream=s)
        logs.append(np.log(sv.tau_scale).ravel())
        thrs.append(sv.sa_threshold.ravel())
        offs.append(sv.drive_offset.ravel())
    logs = np.concatenate(logs)
    thrs = np.concatenate(thrs)
    offs = np.concatenate(offs)
    n = logs.size
    assert abs(logs.mean()) < 3 * VAR.sigma_tau / math.sqrt(n)
    assert logs.std() == pytest.approx(VAR.sigma_tau, rel=0.05)
    assert abs(thrs.mean() - CFG.v_sa_read) < 3 * VAR.sigma_sa / math.sqrt(thrs.size)
    assert abs(offs.mean()) < 3 * VAR.sigma_drive / math.sqrt(offs.size)
    assert np.all(sv.tau_scale > 0)  # lognormal can never go nonpositive


def test_zero_variation_always_succeeds():
    quiet = VAR.scaled(0.0)
    for gate, bits_ in (("NOT", (0,)), ("NOT", (1,)), ("NOR", (0, 1)), ("NOR", (1, 1))):
        rep = run_gate_trials(gate, bits_, 256, 5000, quiet, CFG)
        combo = rep.combinations["".join(map(str, bits_))]
        assert combo.success_rate == 1.0


def test_trials_are_prefix_stable():
    # growing the trial count re-runs the same leading batches
    s, _, _ = gate_trial_masks("NOT", (1,), 64, 5000, VAR, CFG)
    l, _, _ = gate_trial_masks("NOT", (1,), 192, 5000, VAR, CFG)
    np.testing.assert_array_equal(s, l[: s.size])


def test_age_degrades_each_trial_monotonically():
    # common random numbers: a trial that fails young cannot pass old
    sy, _, _ = gate_trial_masks("NOT", (1,), 2048, 1000, VAR, CFG)
    so, _, _ = gate_trial_masks("NOT", (1,), 2048, 5000, VAR, CFG)
    assert not np.any(so & ~sy)
    assert so.sum() <= sy.sum()


def test_rate_degrades_with_sigma():
    ages = 5000
    rates = []
    for scale in (0.5, 1.0, 2.0, 4.0):
        rep = run_gate_trials("NOT", (1,), 4096, ages, VAR.scaled(scale), CFG)
        rates.append(rep.combinations["1"].success_rate)
    # coarse grid with slack for sampling noise
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 0.01
    assert rates[0] > 0.999
    assert rates[-1] < rates[0]


def test_nor_asymmetric_combos_agree_statistically():
    # '01' and '10' differ only in which row holds the '1'; their success
    # rates must agree within a two-proportion z test at alpha=0.01
    n = 4096
    rep = run_gate_campaign("NOR", 2, n, 5000, VAR, CFG)
    p1 = rep.combinations["01"].success_rate
    p2 = rep.combinations["10"].success_rate
    pool = 0.5 * (p1 + p2)
    se = math.sqrt(pool * (1 - pool) * 2 / n)
    z = abs(p1 - p2) / se if se > 0 else 0.0
    assert z < stats.norm.ppf(0.995), (p1, p2, z)


def test_campaign_covers_every_combination():
    rep = run_gate_campaign("NOR", 2, 128, 5000, VAR, CFG)
    assert sorted(rep.combinations) == ["00", "01", "10", "11"]
    # quiet and saturated cases are far from the threshold: no failures
    assert rep.combinations["00"].success_rate == 1.0
    assert rep.combinations["11"].success_rate == 1.0
    key, worst = rep.worst_case()
    assert worst <= 1.0
    if worst < 1.0:  # any failures must come from the marginal combos
        assert key in ("01", "10")


def test_attribution_matches_inline_counters():
    # the buckets recomputed from the raw draws, apart from the engine:
    # batch b holds trials [64b, 64b + 64) and draws from stream b.  NOT
    # of a stored '1' must sense 0, so a low threshold is the adverse one
    rep = run_gate_trials("NOT", (1,), 4096, 5000, VAR, CFG)
    combo = rep.combinations["1"]
    ok, _, _ = gate_trial_masks("NOT", (1,), 4096, 5000, VAR, CFG)
    assert combo.successes == ok.sum()
    draws = [sample_params(VAR, rng_stream=b, rows=2, cols=64) for b in range(64)]
    fast = np.concatenate([sv.tau_scale[0] < 1.0 for sv in draws])
    adverse = np.concatenate([sv.sa_threshold < CFG.v_sa_read for sv in draws])
    fail = ~ok
    recomputed = {
        "decay_only": int(np.sum(fail & fast & ~adverse)),
        "threshold_only": int(np.sum(fail & ~fast & adverse)),
        "both": int(np.sum(fail & fast & adverse)),
        "other": int(np.sum(fail & ~fast & ~adverse)),
    }
    assert recomputed == combo.breakdown.to_dict()
    assert combo.successes + combo.breakdown.total == combo.trials


@pytest.mark.parametrize("gate,bits_", [("NOR", (0, 1, 0)), ("NOT", (1,))])
def test_block_grouping_matches_per_batch_reference(gate, bits_):
    # one full block of 64-trial batches plus a 37-trial tail, against one
    # (k+1) x cols array per batch driven op by op
    var = VAR.scaled(2.0)
    tim = TimingEnergyConfig()
    k = len(bits_)
    n_trials = BLOCK_CELLS // ((k + 1) * 64) * 64 + 37
    expected = int(not any(bits_))
    t_logic = max(k * tim.t_write_ns, tim.t_write_ns + 5000 - tim.t_init_ns)
    ok_ref, fast_ref, adverse_ref = [], [], []
    for b in range(-(-n_trials // 64)):
        cols = min(64, n_trials - 64 * b)
        sv = sample_params(var, rng_stream=7 + b, rows=k + 1, cols=cols)
        sa = SubArray(CFG, tim, rows=k + 1, cols=cols, tau_scale=sv.tau_scale,
                      drive_offset=sv.drive_offset, sa_threshold=sv.sa_threshold)
        for i, bit in enumerate(bits_):
            sa.write_row(i, np.full(cols, bit, dtype=np.uint8), t_now=i * tim.t_write_ns)
        sa.exec_logic(range(k), k, t_logic)
        ok_ref.append(sa.read_row(k, t_logic + tim.t_logic_ns) == expected)
        fast_ref.append(((sv.tau_scale[:k] < 1.0)
                         & np.array(bits_, dtype=bool)[:, None]).any(axis=0))
        adverse_ref.append(sv.sa_threshold < CFG.v_sa_read if expected == 0
                           else sv.sa_threshold > CFG.v_sa_read)
    ok, fast, adverse = gate_trial_masks(gate, bits_, n_trials, 5000, var, CFG,
                                         stream_base=7)
    np.testing.assert_array_equal(ok, np.concatenate(ok_ref))
    np.testing.assert_array_equal(fast, np.concatenate(fast_ref))
    np.testing.assert_array_equal(adverse, np.concatenate(adverse_ref))
    assert 0 < np.sum(~ok) < n_trials


def test_attribution_direction_forced_failure():
    # expected output of NOT('1') is 0: a failure senses a leftover '1'.
    # that needs the residual to land ABOVE the threshold, so the adverse
    # threshold shift for an expected 0 is downward.  force both factors
    # on one array and check the failure and its classification.
    thr_lo = np.full(64, CFG.v_sa_read - 3 * VAR.sigma_sa)  # 0.33
    fast = np.full((64, 64), 0.5)
    sa = SubArray(CFG, tau_scale=fast, sa_threshold=thr_lo)
    sa.write_row(0, np.ones(64, dtype=np.uint8), t_now=0)
    sa.exec_logic([0], 2, t_now=5000 - 1)  # evaluation at age 5000
    assert sa.read_row(2, t_now=5002)[0] == 1  # wrong: should be 0
    # same decay but threshold shifted the helpful way: correct result
    thr_hi = np.full(64, CFG.v_sa_read + 3 * VAR.sigma_sa)
    sa2 = SubArray(CFG, tau_scale=fast, sa_threshold=thr_hi)
    sa2.write_row(0, np.ones(64, dtype=np.uint8), t_now=0)
    sa2.exec_logic([0], 2, t_now=5000 - 1)
    assert sa2.read_row(2, t_now=5002)[0] == 0


def test_breakdown_buckets_are_disjoint():
    rep = run_gate_campaign("NOR", 2, 2048, 5000, VAR, CFG)
    for combo in rep.combinations.values():
        b = combo.breakdown
        assert b.total == b.decay_only + b.threshold_only + b.both + b.other
        assert combo.successes + b.total == combo.trials
    # at the calibrated point most failures carry both adverse factors
    worst = rep.combinations[rep.worst_case()[0]].breakdown
    if worst.total >= 20:
        assert worst.both >= worst.other


def test_gate_validation():
    with pytest.raises(ConfigError):
        run_gate_trials("XOR", (0, 1), 64, 0, VAR, CFG)
    with pytest.raises(ConfigError):
        run_gate_trials("NOT", (0, 1), 64, 0, VAR, CFG)  # NOT is unary
    with pytest.raises(ConfigError):
        run_gate_trials("NOR", (), 64, 0, VAR, CFG)
    with pytest.raises(ConfigError):
        run_gate_trials("NOR", (0, 1), 0, 0, VAR, CFG)  # no trials
    with pytest.raises(ConfigError):
        run_gate_trials("NOR", (0, 2), 64, 0, VAR, CFG)  # non-bit input


def test_report_serialization(tmp_path):
    rep = run_gate_campaign("NOT", 1, 256, 5000, VAR, CFG)
    d = rep.to_json_dict()
    assert d["gate"] == "NOT"
    assert set(d["combinations"]) == {"0", "1"}
    j = tmp_path / "report.json"
    c = tmp_path / "report.csv"
    rep.to_json(j)
    rep.to_csv(c)
    assert j.read_text().endswith("\n")
    header = c.read_text().splitlines()[0]
    assert header.startswith("combination,trials,successes,success_rate")


def test_calibration_recovers_the_frozen_scale():
    var = calibrate_variation(0.995, CFG, n_trials=10**4)
    # bisection over a common factor: the base ratios are preserved
    scale = var.sigma_tau / BASE_SIGMA_RATIOS["sigma_tau"]
    assert var.sigma_sa == pytest.approx(scale * BASE_SIGMA_RATIOS["sigma_sa"])
    assert var.sigma_drive == pytest.approx(scale * BASE_SIGMA_RATIOS["sigma_drive"])
    assert scale == pytest.approx(2.0, abs=0.5)
    # closed loop: the fitted config actually hits the target window
    rep = run_gate_trials("NOT", (1,), 10**4, CFG.drt_logic_ns, var, CFG)
    assert rep.combinations["1"].success_rate == pytest.approx(0.995, abs=0.006)


def test_calibration_near_one_shortcut():
    var = calibrate_variation(0.9975, CFG, n_trials=10**4, tolerance=0.003)
    assert var.sigma_tau == 0.0
    assert var.sigma_sa == 0.0


def test_calibration_validation():
    with pytest.raises(ConfigError):
        calibrate_variation(0.4, CFG)
    with pytest.raises(ConfigError):
        calibrate_variation(1.2, CFG)
    with pytest.raises(ConfigError):
        calibrate_variation(0.995, CFG, n_trials=100)


def test_calibration_failure_carries_diagnostics():
    with pytest.raises(CalibrationError) as exc:
        calibrate_variation(0.995, CFG, n_trials=10**4, tolerance=1e-9, max_iter=2)
    evals = exc.value.diagnostics["evaluations"]
    assert len(evals) >= 3
    assert all(0.0 <= r <= 1.0 for _, r in evals)


def test_failure_breakdown_to_dict():
    b = FailureBreakdown(decay_only=1, threshold_only=2, both=3, other=4)
    assert b.total == 10
    assert b.to_dict() == {
        "decay_only": 1, "threshold_only": 2, "both": 3, "other": 4,
    }
