"""Monte Carlo engine checks: determinism, distributions, calibration.

Statistical assertions use fixed seeds so they are reproducible; bounds
come from normal-approximation confidence intervals at the 0.01 level or
better, so spurious failures need a broken generator, not bad luck.
"""

import math
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gcpim.montecarlo as mc_mod
from gcpim.charge import ConfigError, ModelConfig
from gcpim.montecarlo import (
    BASE_SIGMA_RATIOS,
    BLOCK_CELLS,
    DEFAULT_SEED,
    CalibrationError,
    CombinationResult,
    VariationConfig,
    calibrate_variation,
    gate_trial_masks,
    run_gate_campaign,
    run_gate_trials,
    sample_params,
    stream_generators,
)
from gcpim.montecarlo import _SEED_CHUNK
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
    with pytest.raises(ConfigError, match="below 2\\^64"):
        VariationConfig(seed=2**64)
    # a float seed fails here, not with a TypeError at the first draw
    for seed in (1.5, 2.0, "7"):
        with pytest.raises(ConfigError, match="seed"):
            VariationConfig(seed=seed)
    assert VariationConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


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


# a seed or stream of 1 and 2 numpy entropy words, the most one takes:
# every entropy length from 2 to 4 words is hashed
WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
# past 64 bits, which stream_generators refuses
TOO_WIDE = (2**64, 2**96 + 5, 2**160 - 1)


def numpy_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


@given(
    seed=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**64 - 1)),
    streams=st.lists(st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**64 - 1)),
                     min_size=1, max_size=12),
    split=st.integers(0, 12),
    too_wide=st.integers(2**64, 2**160),
)
@settings(max_examples=40, deadline=None)
def test_stream_generators_start_where_numpy_seeding_does(seed, streams, split, too_wide):
    # one call over streams of every word count, placed so that the drawn
    # ones straddle the boundary between two seeding chunks
    split = min(split, len(streams))
    filler = list(range(7, 7 + _SEED_CHUNK - split))
    all_streams = filler + streams + list(WORD_EDGES)
    n = 0
    for stream, rng in zip(all_streams, stream_generators(seed, all_streams)):
        assert rng.bit_generator.state == numpy_rng(seed, stream).bit_generator.state, \
            (seed, stream)
        n += 1
    assert n == len(all_streams)
    # a stream past 64 bits raises once its chunk is seeded
    with pytest.raises(ValueError, match="below 2\\^64"):
        for _ in stream_generators(seed, [*streams, too_wide]):
            pass


@pytest.mark.parametrize("seed", WORD_EDGES)
def test_stream_generators_cover_the_64_bit_domain(seed):
    # every word edge at the start of a chunk and across a chunk boundary
    streams = [*WORD_EDGES, *range(7, 7 + _SEED_CHUNK - 6), *WORD_EDGES]
    assert streams[_SEED_CHUNK - 2:_SEED_CHUNK + 2] == list(WORD_EDGES)
    for stream, rng in zip(streams, stream_generators(seed, streams), strict=True):
        assert rng.bit_generator.state == numpy_rng(seed, stream).bit_generator.state, \
            (seed, stream)
    # 2^64 raises in the first chunk, before any yield, and in a later one,
    # after the chunks before it are yielded
    for streams in ([2**64], [*range(_SEED_CHUNK), 2**64 - 1, 2**64]):
        n = 0
        with pytest.raises(ValueError, match="non-negative integer below 2\\^64"):
            for _ in stream_generators(seed, streams):
                n += 1
        assert n == len(streams) // _SEED_CHUNK * _SEED_CHUNK


def test_stream_generators_draw_what_numpy_draws():
    seeds = (0, 2**32, DEFAULT_SEED, 2**64 - 1)
    streams = (*WORD_EDGES, 3, 2**63 + 5)
    for seed in seeds:
        for stream, rng in zip(streams, stream_generators(seed, streams)):
            ref = numpy_rng(seed, stream)
            for draw in (lambda g: g.lognormal(0.0, 0.2, 5), lambda g: g.normal(0.45, 0.04, 3),
                         lambda g: g.standard_normal(7)):
                assert draw(rng).tobytes() == draw(ref).tobytes(), (seed, stream)
        for stream in TOO_WIDE:
            with pytest.raises(ValueError, match="below 2\\^64"):
                next(stream_generators(seed, [stream]))
            with pytest.raises(ValueError, match="below 2\\^64"):
                next(stream_generators(stream, [seed]))


def test_stream_generators_reject_negative_entropy():
    with pytest.raises(ValueError, match="non-negative"):
        next(stream_generators(-1, [0]))
    with pytest.raises(ValueError, match="non-negative"):
        next(stream_generators(0, [1, -2]))


@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    first=st.one_of(st.integers(0, 2**40), st.sampled_from([2**32 - 2, 2**64 - 3])),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=50, deadline=None)
def test_sample_params_from_a_run_s_generators_equals_the_standalone_draw(
        rows, cols, first, seed):
    var = VariationConfig(seed=seed)
    streams = range(first, first + 3)
    for stream, rng in zip(streams, stream_generators(seed, streams)):
        fed = sample_params(var, rng, rows=rows, cols=cols)
        alone = sample_params(var, stream, rows=rows, cols=cols)
        for field in ("tau_scale", "drive_offset", "sa_threshold"):
            assert getattr(fed, field).tobytes() == getattr(alone, field).tobytes()
    # the standalone draw is numpy's, seeded with SeedSequence((seed, stream))
    ref = numpy_rng(seed, first)
    alone = sample_params(var, first, rows=rows, cols=cols)
    assert alone.tau_scale.tobytes() == ref.lognormal(0.0, var.sigma_tau,
                                                      (rows, cols)).tobytes()
    assert alone.drive_offset.tobytes() == ref.normal(0.0, var.sigma_drive,
                                                      (rows, cols)).tobytes()
    assert alone.sa_threshold.tobytes() == ref.normal(CFG.v_sa_read, var.sigma_sa,
                                                      cols).tobytes()
    # stream 2^64 lies past the seeding's 64-bit domain: no draw
    with pytest.raises(ValueError, match="below 2\\^64"):
        sample_params(var, 2**64, rows=rows, cols=cols)


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
    assert recomputed == combo.to_dict()["failures"]
    assert combo.successes + sum(recomputed.values()) == combo.trials


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


@pytest.mark.parametrize("gate,bits_", [("NOT", (1,)), ("NOR", (0, 1)), ("NOR", (1, 1, 1))])
def test_block_grouping_changes_no_result(monkeypatch, gate, bits_):
    # 337 trials are 6 batches, the last one partial: one batch per block,
    # blocks of 4 and 2, and the default budget, which holds all 6
    rows = len(bits_) + 1
    assert BLOCK_CELLS // (rows * 64) >= 6
    results = []
    for budget in (1, 4 * rows * 64, BLOCK_CELLS):
        monkeypatch.setattr(mc_mod, "BLOCK_CELLS", budget)
        results.append(gate_trial_masks(gate, bits_, 337, 5000, VAR.scaled(3.0), CFG))
    for masks in results[1:]:
        for got, want in zip(masks, results[0]):
            np.testing.assert_array_equal(got, want)
    assert all(mask.shape == (337,) for mask in results[0])


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
    for c in rep.combinations.values():
        assert c.successes + c.decay_only + c.threshold_only + c.both + c.other == c.trials
    # at the calibrated point most failures carry both adverse factors
    worst = rep.combinations[rep.worst_case()[0]]
    if worst.trials - worst.successes >= 20:
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


@pytest.mark.parametrize("target, tolerance, n_trials, scales, rate", [
    (0.99, 0.001, 10**4, [1, 2, 4, 3, 2.5, 2.25, 2.125, 2.1875, 2.15625], 0.99),
    (0.995, 0.003, 2 * 10**4, [1, 2.0], 0.99325),  # the CLI's defaults
])
def test_calibration_probes_at_the_default_seed(target, tolerance, n_trials, scales, rate):
    steps = []
    var = calibrate_variation(target, tolerance=tolerance, n_trials=n_trials,
                              on_step=lambda *step: steps.append(step))
    assert [scale for scale, _ in steps] == scales
    assert steps[-1][1] == rate
    assert var == VariationConfig(**BASE_SIGMA_RATIOS).scaled(scales[-1])


def two_loop_calibration(rate, target, tolerance, max_iter):
    """The probes and outcome of calibrate_variation's earlier control
    flow, a doubling loop and then a bisection loop: the oracle for its
    one loop."""
    probes = []

    def probe(scale):
        probes.append((scale, rate(scale)))
        return probes[-1][1]

    if 1.0 - target <= tolerance:
        return probes, ("scale", 0.0)
    lo, hi = 0.0, 1.0
    r_hi = probe(hi)
    while r_hi > target + tolerance and hi < 2**10:
        lo, hi = hi, hi * 2
        r_hi = probe(hi)
    if abs(r_hi - target) <= tolerance:
        return probes, ("scale", hi)
    if r_hi > target:
        return probes, ("stays above", None)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        r_mid = probe(mid)
        if abs(r_mid - target) <= tolerance:
            return probes, ("scale", mid)
        if r_mid > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return probes, ("no scale", (lo, hi))


@st.composite
def rate_curves(draw):
    """A target, a tolerance and a falling step curve of rates over the
    scale, whose steps sit on and next to the edges of the target band."""
    target = draw(st.one_of(st.sampled_from([0.99, 0.995, 0.9975]),
                            st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)))
    tolerance = draw(st.one_of(st.sampled_from([0.0, 1e-9, 0.001, 0.003]),
                               st.floats(0.0, 0.2)))
    edges = [target, target + tolerance, target - tolerance]
    edges += [float(np.nextafter(e, side)) for e in edges for side in (0.0, 2.0)]
    rates = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8))
    cuts = draw(st.lists(st.one_of(st.floats(0.0, 2.0**11), st.sampled_from([1.0, 2.0**10])),
                         min_size=len(rates) - 1, max_size=len(rates) - 1))
    return target, tolerance, sorted(cuts), sorted(rates, reverse=True)


@given(case=rate_curves(),
       max_iter=st.one_of(st.sampled_from([-1, 0, 1, 48]), st.integers(-1, 60)))
@settings(max_examples=300, deadline=None)
def test_calibration_loop_probes_what_the_two_loops_probed(case, max_iter):
    target, tolerance, cuts, rates = case
    base = VariationConfig(**BASE_SIGMA_RATIOS)

    def curve(sigma_tau):
        return rates[bisect_right(cuts, sigma_tau / BASE_SIGMA_RATIOS["sigma_tau"])]

    def stub(gate, bits, n_trials, age, var_cfg, model_cfg, timing_cfg):
        rate = curve(var_cfg.sigma_tau)
        return SimpleNamespace(combinations={"1": SimpleNamespace(success_rate=rate)})

    want_probes, want = two_loop_calibration(
        lambda scale: curve(base.scaled(scale).sigma_tau), target, tolerance, max_iter)
    probes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc_mod, "run_gate_trials", stub)
        try:
            got = ("scale", calibrate_variation(
                target, CFG, n_trials=10**4, tolerance=tolerance, max_iter=max_iter,
                on_step=lambda *step: probes.append(step)))
        except CalibrationError as exc:
            assert exc.diagnostics["evaluations"] == probes
            got = (("stays above", None) if "stays above" in str(exc)
                   else ("no scale", exc.diagnostics["bracket"]))
    assert probes == want_probes
    if want[0] == "scale":
        want = ("scale", base.scaled(want[1]))
    assert got == want


def test_combination_result_to_dict():
    c = CombinationResult(trials=20, successes=10, decay_only=1, threshold_only=2,
                          both=3, other=4)
    assert c.to_dict() == {
        "trials": 20, "successes": 10, "success_rate": 0.5,
        "failures": {"decay_only": 1, "threshold_only": 2, "both": 3, "other": 4},
    }
    # the failures must be the trials that did not succeed
    for successes, other in ((11, 4), (10, 5), (-1, 15), (21, -7)):
        with pytest.raises(ValueError, match="sum to the trials"):
            CombinationResult(20, successes, 1, 2, 3, other)
