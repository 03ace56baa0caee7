import math

import numpy as np
import pytest

from uncollapse import charge, stats
from uncollapse import measurement as qm
from uncollapse import trajectory as tj

PARAMS = charge.DetectorParams(i1=1.1, i2=0.9, s_i=0.04)


def diag_state(p1):
    return qm.QuantumState(rho=np.diag([p1, 1.0 - p1]).astype(complex))


def test_noise_stream_reproducible():
    a = tj.NoiseStream(123, 4).generator().standard_normal(64)
    b = tj.NoiseStream(123, 4).generator().standard_normal(64)
    c = tj.NoiseStream(123, 5).generator().standard_normal(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_qnd_bit_identical_records():
    cfg = tj.TrajectoryConfig(d_tau=0.01, tau_max=5.0)
    r1 = tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(7, 1))
    r2 = tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(7, 1))
    assert np.array_equal(r1.r_path, r2.r_path)
    assert r1.status == r2.status and r1.crossing_time == r2.crossing_time


def test_single_walks_pinned():
    # single walks draw 4096-step chunks; these values were recorded before
    # the ensemble and single-walker kernels were merged and must not move
    cfg = tj.TrajectoryConfig(d_tau=0.02, escape_radius=6.0)
    rec = tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(7, 1))
    assert (rec.status, rec.crossing_time, rec.r_path.size) == ("crossed", 0.4922308434357619, 26)
    assert rec.r_path[-1] == -0.04833498355141286 and rec.increments[0] == -0.1039293796632599
    rec = tj.simulate_qnd(1, -0.6, cfg, tj.NoiseStream(8, 0))
    assert (rec.status, rec.crossing_time, rec.r_path.size) == ("crossed", 0.8489214915719243, 44)
    assert rec.r_path[-1] == 0.07865573588007535
    rec = tj.simulate_qnd(1, 0.4, cfg, tj.NoiseStream(9, 3))
    assert (rec.status, rec.crossing_time, rec.escaped, rec.r_path.size) == ("timed-out", None, True, 268)
    assert rec.r_path[-1] == 6.236774397505664
    # two chunks: 5000 steps, no crossing
    rec = tj.simulate_qnd(1, 2.0, tj.TrajectoryConfig(d_tau=1e-3, tau_max=5.0), tj.NoiseStream(10, 0))
    assert (rec.status, rec.escaped, rec.r_path.size) == ("timed-out", False, 5001)
    assert rec.r_path[4500] == 6.2165907457086895 and rec.r_path[-1] == 7.854711171900893
    fine = tj.TrajectoryConfig(d_tau=1e-3)
    assert tj.targeted_measurement(1, 0.8, cfg, tj.NoiseStream(55, 0)) == (True, 1.6573296700668407)
    assert tj.targeted_measurement(2, 0.8, cfg, tj.NoiseStream(56, 0)) == (False, None)
    assert tj.targeted_measurement(2, 0.8, fine, tj.NoiseStream(56, 1)) == (True, 1.1605827638254982)
    assert tj.targeted_measurement(2, -1.3, fine, tj.NoiseStream(57, 4)) == (True, 5.099652777622783)


def test_simulate_qnd_record_invariants():
    cfg = tj.TrajectoryConfig(d_tau=0.01, tau_max=3.0)
    rec = tj.simulate_qnd(1, -0.8, cfg, tj.NoiseStream(11, 0))
    assert rec.r_path[0] == -0.8
    assert rec.r_path[-1] - rec.r_path[0] == pytest.approx(np.sum(rec.increments), abs=1e-12)
    assert rec.status in ("crossed", "timed-out")


def test_simulate_qnd_drift_and_variance():
    # far from the boundary nothing is absorbed; endpoint moments follow
    # the drifted diffusion (drift +-1, variance tau)
    cfg = tj.TrajectoryConfig(d_tau=0.01, tau_max=1.0, escape_radius=None)
    n = 3000
    finals = np.empty(n)
    for k in range(n):
        rec = tj.simulate_qnd(1, 50.0, cfg, tj.NoiseStream(2024, k))
        finals[k] = rec.r_path[-1] - 50.0
    tau = 1.0
    assert abs(finals.mean() - tau) <= 3.0 * math.sqrt(tau / n)
    assert abs(finals.var(ddof=1) - tau) <= 3.0 * tau * math.sqrt(2.0 / (n - 1))


def test_simulate_qnd_state2_always_crosses():
    cfg = tj.TrajectoryConfig(d_tau=0.02, tau_max=50.0)
    crossed = sum(
        tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(31, k)).status == "crossed" for k in range(300)
    )
    assert crossed == 300


def test_engine_crossing_matches_analytic_law():
    # bridge-corrected coarse steps carry no crossing-probability bias
    cfg = tj.TrajectoryConfig(d_tau=0.05, tau_max=60.0, escape_radius=6.0)
    n = 30_000
    ens = tj.run_first_passage_ensemble(1.0, +1.0, n, cfg, seed=404)
    est = stats.bernoulli_estimate(ens.crossed, n)
    assert est.contains(charge.crossing_probability(1, 1.0))
    assert ens.residual_crossing_bound / n < 1e-4
    ens2 = tj.run_first_passage_ensemble(1.0, -1.0, n, cfg, seed=405)
    assert stats.bernoulli_estimate(ens2.crossed, n).contains(1.0)


def test_ensemble_identical_across_worker_counts():
    cfg = tj.TrajectoryConfig(d_tau=0.05, tau_max=40.0, escape_radius=6.0)
    state = diag_state(0.5)
    a = tj.wait_and_stop_ensemble(state, 1.0, 40_000, cfg, seed=3, collect_times=True, workers=1)
    b = tj.wait_and_stop_ensemble(state, 1.0, 40_000, cfg, seed=3, collect_times=True, workers=2)
    assert a.successes == b.successes
    assert np.array_equal(a.waiting_times, b.waiting_times)


def test_wait_and_stop_zero_readout_is_immediate():
    state = diag_state(0.4)
    out = tj.wait_and_stop(state, 0.0, tj.TrajectoryConfig(), tj.NoiseStream(1, 0))
    assert out.success and out.waiting_time == 0.0
    assert out.restored is state


def test_wait_and_stop_restores_exactly_on_success(rng):
    state = qm.random_pure_state(2, rng)
    cfg = tj.TrajectoryConfig(d_tau=0.02, tau_max=60.0, escape_radius=6.0)
    for k in range(50):
        out = tj.wait_and_stop(state, 0.7, cfg, tj.NoiseStream(77, k))
        if out.success:
            assert out.restored is state
            assert out.waiting_time > 0.0
            return
    raise AssertionError("no successful reversal in 50 attempts")


def test_wait_and_stop_ensemble_success_rate():
    state = diag_state(0.5)
    cfg = tj.TrajectoryConfig(d_tau=0.05, tau_max=60.0, escape_radius=6.0)
    ens = tj.wait_and_stop_ensemble(state, 1.0, 20_000, cfg, seed=6)
    est = stats.bernoulli_estimate(ens.successes, ens.n)
    assert est.contains(charge.uncollapse_success_probability(state, 1.0))


def test_waiting_time_sample_matches_law():
    state = diag_state(0.5)
    cfg = tj.TrajectoryConfig(d_tau=0.005, tau_max=60.0, escape_radius=6.0)
    ens = tj.wait_and_stop_ensemble(state, 1.0, 30_000, cfg, seed=8, collect_times=True)
    comp = stats.ks_distance(ens.waiting_times, lambda t: charge.waiting_time_cdf(t, 1.0))
    assert comp.statistic <= 0.03
    summary = stats.moment_summary(ens.waiting_times)
    assert abs(summary.mean - 1.0) <= 3.0 * summary.std / math.sqrt(ens.waiting_times.size)


def test_small_ensembles_walk_multi_step_chunks():
    # 300 walkers per call keep every chunk at k >= 4096 // 300 = 13 steps,
    # so these laws are checked on the chunked path, not the one-step bulk
    state = diag_state(0.5)
    n, calls = 300, 40
    coarse = tj.TrajectoryConfig(d_tau=0.05)
    successes = sum(
        tj.wait_and_stop_ensemble(state, 1.0, n, coarse, seed=31, stream_offset=i).successes
        for i in range(calls)
    )
    assert stats.bernoulli_estimate(successes, n * calls).contains(
        charge.uncollapse_success_probability(state, 1.0)
    )
    fine = tj.TrajectoryConfig(d_tau=0.005)
    times = np.concatenate([
        tj.wait_and_stop_ensemble(
            state, 1.0, n, fine, seed=32, stream_offset=i, collect_times=True
        ).waiting_times
        for i in range(calls)
    ])
    comp = stats.ks_distance(times, lambda t: charge.waiting_time_cdf(t, 1.0))
    assert comp.statistic <= 0.03
    cut = tj.TrajectoryConfig(d_tau=0.02, tau_max=1.0, escape_radius=2.0)
    ens = tj.run_first_passage_ensemble(1.0, +1.0, n, cut, seed=33, collect_times=True)
    assert min(ens.crossed, ens.escaped, ens.timed_out) > 0
    assert ens.crossed + ens.escaped + ens.timed_out == n
    assert ens.crossing_times.size == ens.crossed and np.all(ens.crossing_times <= 1.0)


def test_conditioned_crossers_success_rate():
    # with p1 = 1 and r0 = 1 every walker drifts away; only the fate draw
    # decides success, so the count follows exp(-2) exactly
    cfg = tj.TrajectoryConfig(d_tau=0.05)
    n = 30_000
    ens = tj.wait_and_stop_ensemble(diag_state(1.0), 1.0, n, cfg, seed=12)
    assert ens.state1_count == n
    assert stats.bernoulli_estimate(ens.successes, n).contains(math.exp(-2.0))
    assert ens.timed_out == 0 and ens.residual_success_bound == 0.0


def test_conditioned_crossers_waiting_times_match_law():
    # the crossers walk with the reversed drift (Doob h-transform), so
    # their waiting times follow the same law as the drift-toward group
    cfg = tj.TrajectoryConfig(d_tau=0.005)
    ens = tj.wait_and_stop_ensemble(diag_state(1.0), 1.0, 80_000, cfg, seed=13, collect_times=True)
    assert ens.waiting_times.size == ens.successes
    comp = stats.ks_distance(ens.waiting_times, lambda t: charge.waiting_time_cdf(t, 1.0))
    assert comp.statistic <= 0.03


def test_timed_out_crossers_are_the_residual_bound():
    # a tau_max shorter than the typical wait cuts many conditioned crossers;
    # each forfeits at most probability 1 and nothing else is forfeited
    cfg = tj.TrajectoryConfig(d_tau=0.05, tau_max=0.5)
    n = 30_000
    ens = tj.wait_and_stop_ensemble(diag_state(1.0), 1.0, n, cfg, seed=14, collect_times=True)
    assert ens.timed_out > 0
    assert ens.residual_success_bound == ens.timed_out
    assert ens.waiting_times.size == ens.successes
    assert np.all(ens.waiting_times <= 0.5)
    crossers = ens.successes + ens.timed_out
    assert stats.bernoulli_estimate(crossers, n).contains(math.exp(-2.0))


def test_targeted_ensemble_against_drift_matches_law():
    cfg = tj.TrajectoryConfig(d_tau=0.05)
    n = 30_000
    for target in (0.8, -0.8):
        # bit 2 drifts toward negative r, bit 1 toward positive r
        p_state1 = 0.0 if target > 0.0 else 1.0
        hits = tj.targeted_ensemble(p_state1, target, n, cfg, seed=15)
        assert stats.bernoulli_estimate(hits, n).contains(math.exp(-2.0 * abs(target)))


def test_targeted_measurement_hits_when_drift_points_at_target():
    cfg = tj.TrajectoryConfig(d_tau=0.02, tau_max=60.0, escape_radius=6.0)
    for k in range(100):
        hit, tau = tj.targeted_measurement(1, 0.8, cfg, tj.NoiseStream(55, k))
        assert hit and tau > 0.0
    against = sum(
        tj.targeted_measurement(2, 0.8, cfg, tj.NoiseStream(56, k))[0] for k in range(3000)
    )
    est = stats.bernoulli_estimate(against, 3000)
    assert est.contains(math.exp(-1.6))


def test_detector_current_statistics():
    dt = 0.01
    gen = tj.NoiseStream(5, 0).generator()
    state = diag_state(1.0)
    samples = np.array([tj.detector_current(state, PARAMS, dt, gen) for _ in range(4000)])
    sigma = math.sqrt(PARAMS.s_i / (2.0 * dt))
    assert abs(samples.mean() - PARAMS.i1) <= 3.0 * sigma / math.sqrt(samples.size)
    assert abs(samples.var(ddof=1) - sigma**2) <= 3.0 * sigma**2 * math.sqrt(2.0 / samples.size)


def test_evolving_qnd_limit_matches_closed_form():
    cfg = tj.TrajectoryConfig(d_tau=1e-3)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = tj.simulate_evolving_pure(psi, 0.5, PARAMS, cfg, tj.NoiseStream(5, 0))
    m = out.extraction.matrix
    assert abs(m[0, 1]) + abs(m[1, 0]) == 0.0
    r = out.record.r_path[-1]
    assert (m[0, 0] / m[1, 1]).real == pytest.approx(math.exp(r), rel=1e-10)


def test_evolving_linearity(rng):
    cfg = tj.TrajectoryConfig(d_tau=1e-3, epsilon=1.3, coupling=0.8)
    for k in range(10):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        out = tj.simulate_evolving_pure(psi, 0.4, PARAMS, cfg, tj.NoiseStream(60, k))
        combo = psi[0] * out.extraction.v1 + psi[1] * out.extraction.v2
        scale = np.max(np.abs(out.psi))
        assert np.max(np.abs(combo - out.psi)) <= 1e-10 * scale


def test_evolving_purity_preserved(rng):
    cfg = tj.TrajectoryConfig(d_tau=1e-3, epsilon=0.9, coupling=1.1)
    psi = np.array([0.6, 0.8], dtype=complex)
    out = tj.simulate_evolving_pure(psi, 1.0, PARAMS, cfg, tj.NoiseStream(61, 0))
    v = out.psi / np.linalg.norm(out.psi)
    rho = np.outer(v, v.conj())
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_evolving_kraus_consistency(rng):
    # applying the extracted operator reproduces the simulated state
    cfg = tj.TrajectoryConfig(d_tau=2e-3, epsilon=-0.7, coupling=1.4)
    worst = 0.0
    for k in range(100):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        out = tj.simulate_evolving_pure(psi, 0.3, PARAMS, cfg, tj.NoiseStream(62, k))
        direct = out.psi / np.linalg.norm(out.psi)
        mapped = out.extraction.matrix @ psi
        mapped /= np.linalg.norm(mapped)
        worst = max(worst, np.max(np.abs(mapped - direct)))
    assert worst <= 1e-8


def test_evolving_eigenvalues_match_independent_route(rng):
    cfg = tj.TrajectoryConfig(d_tau=1e-3, epsilon=0.4, coupling=1.0)
    psi = np.array([1.0, 0.0], dtype=complex)
    out = tj.simulate_evolving_pure(psi, 0.6, PARAMS, cfg, tj.NoiseStream(63, 0))
    m = out.extraction.matrix
    eigs = np.linalg.eigvalsh(m.conj().T @ m)
    assert out.extraction.lambda_minus == pytest.approx(eigs[0], abs=1e-10 * eigs[1])
    assert out.extraction.lambda_plus == pytest.approx(eigs[1], rel=1e-10)
    assert out.extraction.lambda_minus >= 0.0


def test_evolving_second_order_for_given_record():
    # with the detector signal held fixed, halving the step shrinks the
    # final-state error by four
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def noise_fn(t):
        return 0.35 * math.sin(5.0 * t) + 0.15 * math.cos(13.0 * t)

    def final_state(d_tau):
        dt = d_tau * PARAMS.t_m
        sigma = math.sqrt(PARAMS.s_i / (2.0 * dt))

        class PathGen:
            def standard_normal(self, k):
                ts = (np.arange(k) + 0.5) * dt
                return np.array([noise_fn(t) / sigma for t in ts])

            def random(self, k=None):
                raise RuntimeError("unused")

        cfg = tj.TrajectoryConfig(d_tau=d_tau, epsilon=1.3, coupling=0.8)
        out = tj.simulate_evolving_pure(psi, 0.64, PARAMS, cfg, PathGen())
        v = out.psi / np.linalg.norm(out.psi)
        return v * np.exp(-1j * np.angle(v[0]))

    ref = final_state(6.25e-5)
    errs = [np.max(np.abs(final_state(dt) - ref)) for dt in (8e-3, 4e-3, 2e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o > 1.8 for o in orders), (errs, orders)


def test_evolving_rescale_guard():
    # huge injected noise drives the amplitudes past the rescaling
    # threshold; the tracked common factor keeps the extraction consistent
    class LoudGen:
        def standard_normal(self, k):
            return np.full(k, 60.0)

        def random(self, k=None):
            raise RuntimeError("unused")

    cfg = tj.TrajectoryConfig(d_tau=1e-3)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = tj.simulate_evolving_pure(psi, 0.4, PARAMS, cfg, LoudGen())
    assert out.extraction.log_scale > 0.0
    assert np.all(np.isfinite(out.extraction.matrix))
    combo = psi[0] * out.extraction.v1 + psi[1] * out.extraction.v2
    assert np.max(np.abs(combo - out.psi)) <= 1e-10 * np.max(np.abs(out.psi))


def test_total_uncollapse_sampler_matches_erf_law():
    n = 30_000
    for tau in (0.5, 2.0):
        hits = tj.sample_total_uncollapse(diag_state(0.3), tau, n, seed=91)
        est = stats.bernoulli_estimate(hits, n)
        assert est.contains(float(charge.total_success_probability(tau)))


def test_total_uncollapse_rejects_empty_ensembles():
    for n in (0, -1):
        with pytest.raises(ValueError):
            tj.sample_total_uncollapse(diag_state(0.5), 1.0, n, seed=1)


def test_pool_size_bounded_by_blocks_and_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        # runs the blocks in this process; records the requested pool size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(tj, "ProcessPoolExecutor", RecordingPool)
    state = diag_state(0.5)
    n = 3 * tj.BLOCK_SIZE
    serial = tj.sample_total_uncollapse(state, 1.0, n, seed=21)
    monkeypatch.setattr(tj.os, "cpu_count", lambda: 8)
    assert tj.sample_total_uncollapse(state, 1.0, n, seed=21, workers=10**6) == serial
    monkeypatch.setattr(tj.os, "cpu_count", lambda: 2)
    assert tj.sample_total_uncollapse(state, 1.0, n, seed=21, workers=10**6) == serial
    monkeypatch.setattr(tj.os, "cpu_count", lambda: None)
    assert tj.sample_total_uncollapse(state, 1.0, n, seed=21, workers=10**6) == serial
    assert sizes == [3, 2]


def test_config_validation():
    with pytest.raises(ValueError):
        tj.TrajectoryConfig(d_tau=0.0)
    with pytest.raises(ValueError):
        tj.TrajectoryConfig(d_tau=0.2)
    with pytest.raises(ValueError):
        tj.TrajectoryConfig(tau_max=-1.0)
    assert tj.TrajectoryConfig(d_tau=0.05).resolved_tau_max(1.5) == pytest.approx(250.0)
