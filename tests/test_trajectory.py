import concurrent.futures
import math
import pickle

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


@pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)])
def test_noise_stream_is_philox_keyed_by_seed_and_index(monkeypatch, seed, index):
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))

    def refuse(bits):
        raise AssertionError("drew OS entropy")

    # the key is the whole seed: no OS-entropy seed sequence is drawn and dropped
    monkeypatch.setattr(np.random.bit_generator, "randbits", refuse)
    ours = tj.NoiseStream(seed, index).generator()
    monkeypatch.undo()
    assert not isinstance(ours.bit_generator.seed_seq, np.random.SeedSequence)
    for draw in (lambda g: g.standard_normal(50), lambda g: g.random(50), lambda g: g.wald(1.0, 0.3, 50)):
        assert np.array_equal(draw(ours), draw(ref))
    # a generator still pickles, and its copy draws on where it left off
    copy = pickle.loads(pickle.dumps(ours))
    assert np.array_equal(copy.random(8), ref.random(8))


def test_simulate_qnd_bit_identical_records():
    cfg = tj.TrajectoryConfig(d_tau=0.01, tau_max=5.0)
    r1 = tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(7, 1))
    r2 = tj.simulate_qnd(2, 1.0, cfg, tj.NoiseStream(7, 1))
    assert np.array_equal(r1.r_path, r2.r_path)
    assert r1.status == r2.status and r1.crossing_time == r2.crossing_time


def test_single_walks_pinned():
    # single walks draw 4096-step chunks; these values were recorded before
    # the ensemble and single-walker kernels were merged and must not move.
    # targeted_measurement draws its stop time in closed form, not by a walk
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
    assert tj.targeted_measurement(1, 0.8, cfg, tj.NoiseStream(55, 0)) == (True, 0.5035321271539769)
    assert tj.targeted_measurement(2, 0.8, cfg, tj.NoiseStream(56, 0)) == (False, None)
    assert tj.targeted_measurement(2, 0.8, fine, tj.NoiseStream(56, 1)) == (True, 0.4748046824253864)
    assert tj.targeted_measurement(2, -1.3, fine, tj.NoiseStream(57, 4)) == (True, 0.5420366449108472)


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


def test_ensemble_identical_across_worker_counts(pool_starts):
    cfg = tj.TrajectoryConfig(d_tau=0.05, tau_max=40.0, escape_radius=6.0)
    state = diag_state(0.5)
    n = 40_000  # three blocks

    def run(workers):
        ws = tj.wait_and_stop_ensemble(state, 1.0, n, cfg, seed=3, collect_times=True, workers=workers)
        fp = tj.run_first_passage_ensemble(1.0, 1.0, n, cfg, seed=4, collect_times=True, workers=workers)
        return (
            ws.successes, ws.state1_count, ws.timed_out, ws.waiting_times.tobytes(),
            fp.crossed, fp.escaped, fp.timed_out, fp.crossing_times.tobytes(), fp.residual_crossing_bound,
            tj.targeted_ensemble(0.3, -1.1, n, cfg, seed=5, workers=workers),
            tj.sample_total_uncollapse(state, 1.0, n, seed=6, workers=workers),
        )

    serial = run(1)
    assert pool_starts == []
    assert run(2) == serial
    assert pool_starts == [2, 2, 2, 2]


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


def test_first_passage_walks_match_law_on_multi_step_chunks():
    # the walk kernel on its own: 300 walkers per call keep every chunk at
    # k >= 13 steps; walkers drifting toward 0 from 1 arrive by the
    # waiting-time law, and away-drifting ones with probability exp(-2)
    n, calls = 300, 100
    coarse = tj.TrajectoryConfig(d_tau=0.05, escape_radius=6.0)
    crossed = sum(
        tj.run_first_passage_ensemble(1.0, +1.0, n, coarse, seed=34, stream_offset=i).crossed
        for i in range(calls // 2)
    )
    assert stats.bernoulli_estimate(crossed, n * calls // 2).contains(math.exp(-2.0))
    fine = tj.TrajectoryConfig(d_tau=0.005)
    times = np.concatenate([
        tj.run_first_passage_ensemble(
            1.0, -1.0, n, fine, seed=35, stream_offset=i, collect_times=True
        ).crossing_times
        for i in range(calls)
    ])
    assert times.size == n * calls
    comp = stats.ks_distance(times, lambda t: charge.waiting_time_cdf(t, 1.0))
    assert comp.statistic <= 0.03
    summary = stats.moment_summary(times)
    assert abs(summary.mean - 1.0) <= 3.0 * summary.std / math.sqrt(times.size)


def test_coarse_step_waiting_times_pass_criterion_2():
    # stop times are drawn, not walked, so criterion 2's KS and mean checks
    # hold at the coarse rate step too
    state = diag_state(0.5)
    n = int(math.ceil(100_000 / charge.uncollapse_success_probability(state, 1.0) * 1.05))
    cfg = tj.TrajectoryConfig(d_tau=0.05, escape_radius=6.0)
    ens = tj.wait_and_stop_ensemble(state, 1.0, n, cfg, seed=36, collect_times=True)
    times = ens.waiting_times
    assert times.size >= 100_000
    assert stats.ks_distance(times, lambda t: charge.waiting_time_cdf(t, 1.0)).statistic <= 0.01
    se = np.std(times, ddof=1) / math.sqrt(times.size)
    assert abs(np.mean(times) - 1.0) <= 3.0 * se


def test_stop_time_draws_match_law_over_scales():
    n = 200_000
    for k, x0 in enumerate((1e-6, 0.01, 20.0)):
        gen = tj.NoiseStream(37, k).generator()
        hits, timed_out, times = tj._stop_times(gen, x0, -1.0, n, tj.TrajectoryConfig(tau_max=1e6))
        assert (hits, timed_out) == (n, 0)
        assert np.all(np.isfinite(times)) and np.all(times > 0.0)
        comp = stats.ks_distance(times, lambda t: charge.waiting_time_cdf(t, x0))
        assert comp.statistic <= 0.005, (x0, comp.statistic)
    # x0 squared underflows a float here; every walker still arrives
    gen = tj.NoiseStream(37, 3).generator()
    hits, timed_out, times = tj._stop_times(gen, 1e-170, -1.0, 1000, tj.TrajectoryConfig())
    assert (hits, timed_out) == (1000, 0)
    assert np.all(np.isfinite(times)) and np.all(times >= 0.0)


def test_targeted_measurement_waiting_times_match_law():
    cfg = tj.TrajectoryConfig(d_tau=0.05)
    times = [tj.targeted_measurement(1, 0.8, cfg, tj.NoiseStream(39, k))[1] for k in range(3000)]
    comp = stats.ks_distance(np.array(times), lambda t: charge.waiting_time_cdf(t, 0.8))
    assert comp.statistic <= 0.03


def test_reversal_ensembles_ignore_step_and_escape_radius():
    state = diag_state(0.3)
    runs = [
        tj.wait_and_stop_ensemble(
            state, -0.9, 5000, tj.TrajectoryConfig(d_tau=d_tau, tau_max=3.0, escape_radius=radius),
            seed=40, collect_times=True,
        )
        for d_tau in (0.001, 0.05)
        for radius in (None, 6.0)
    ]
    assert runs[0].timed_out > 0
    for ens in runs[1:]:
        assert (ens.successes, ens.state1_count, ens.timed_out) == (
            runs[0].successes, runs[0].state1_count, runs[0].timed_out
        )
        assert np.array_equal(ens.waiting_times, runs[0].waiting_times)


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
    # tau_max cuts the drawn times exactly
    p_in_time = math.exp(-2.0) * charge.waiting_time_cdf(0.5, 1.0)
    assert stats.bernoulli_estimate(ens.successes, n).contains(p_in_time)


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


class LoudGen:
    """Huge constant noise: drives the amplitudes past the rescaling threshold."""

    def standard_normal(self, k):
        return np.full(k, 60.0)

    def random(self, k=None):
        raise RuntimeError("unused")


def test_evolving_rescale_guard():
    # the tracked common factor keeps the extraction consistent
    cfg = tj.TrajectoryConfig(d_tau=1e-3)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = tj.simulate_evolving_pure(psi, 0.4, PARAMS, cfg, LoudGen())
    assert out.extraction.log_scale > 0.0
    assert np.all(np.isfinite(out.extraction.matrix))
    combo = psi[0] * out.extraction.v1 + psi[1] * out.extraction.v2
    assert np.max(np.abs(combo - out.psi)) <= 1e-10 * np.max(np.abs(out.psi))



def _reference_evolving(psi_in, duration_tau, params, config, gen, populations=None):
    """Step loop on the (psi, |1>, |2>) columns, as simulate_evolving_pure ran
    before the scalar feedback loop; returns (psi, matrix, log_scale, delta_r).
    Each step's predicted mid-step population of state 1 goes to `populations`."""
    from uncollapse.linalg import u2_exp

    psi = np.asarray(psi_in, dtype=complex).reshape(2)
    dt = config.d_tau * params.t_m
    n_steps = int(round(duration_tau / config.d_tau))
    u_half = u2_exp(config.epsilon, config.coupling, 0.5 * dt)

    sigma_xi = math.sqrt(params.s_i / (2.0 * dt))
    xi = sigma_xi * gen.standard_normal(n_steps)
    gain = params.delta_i / params.s_i * dt

    # columns: psi, image of |1>, image of |2>
    y = np.column_stack([psi, np.eye(2, dtype=complex)])
    log_scale = 0.0
    delta_r = np.empty(n_steps)
    for k in range(n_steps):
        y = u_half @ y
        a2 = abs(y[0, 0]) ** 2
        b2 = abs(y[1, 0]) ** 2
        p1 = a2 / (a2 + b2)
        if populations is not None:
            populations.append(p1)
        for _ in range(2):
            current = p1 * params.i1 + (1.0 - p1) * params.i2 + xi[k]
            dr = gain * (current - params.i0)
            w = a2 * math.exp(0.5 * dr)
            p1 = w / (w + b2 * math.exp(-0.5 * dr))
        delta_r[k] = dr
        half = 0.5 * dr
        y[0, :] *= math.exp(half)
        y[1, :] *= math.exp(-half)
        y = u_half @ y
        peak = np.max(np.abs(y))
        if peak > 1e100 or peak < 1e-100:
            y /= peak
            log_scale += math.log(peak)
    return y[:, 0], y[:, 1:], log_scale, delta_r


def test_evolving_matches_reference_loop(rng):
    cases = [
        (tj.TrajectoryConfig(d_tau=1e-3, epsilon=float(rng.uniform(-2.0, 2.0)),
                             coupling=float(rng.uniform(-2.0, 2.0))), 0.6, tj.NoiseStream(64, k), None)
        for k in range(12)
    ]
    cases.append((tj.TrajectoryConfig(d_tau=2e-3, epsilon=0.7, coupling=1.2), 3.0, tj.NoiseStream(65, 0), None))
    cases.append((tj.TrajectoryConfig(d_tau=1e-3), 0.5, tj.NoiseStream(66, 0), None))
    cases.append((tj.TrajectoryConfig(d_tau=1e-3, epsilon=0.5, coupling=0.9), 0.4, LoudGen(), None))
    cases.append((tj.TrajectoryConfig(d_tau=1e-3, epsilon=0.5, coupling=0.9), 0.001, tj.NoiseStream(67, 0), None))
    # a basis input starts with one amplitude exactly 0, with the Hamiltonian off and on
    for k, basis in enumerate((np.array([1.0, 0.0]), np.array([0.0, 1.0]))):
        cases.append((tj.TrajectoryConfig(d_tau=1e-3), 0.6, tj.NoiseStream(68, k), basis))
        cases.append((tj.TrajectoryConfig(d_tau=1e-3, epsilon=0.5, coupling=0.9), 0.6, tj.NoiseStream(69, k), basis))
    # a strong Hamiltonian swings the larger amplitude back and forth
    strong = tj.NoiseStream(70, 0)
    cases.append((tj.TrajectoryConfig(d_tau=1e-3, epsilon=3.0, coupling=100.0), 0.6, strong, None))
    for cfg, duration, noise, psi in cases:
        if psi is None:
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
        out = tj.simulate_evolving_pure(psi, duration, PARAMS, cfg, noise)
        populations = []
        ref_psi, ref_m, ref_log, ref_dr = _reference_evolving(
            psi, duration, PARAMS, cfg, tj._as_generator(noise), populations)
        assert np.max(np.abs(out.record.increments - ref_dr)) <= 1e-13
        m = out.extraction.matrix * math.exp(out.extraction.log_scale - ref_log)
        assert np.max(np.abs(m - ref_m)) <= 1e-11 * np.max(np.abs(ref_m))
        got = out.psi / np.linalg.norm(out.psi)
        assert np.max(np.abs(got - ref_psi / np.linalg.norm(ref_psi))) <= 1e-11
        if cfg.epsilon == cfg.coupling == 0.0:
            assert out.extraction.matrix[0, 1] == 0.0 and out.extraction.matrix[1, 0] == 0.0
        if isinstance(noise, LoudGen):
            assert out.extraction.log_scale > 0.0 and ref_log > 0.0
        if noise is strong:
            assert np.count_nonzero(np.diff(np.array(populations) > 0.5)) > 50


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
