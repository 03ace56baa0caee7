import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from uncollapse import charge
from uncollapse import measurement as qm

PARAMS = charge.DetectorParams(i1=1.1, i2=0.9, s_i=0.04)


def diag_state(p1):
    return qm.QuantumState(rho=np.diag([p1, 1.0 - p1]).astype(complex))


def integrate(f, a, b):
    return quad(f, a, b, epsabs=1e-11, epsrel=1e-11, limit=200)[0]


def superposition(p1):
    return qm.QuantumState.from_ket(np.array([math.sqrt(p1), math.sqrt(1.0 - p1)]))


def test_detector_derived_quantities():
    assert PARAMS.delta_i == pytest.approx(0.2)
    assert PARAMS.i0 == pytest.approx(1.0)
    assert PARAMS.t_m == pytest.approx(2.0)
    with pytest.raises(ValueError):
        charge.DetectorParams(i1=1.0, i2=1.0, s_i=0.1)
    with pytest.raises(ValueError):
        charge.DetectorParams(i1=1.0, i2=0.5, s_i=0.0)


def test_gaussian_likelihood_peak_and_symmetry():
    t = 0.7
    peak = charge.gaussian_likelihood(1, PARAMS.i1, t, PARAMS)
    assert peak == pytest.approx(math.sqrt(t / (math.pi * PARAMS.s_i)))
    mid1 = charge.gaussian_likelihood(1, PARAMS.i0, t, PARAMS)
    mid2 = charge.gaussian_likelihood(2, PARAMS.i0, t, PARAMS)
    assert mid1 == pytest.approx(mid2)


def test_gaussian_likelihood_ratio_is_exp_2r():
    t, i_bar = 0.9, 1.07
    r = charge.dimensionless_result(i_bar, t, PARAMS)
    ratio = charge.gaussian_likelihood(1, i_bar, t, PARAMS) / charge.gaussian_likelihood(
        2, i_bar, t, PARAMS
    )
    assert ratio == pytest.approx(math.exp(2.0 * r))


def test_gaussian_likelihood_normalizes():
    t = 0.6
    total = integrate(
        lambda i: charge.gaussian_likelihood(1, i, t, PARAMS), PARAMS.i1 - 3.0, PARAMS.i1 + 3.0
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_qnd_posterior_examples(rng):
    state = qm.random_density_matrix(2, rng)
    unchanged = charge.qnd_posterior(state, 0.0)
    assert np.allclose(unchanged.rho, state.rho)

    out = charge.qnd_posterior(diag_state(0.5), math.log(2.0))
    assert np.allclose(np.diag(out.rho).real, [0.8, 0.2])

    pure = qm.random_pure_state(2, rng)
    evolved = charge.qnd_posterior(pure, 1.7)
    assert evolved.purity() == pytest.approx(1.0, abs=1e-12)


def test_qnd_posterior_conserves_coherence_ratio(rng):
    state = qm.random_density_matrix(2, rng)
    r = 0.9
    out = charge.qnd_posterior(state, r)
    before = state.rho[0, 1] / math.sqrt(state.rho[0, 0].real * state.rho[1, 1].real)
    after = out.rho[0, 1] / math.sqrt(out.rho[0, 0].real * out.rho[1, 1].real)
    assert after == pytest.approx(before, abs=1e-12)


def test_qnd_posterior_fixed_points():
    pinned = diag_state(1.0)
    out = charge.qnd_posterior(pinned, -2.3)
    assert np.allclose(out.rho, pinned.rho)


def test_uncollapse_success_probability_values():
    assert charge.uncollapse_success_probability(diag_state(0.3), 0.0) == pytest.approx(1.0)
    # e^{-1}/cosh(1), cross-checked by the wait-and-stop ensemble elsewhere
    assert charge.uncollapse_success_probability(diag_state(0.5), 1.0) == pytest.approx(
        0.23840584404423515, abs=1e-12
    )
    assert charge.uncollapse_success_probability(diag_state(0.5), 60.0) == pytest.approx(0.0)
    assert charge.uncollapse_success_probability(diag_state(0.5), -60.0) == pytest.approx(0.0)


def test_uncollapse_success_probability_strong_readouts():
    def unshifted(state, r0):
        # the direct form, finite while exp(2|r0|) is
        p1, p2 = state.rho[0, 0].real, state.rho[1, 1].real
        return min(1.0, 1.0 / (p1 * math.exp(r0 + abs(r0)) + p2 * math.exp(-r0 + abs(r0))))

    states = [diag_state(0.5), diag_state(0.3), superposition(0.8), diag_state(1.0), diag_state(0.0)]
    for state in states:
        for r0 in (0.0, 1.0, -1.0, 300.0, -300.0):
            value = charge.uncollapse_success_probability(state, r0)
            assert value == pytest.approx(unshifted(state, r0), rel=1e-12, abs=0.0)
    for r0 in (400.0, -400.0, 1e6):
        assert charge.uncollapse_success_probability(diag_state(0.5), r0) == 0.0
    # only the state drifting back toward zero is populated: always undone
    assert charge.uncollapse_success_probability(diag_state(0.0), 400.0) == 1.0
    assert charge.uncollapse_success_probability(diag_state(1.0), -400.0) == 1.0


def test_crossing_probability_cases():
    assert charge.crossing_probability(2, 1.0) == pytest.approx(1.0)
    assert charge.crossing_probability(1, 1.0) == pytest.approx(math.exp(-2.0))
    assert charge.crossing_probability(1, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert charge.crossing_probability(2, 1e-12) == pytest.approx(1.0, abs=1e-9)
    # mirrored start
    assert charge.crossing_probability(1, -1.0) == pytest.approx(1.0)
    assert charge.crossing_probability(2, -1.0) == pytest.approx(math.exp(-2.0))


def test_green_function_boundary_and_initial_condition():
    for tau in (0.05, 0.3, 2.0):
        assert charge.green_function(0.0, tau, 1.0, 1) == 0.0
    # short times concentrate near the start point (peak ~ 1/sqrt(2 pi tau))
    near = charge.green_function(1.0, 1e-4, 1.0, 2)
    far = charge.green_function(2.0, 1e-4, 1.0, 2)
    assert near > 30.0 and far < 1e-10


def test_green_function_conservation():
    # survival mass plus absorbed mass accounts for everything
    r0, tau, state = 1.0, 0.8, 2
    survival = integrate(lambda r: charge.green_function(r, tau, r0, state), 0.0, r0 + 12.0)
    absorbed = integrate(lambda t: charge.fpt_density(t, r0, state), 1e-12, tau)
    assert survival + absorbed == pytest.approx(1.0, abs=1e-6)


def test_fpt_density_integrates_to_crossing_probability():
    for state in (1, 2):
        total = integrate(lambda t: charge.fpt_density(t, 1.0, state), 0.0, math.inf)
        assert total == pytest.approx(charge.crossing_probability(state, 1.0), abs=1e-6)
    assert np.all(charge.fpt_density(np.linspace(0.0, 5.0, 64), 1.0, 1) >= 0.0)


def test_conditional_fpt_density_normalizes():
    for state in (1, 2):
        ratio = integrate(
            lambda t: charge.fpt_density(t, 1.5, state) / charge.crossing_probability(state, 1.5),
            0.0, math.inf,
        )
        assert ratio == pytest.approx(1.0, abs=1e-6)
    direct = integrate(lambda t: charge.conditional_fpt_density(t, 1.5), 0.0, math.inf)
    assert direct == pytest.approx(1.0, abs=1e-6)


def test_conditional_fpt_density_rejects_zero_start():
    with pytest.raises(ValueError):
        charge.conditional_fpt_density(1.0, 0.0)


def test_reflection_symmetry():
    taus = np.linspace(0.05, 4.0, 40)
    rs = np.linspace(0.0, 4.0, 40)
    for state, mirror in ((1, 2), (2, 1)):
        assert np.allclose(
            charge.fpt_density(taus, 1.3, state), charge.fpt_density(taus, -1.3, mirror)
        )
        assert np.allclose(
            charge.green_function(rs, 0.7, 1.3, state),
            charge.green_function(-rs, 0.7, -1.3, mirror),
        )


def test_waiting_time_pdf_normalization_and_mean():
    for r0 in (0.5, 1.0, 2.0):
        total = integrate(lambda t: charge.waiting_time_pdf(t, r0), 0.0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-6)
        mean = integrate(lambda t: t * charge.waiting_time_pdf(t, r0), 0.0, math.inf)
        assert mean == pytest.approx(abs(r0), abs=1e-4)


def test_waiting_time_cdf_matches_quadrature():
    # closed form against the independent adaptive quadrature route
    for r0 in (0.5, 1.0, 3.0):
        for t in (0.2, 1.0, 2.5):
            numeric = integrate(lambda u: charge.waiting_time_pdf(u, r0), 1e-12, t)
            assert charge.waiting_time_cdf(t, r0) == pytest.approx(numeric, abs=1e-8)


def _scipy_waiting_time_cdf(t, r0):
    tau, a = np.asarray(t, dtype=float), abs(r0)
    sq = np.sqrt(tau)
    first = special.ndtr((tau - a) / sq)
    second = 0.5 * special.erfcx((tau + a) / (math.sqrt(2.0) * sq)) * np.exp(-((tau - a) ** 2) / (2.0 * tau))
    return np.clip(first + second, 0.0, 1.0)


def test_waiting_time_cdf_matches_scipy_form():
    for r0 in (0.01, 1.0, 20.0, 400.0):
        t = np.concatenate([r0 * np.linspace(0.02, 3.0, 150), np.logspace(-3, 3, 61)])
        assert np.max(np.abs(charge.waiting_time_cdf(t, r0) - _scipy_waiting_time_cdf(t, r0))) < 1e-12


def test_waiting_time_law_stays_in_range_at_huge_readouts():
    # tau**3 and (r0 - tau)**2 pass the float range from tau near 5.6e102 and
    # 1.3e154, where the law itself is still representable
    r0 = 1e300
    t = np.array([r0 / 3.0, 2.0 * r0 / 3.0, r0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdf = charge.waiting_time_pdf(t, r0)
        cdf = charge.waiting_time_cdf(t, r0)
    assert pdf[-1] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * r0), rel=1e-12)
    assert cdf[-1] == pytest.approx(0.5, rel=1e-12)
    assert np.all(pdf[:-1] == 0.0) and np.all(cdf[:-1] == 0.0)


_Z_GRID = np.concatenate([np.linspace(-5.0, 30.0, 3501), np.logspace(np.log10(30.0), 8.0, 10_000)])


def _max_rel_error(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    # scipy flushes subnormal results to zero, math.erfc keeps them
    keep = theirs >= np.finfo(float).tiny
    assert np.all(ours[~keep] < np.finfo(float).tiny)
    return float(np.max(np.abs(ours[keep] - theirs[keep]) / theirs[keep]))


def test_error_functions_match_scipy():
    assert _max_rel_error(charge._erfc(_Z_GRID), special.erfc(_Z_GRID)) < 2e-13
    positive = _Z_GRID[_Z_GRID > 0.0]
    assert _max_rel_error(charge._erfcx(positive), special.erfcx(positive)) < 2e-13
    # both sides of the switch to the asymptotic series
    seam = np.array([np.nextafter(26.0, 0.0), 26.0])
    assert _max_rel_error(charge._erfcx(seam), special.erfcx(seam)) < 2e-13
    t = 2.0 * positive**2
    total = charge.total_success_probability(t)
    assert _max_rel_error(total, special.erfc(positive)) < 2e-13


def test_closed_forms_return_float_for_scalars():
    for t in (1.5, np.float64(1.5), np.array(1.5)):
        assert type(charge.total_success_probability(t)) is float
        assert type(charge.waiting_time_cdf(t, 1.0)) is float
    assert charge._erfc(1.0).shape == () and charge._erfcx(30.0).shape == ()


def test_cli_import_loads_no_scipy_and_no_process_pool():
    package_root = str(Path(charge.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {package_root!r}); import uncollapse.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_waiting_time_moments():
    mean, std, mode = charge.waiting_time_moments(2.0)
    assert (mean, std, mode) == pytest.approx((2.0, math.sqrt(2.0), 1.0))
    mean, std, mode = charge.waiting_time_moments(0.0)
    assert (mean, std, mode) == (0.0, 0.0, 0.0)
    for r0 in (0.25, 1.0, 4.0):
        mean, _, mode = charge.waiting_time_moments(r0)
        assert mean >= mode


def test_waiting_time_scales_with_t_m():
    t_m = 2.0
    assert charge.waiting_time_moments(1.5, t_m)[0] == pytest.approx(1.5 * t_m)
    # density per unit time rescales accordingly
    assert charge.waiting_time_pdf(1.0, 1.5, t_m) == pytest.approx(
        charge.waiting_time_pdf(0.5, 1.5, 1.0) / t_m
    )


def test_total_success_probability():
    assert charge.total_success_probability(0.0) == pytest.approx(1.0)
    assert charge.total_success_probability(2.0) == pytest.approx(0.15729920705028513, abs=1e-12)
    grid = charge.total_success_probability(np.linspace(0.0, 6.0, 50))
    assert np.all(np.diff(grid) < 0.0)


def test_bound_saturation_grid():
    # the waiting strategy reaches the general bound on a population grid
    for p1 in np.linspace(0.05, 0.95, 20):
        state = superposition(p1)
        for r0 in np.linspace(-2.0, 2.0, 21):
            if r0 == 0.0:
                continue
            tau = 0.8
            i_bar = PARAMS.i0 + r0 * PARAMS.s_i / (PARAMS.delta_i * tau * PARAMS.t_m)
            # readout operator for this average current, diag(sqrt(P1), sqrt(P2))
            p1_lik = charge.gaussian_likelihood(1, i_bar, tau * PARAMS.t_m, PARAMS)
            p2_lik = charge.gaussian_likelihood(2, i_bar, tau * PARAMS.t_m, PARAMS)
            scale = max(p1_lik, p2_lik)
            op = qm.KrausOperator(np.diag([math.sqrt(p1_lik / scale), math.sqrt(p2_lik / scale)]))
            bound = qm.success_probability_bound(op, state)
            direct = charge.uncollapse_success_probability(state, r0)
            assert direct == pytest.approx(bound, abs=1e-10)


def test_averaged_success_reproduces_erf_law():
    # averaging the per-outcome success over the readout density recovers
    # the outcome-independent law, by quadrature
    tau = 1.3
    state = diag_state(0.35)

    def integrand(r0):
        weight = sum(
            state.rho[i, i].real
            * math.exp(-((r0 - v * tau) ** 2) / (2.0 * tau))
            / math.sqrt(2.0 * math.pi * tau)
            for i, v in ((0, 1.0), (1, -1.0))
        )
        return weight * charge.uncollapse_success_probability(state, r0)

    total = integrate(integrand, -tau - 14.0, tau + 14.0)
    assert total == pytest.approx(float(charge.total_success_probability(tau)), abs=1e-5)
