import math

import numpy as np
import pytest

from uncollapse import phase, stats
from uncollapse import measurement as qm
from uncollapse import trajectory as tj
from uncollapse.linalg import max_abs

TOMOGRAPHY_KETS = (
    np.array([1.0, 1.0]) / math.sqrt(2.0),
    np.array([1.0, -1.0j]) / math.sqrt(2.0),
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
)


def diag_state(p1):
    return qm.QuantumState(rho=np.diag([p1, 1.0 - p1]).astype(complex))


def test_params_validation():
    with pytest.raises(ValueError):
        phase.PhaseMeasurementParams(p_t=1.0)
    with pytest.raises(ValueError):
        phase.PhaseMeasurementParams(p_t=-0.1)


def test_null_update_examples(rng):
    identity = phase.PhaseMeasurementParams(p_t=0.0, phi=0.0)
    state = qm.random_density_matrix(2, rng)
    assert max_abs(phase.null_update(state, identity).rho - state.rho) <= 1e-14

    out = phase.null_update(diag_state(0.5), phase.PhaseMeasurementParams(p_t=0.5))
    assert np.allclose(np.diag(out.rho).real, [2.0 / 3.0, 1.0 / 3.0])

    pure = qm.random_pure_state(2, rng)
    evolved = phase.null_update(pure, phase.PhaseMeasurementParams(p_t=0.4, phi=1.2))
    assert evolved.purity() == pytest.approx(1.0, abs=1e-12)


def test_null_update_phase_on_coherence():
    params = phase.PhaseMeasurementParams(p_t=0.3, phi=0.8)
    state = qm.QuantumState.from_ket(np.array([1.0, 1.0]))
    out = phase.null_update(state, params)
    ratio_before = state.rho[0, 1] / math.sqrt(state.rho[0, 0].real * state.rho[1, 1].real)
    ratio_after = out.rho[0, 1] / math.sqrt(out.rho[0, 0].real * out.rho[1, 1].real)
    assert ratio_after == pytest.approx(ratio_before * np.exp(1j * params.phi), abs=1e-12)


def test_sample_measurement_statistics():
    params = phase.PhaseMeasurementParams(p_t=0.5)
    gen = tj.NoiseStream(3, 0).generator()
    lower = diag_state(1.0)
    assert not phase.sample_measurement(lower, params, gen).tunneled

    n = 40_000
    upper = diag_state(0.0)
    tunneled = sum(phase.sample_measurement(upper, params, gen).tunneled for _ in range(n))
    assert stats.bernoulli_estimate(tunneled, n).contains(0.5)

    even = diag_state(0.5)
    tunneled = sum(phase.sample_measurement(even, params, gen).tunneled for _ in range(n))
    assert stats.bernoulli_estimate(tunneled, n).contains(0.25)


def test_protocol_restores_exactly_any_phase(rng):
    params = phase.PhaseMeasurementParams(p_t=0.6, phi=2.3)
    state = qm.random_pure_state(2, rng)
    after = phase.null_update(state, params)
    for k in range(100):
        out = phase.uncollapse_protocol(after, params, tj.NoiseStream(7, k))
        if out.success:
            assert max_abs(out.restored.rho - state.rho) <= 1e-12
            return
    raise AssertionError("protocol never succeeded")


def test_protocol_operator_proportional_to_identity():
    params = phase.PhaseMeasurementParams(p_t=0.37, phi=0.9)
    pulse = phase.pi_pulse()
    m = phase.null_kraus(params).matrix
    net = pulse @ m @ pulse @ m
    assert max_abs(net / net[0, 0] - np.eye(2)) <= 1e-12


def test_success_probability_formula():
    params = phase.PhaseMeasurementParams(p_t=0.5)
    assert phase.success_probability(diag_state(1.0), params) == pytest.approx(0.5)
    assert phase.success_probability(diag_state(0.0), params) == pytest.approx(1.0)
    assert phase.success_probability(diag_state(0.5), params) == pytest.approx(2.0 / 3.0)


def test_success_probability_matches_general_bound():
    # same law as the charge-qubit waiting strategy at r = Gamma t / 2
    from uncollapse import charge

    for p_t in np.linspace(0.1, 0.9, 9):
        params = phase.PhaseMeasurementParams(p_t=p_t)
        r = -0.5 * math.log(1.0 - p_t)
        for ket in TOMOGRAPHY_KETS:
            state = qm.QuantumState.from_ket(ket)
            assert phase.success_probability(state, params) == pytest.approx(
                qm.success_probability_bound(phase.null_kraus(params), state), abs=1e-12
            )
            assert phase.success_probability(state, params) == pytest.approx(
                charge.uncollapse_success_probability(state, r), abs=1e-12
            )


def test_joint_success_state_independent(rng):
    params = phase.PhaseMeasurementParams(p_t=0.5)
    assert phase.joint_success(params) == pytest.approx(0.5)
    assert phase.joint_success(phase.PhaseMeasurementParams(p_t=0.0)) == pytest.approx(1.0)
    worst = 0.0
    for _ in range(10):
        state = qm.random_density_matrix(2, rng)
        null_prob = qm.outcome_probability(phase.null_kraus(params), state)
        joint = null_prob * phase.success_probability(state, params)
        worst = max(worst, abs(joint - phase.joint_success(params)))
    assert worst <= 1e-12


def test_protocol_monte_carlo():
    params = phase.PhaseMeasurementParams(p_t=0.5, phi=0.4)
    state = diag_state(0.5)
    nulls, successes = phase.protocol_ensemble(state, params, 100_000, seed=17)
    est = stats.bernoulli_estimate(successes, nulls)
    assert est.contains(2.0 / 3.0)
    joint = stats.bernoulli_estimate(successes, 100_000)
    assert joint.contains(phase.joint_success(params))


def test_consistency_with_general_reversal_operator():
    # the optimal reversal of the null outcome is exactly the operator the
    # pulse protocol realizes (up to the sandwiching pulses)
    params = phase.PhaseMeasurementParams(p_t=0.4, phi=0.0)
    unc = qm.build_uncollapse(phase.null_kraus(params))
    assert np.allclose(np.diag(unc.matrix).real, [math.sqrt(1.0 - params.p_t), 1.0])
    pulse = phase.pi_pulse()
    realized = pulse @ phase.null_kraus(params).matrix @ pulse
    scale = realized[1, 1] / unc.matrix[1, 1]
    assert max_abs(realized - scale * unc.matrix) <= 1e-12


def test_process_map_is_identity_conditioned_on_success():
    params = phase.PhaseMeasurementParams(p_t=0.55, phi=1.1)
    pulse = phase.pi_pulse()
    for ket in TOMOGRAPHY_KETS:
        state = qm.QuantumState.from_ket(ket)
        after = phase.null_update(state, params)
        flipped = pulse @ after.rho @ pulse.conj().T
        second = phase.null_update(
            qm.QuantumState(rho=0.5 * (flipped + flipped.conj().T), pure=True), params
        )
        restored = pulse @ second.rho @ pulse.conj().T
        assert max_abs(restored - state.rho) <= 1e-10
