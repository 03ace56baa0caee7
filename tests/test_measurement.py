import math

import numpy as np
import pytest

from uncollapse import measurement as qm
from uncollapse.linalg import max_abs

from conftest import random_invertible_kraus, random_unitary


def diag_state(p1):
    return qm.QuantumState(rho=np.diag([p1, 1.0 - p1]).astype(complex))


def test_outcome_probability_identity(rng):
    state = qm.random_density_matrix(2, rng)
    assert qm.outcome_probability(qm.KrausOperator(np.eye(2)), state) == pytest.approx(1.0)


def test_outcome_probability_projector():
    op = qm.KrausOperator(np.diag([1.0, 0.0]))
    assert qm.outcome_probability(op, diag_state(0.3)) == pytest.approx(0.3)


def test_outcome_probability_weighted_element():
    op = qm.KrausOperator(np.diag([1.0, math.sqrt(0.5)]))
    assert qm.outcome_probability(op, diag_state(0.5)) == pytest.approx(0.75)


def test_apply_measurement_identity(rng):
    state = qm.random_density_matrix(2, rng)
    out, p = qm.apply_measurement(qm.KrausOperator(np.eye(2)), state)
    assert p == pytest.approx(1.0)
    assert max_abs(out.rho - state.rho) <= 1e-14


def test_apply_measurement_population_ratio():
    # exp(-Gamma t) = 1/4 doubles the population ratio twice over
    op = qm.KrausOperator(np.diag([1.0, 0.5]))
    state = qm.QuantumState.from_ket(np.array([1.0, 1.0]))
    out, _ = qm.apply_measurement(op, state)
    assert out.rho[0, 0].real / out.rho[1, 1].real == pytest.approx(4.0)
    assert out.purity() == pytest.approx(1.0, abs=1e-12)
    assert out.pure


def test_apply_measurement_impossible_outcome():
    op = qm.KrausOperator(np.diag([0.0, 1.0]))
    state = qm.QuantumState.from_ket(np.array([1.0, 0.0]))
    with pytest.raises(qm.ImpossibleOutcomeError):
        qm.apply_measurement(op, state)


def test_polar_decompose_hermitian_psd():
    op = qm.KrausOperator(np.diag([1.0, 0.5]))
    dec = qm.polar_decompose(op)
    assert max_abs(dec.unitary - np.eye(2)) <= 1e-12
    assert max_abs(dec.sqrt_element - np.diag([1.0, 0.5])) <= 1e-12
    assert not dec.null_completed


def test_polar_decompose_recomposition(rng):
    for _ in range(10):
        op = random_invertible_kraus(rng)
        dec = qm.polar_decompose(op)
        assert max_abs(dec.unitary @ dec.sqrt_element - op.matrix) <= 1e-10


def test_polar_decompose_flags_singular():
    dec = qm.polar_decompose(qm.KrausOperator(np.diag([1.0, 0.0])))
    assert dec.null_completed


def test_build_uncollapse_unitary_case(rng):
    c = 0.6
    u = random_unitary(rng, 2)
    unc = qm.build_uncollapse(qm.KrausOperator(c * u))
    assert unc.magnitude == pytest.approx(c)
    assert max_abs(unc.matrix - np.eye(2)) <= 1e-10  # E^{-1/2} times sqrt(min eig)


def test_build_uncollapse_diagonal():
    op = qm.KrausOperator(np.diag([1.0, math.sqrt(0.5)]))
    unc = qm.build_uncollapse(op)
    assert unc.magnitude**2 == pytest.approx(0.5)
    assert np.allclose(np.diag(unc.matrix).real, [math.sqrt(0.5), 1.0])


def test_build_uncollapse_projective_rejected():
    with pytest.raises(qm.UncollapseImpossibleError):
        qm.build_uncollapse(qm.KrausOperator(np.diag([1.0, 0.0])))


def test_uncollapse_composition_is_constant(rng):
    for _ in range(10):
        op = random_invertible_kraus(rng)
        unc = qm.build_uncollapse(op)
        u_m = qm.polar_decompose(op).unitary
        net = unc.matrix @ u_m.conj().T @ op.matrix
        assert max_abs(net - unc.magnitude * np.eye(2)) <= 1e-9


def test_success_probability_bound_examples():
    op = qm.KrausOperator(np.diag([1.0, math.sqrt(0.5)]))
    assert qm.success_probability_bound(op, diag_state(1.0)) == pytest.approx(0.5)
    assert qm.success_probability_bound(op, diag_state(0.0)) == pytest.approx(1.0)


def test_success_probability_bound_saturates_at_minimizing_state(rng):
    op = random_invertible_kraus(rng)
    vecs = np.linalg.eigh(op.povm_element()).eigenvectors
    state = qm.QuantumState.from_ket(vecs[:, 0])
    assert qm.success_probability_bound(op, state) == pytest.approx(1.0, abs=1e-12)


def test_joint_success_probability_examples(rng):
    assert qm.joint_success_probability(qm.KrausOperator(random_unitary(rng, 2))) == pytest.approx(1.0)
    assert qm.joint_success_probability(qm.KrausOperator(np.diag([1.0, math.sqrt(0.5)]))) == pytest.approx(0.5)
    qutrit = qm.KrausOperator(np.diag(np.sqrt([0.9, 0.4, 0.7])))
    assert qm.joint_success_probability(qutrit) == pytest.approx(0.4)


def test_joint_equals_outcome_times_bound(rng):
    op = random_invertible_kraus(rng)
    ref = qm.joint_success_probability(op)
    for _ in range(10):
        state = qm.random_density_matrix(2, rng)
        joint = qm.outcome_probability(op, state) * qm.success_probability_bound(op, state)
        assert joint == pytest.approx(ref, abs=1e-12)


def test_irreversibility_measure():
    unitary_only = qm.PovmSet(operators=(qm.KrausOperator(np.eye(2)),))
    assert qm.irreversibility_measure(unitary_only) == pytest.approx(0.0)
    phase_pair = qm.PovmSet(
        operators=(
            qm.KrausOperator(np.diag([1.0, math.sqrt(0.5)])),
            qm.KrausOperator(np.diag([0.0, math.sqrt(0.5)])),
        )
    )
    assert qm.irreversibility_measure(phase_pair) == pytest.approx(0.5)
    projective = qm.PovmSet(
        operators=(qm.KrausOperator(np.diag([1.0, 0.0])), qm.KrausOperator(np.diag([0.0, 1.0])))
    )
    assert qm.irreversibility_measure(projective) == pytest.approx(1.0)


def test_povm_completeness_enforced():
    with pytest.raises(ValueError):
        qm.PovmSet(operators=(qm.KrausOperator(np.diag([1.0, 0.5])),))


def test_bayes_update_identity(rng):
    states = (qm.random_density_matrix(2, rng), qm.random_density_matrix(2, rng))
    prior = qm.PriorEnsemble(states=states, weights=np.array([0.4, 0.6]))
    out = qm.bayes_update(prior, qm.KrausOperator(np.eye(2)))
    assert np.allclose(out.weights, prior.weights, atol=1e-14)


def test_bayes_update_two_state_example():
    states = (diag_state(1.0), diag_state(0.0))
    prior = qm.PriorEnsemble(states=states, weights=np.array([0.5, 0.5]))
    op = qm.KrausOperator(np.diag([1.0, 0.5]))  # element diag(1, 0.25)
    out = qm.bayes_update(prior, op)
    assert np.allclose(out.weights, [0.8, 0.2], atol=1e-12)


def test_bayes_update_impossible_outcome():
    prior = qm.PriorEnsemble(states=(diag_state(0.0),), weights=np.array([1.0]))
    with pytest.raises(qm.ImpossibleOutcomeError):
        qm.bayes_update(prior, qm.KrausOperator(np.diag([1.0, 0.0])))


def test_bayes_update_concentrated_prior(rng):
    prior = qm.PriorEnsemble(states=(qm.random_density_matrix(2, rng),), weights=np.array([1.0]))
    out = qm.bayes_update(prior, random_invertible_kraus(rng))
    assert out.weights[0] == pytest.approx(1.0)


def test_pair_update_returns_prior(rng):
    for _ in range(10):
        k = int(rng.integers(2, 5))
        states = tuple(qm.random_density_matrix(2, rng) for _ in range(k))
        w = rng.random(k) + 0.1
        prior = qm.PriorEnsemble(states=states, weights=w / w.sum())
        out = qm.pair_update(prior, random_invertible_kraus(rng))
        assert np.max(np.abs(out.weights - prior.weights)) <= 1e-12


def test_averaged_bound_equals_bound_of_average(rng):
    # posterior-weighted average of per-state bounds against the bound of
    # the prior-averaged state
    op = random_invertible_kraus(rng)
    k = 4
    states = tuple(qm.random_density_matrix(2, rng) for _ in range(k))
    w = rng.random(k)
    w /= w.sum()
    prior = qm.PriorEnsemble(states=states, weights=w)
    posterior = qm.bayes_update(prior, op)
    averaged = sum(
        float(pw) * qm.success_probability_bound(op, s)
        for pw, s in zip(posterior.weights, prior.states)
    )
    rho_av = qm.QuantumState(rho=sum(float(pw) * s.rho for pw, s in zip(w, states)))
    assert averaged == pytest.approx(qm.success_probability_bound(op, rho_av), abs=1e-12)


def test_measure_and_uncollapse_restores(rng):
    worst = 0.0
    for k in range(50):
        state = qm.random_pure_state(2, rng) if k % 2 else qm.random_density_matrix(2, rng)
        op = random_invertible_kraus(rng)
        restored, p_out, p_s = qm.measure_and_uncollapse(op, state)
        worst = max(worst, max_abs(restored.rho - state.rho))
        assert p_out * p_s == pytest.approx(qm.joint_success_probability(op), abs=1e-12)
    assert worst <= 1e-9


def test_unitary_part_matches_polar_route(rng):
    # U_m = M L / |C| from the reversal operator, against the SVD of M
    for dim in range(2, 9):
        for _ in range(5):
            op = random_invertible_kraus(rng, dim)
            u_m = qm._unitary_part(op, qm.build_uncollapse(op))
            assert max_abs(u_m - qm.polar_decompose(op).unitary) <= 1e-12


def test_measure_and_uncollapse_decomposes_once(rng, linalg_calls):
    op = random_invertible_kraus(rng)
    state = qm.random_pure_state(2, rng)
    linalg_calls.update(dict.fromkeys(linalg_calls, 0))
    qm.measure_and_uncollapse(op, state)
    assert (linalg_calls["eigh"], linalg_calls["svd"]) == (1, 0)


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        qm.QuantumState(rho=np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        qm.QuantumState(rho=np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError):
        qm.QuantumState(rho=np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        qm.QuantumState(rho=np.diag([0.5, 0.5]), pure=True)


def test_kraus_operator_validation():
    with pytest.raises(ValueError):
        qm.KrausOperator(np.diag([1.2, 0.5]))
