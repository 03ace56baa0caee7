import itertools
import math

import numpy as np
import pytest

from uncollapse import multiqubit as mq
from uncollapse import measurement as qm
from uncollapse import phase, stats
from uncollapse import trajectory as tj
from uncollapse.linalg import basis_to_all_ones, herm_eig, max_abs

from conftest import random_invertible_kraus


def reference_reversal_operator(op):
    eig = herm_eig(op.povm_element())
    return math.sqrt(eig.values[0]) * (eig.vectors * (eig.values**-0.5)) @ eig.vectors.conj().T


def uncollapse_operator(plan):
    """Product of all rotate-measure-rotate factors: the plan's net operator B diag(s) B†."""
    return (plan.basis * plan.shrink_factors) @ plan.basis.conj().T


def test_single_qubit_plan_matches_phase_protocol_operator():
    p_t = 0.45
    op = phase.null_kraus(phase.PhaseMeasurementParams(p_t=p_t))
    plan = mq.build_plan(op, gamma=1.0)
    lt = uncollapse_operator(plan)
    assert np.allclose(np.sort(np.diag(lt).real), np.sort([math.sqrt(1.0 - p_t), 1.0]), atol=1e-12)
    nontrivial = plan.durations[plan.durations > 0.0]
    assert nontrivial.size == 1
    assert nontrivial[0] == pytest.approx(-math.log(1.0 - p_t))


def test_plan_identity_element_is_all_trivial(rng):
    op = qm.KrausOperator(0.7 * np.eye(4))
    plan = mq.build_plan(op, gamma=2.0)
    assert np.all(plan.durations == 0.0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    out = mq.execute_plan(plan, psi, tj.NoiseStream(1, 0))
    assert out.success
    assert np.max(np.abs(out.restored - psi)) <= 1e-12


def test_plan_rejects_projective():
    with pytest.raises(qm.UncollapseImpossibleError):
        mq.build_plan(qm.KrausOperator(np.diag([1.0, 1.0, 1.0, 0.0])), gamma=1.0)


def _step_rotations(plan):
    """Rotation of step i: eigenvector i onto the all-ones (last) axis."""
    basis_dagger = plan.basis.conj().T
    return [basis_to_all_ones(i, plan.dim) @ basis_dagger for i in range(plan.dim)]


def test_plan_product_identity(rng):
    for dim in (4, 8):
        op = random_invertible_kraus(rng, dim)
        plan = mq.build_plan(op, gamma=1.3)
        assert max_abs(uncollapse_operator(plan) - reference_reversal_operator(op)) <= 1e-8
        assert plan.durations.min() == 0.0
        # rotate, shrink the all-ones axis for the step's duration, rotate back
        product = np.eye(dim, dtype=complex)
        for u, t in zip(_step_rotations(plan), plan.durations):
            assert max_abs(u.conj().T @ u - np.eye(dim)) <= 1e-12
            shrink = np.ones(dim)
            shrink[-1] = math.exp(-0.5 * plan.gamma * t)
            product = (u.conj().T * shrink) @ u @ product
        assert max_abs(uncollapse_operator(plan) - product) <= 1e-12


def test_stepwise_probability_formulas_agree(rng):
    for dim in (4, 8):
        op = random_invertible_kraus(rng, dim)
        plan = mq.build_plan(op, gamma=1.0)
        state = qm.random_density_matrix(dim, rng)
        trace_form, normalized_form = mq.stepwise_probabilities(plan, state)
        assert np.max(np.abs(trace_form - normalized_form)) <= 1e-12
        assert float(np.prod(trace_form)) == pytest.approx(
            mq.success_probability(plan, state), abs=1e-12
        )


def test_stepwise_single_qubit_value():
    op = phase.null_kraus(phase.PhaseMeasurementParams(p_t=0.5))
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.QuantumState(rho=np.diag([0.5, 0.5]).astype(complex))
    trace_form, normalized_form = mq.stepwise_probabilities(plan, state)
    assert float(np.prod(trace_form)) == pytest.approx(0.75)
    assert np.allclose(trace_form, normalized_form, atol=1e-15)


def test_trivial_plan_probabilities(rng):
    plan = mq.build_plan(qm.KrausOperator(0.5 * np.eye(4)), gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    assert mq.success_probability(plan, state) == pytest.approx(1.0)
    trace_form, normalized_form = mq.stepwise_probabilities(plan, state)
    assert np.allclose(trace_form, 1.0) and np.allclose(normalized_form, 1.0)


def test_execute_plan_restores_entangled_state(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    psi_m = op.matrix @ bell
    psi_m /= np.linalg.norm(psi_m)
    gen = tj.NoiseStream(9, 0).generator()
    for _ in range(2000):
        out = mq.execute_plan(plan, psi_m, gen)
        if out.success:
            proj = np.outer(out.restored, out.restored.conj())
            assert max_abs(proj - np.outer(bell, bell.conj())) <= 1e-9
            return
    raise AssertionError("no successful run")


def test_execute_plan_density_matrix_input(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    rho_m = qm.apply_measurement(op, state)[0]
    gen = tj.NoiseStream(10, 0).generator()
    for _ in range(2000):
        out = mq.execute_plan(plan, rho_m, gen)
        if out.success:
            assert max_abs(out.restored.rho - state.rho) <= 1e-9
            return
    raise AssertionError("no successful run")


def test_execute_plan_success_rate(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    psi_m = op.matrix @ psi
    ref = mq.success_probability(plan, psi_m)
    gen = tj.NoiseStream(12, 0).generator()
    n = 20_000
    hits = sum(mq.execute_plan(plan, psi_m, gen).success for _ in range(n))
    assert stats.bernoulli_estimate(hits, n).contains(ref)


def test_success_probability_matches_general_bound(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    rho_m = qm.apply_measurement(op, state)[0]
    assert mq.success_probability(plan, rho_m) == pytest.approx(
        qm.success_probability_bound(op, state), abs=1e-12
    )


def test_joint_success_state_independent(rng):
    op = random_invertible_kraus(rng, 8)
    plan = mq.build_plan(op, gamma=1.0)
    p_min = qm.joint_success_probability(op)
    worst = 0.0
    for _ in range(10):
        rho_m, outcome = qm.apply_measurement(op, qm.random_density_matrix(8, rng))
        worst = max(worst, abs(outcome * mq.success_probability(plan, rho_m) - p_min))
    assert worst <= 1e-12


def test_step_order_invariance(rng):
    # all steps commute in the shared eigenbasis: permuting them changes
    # neither the net operator, the success probability, nor the
    # success-conditioned final state
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    base_total = uncollapse_operator(plan)
    base_success = mq.success_probability(plan, state)
    for perm in itertools.islice(itertools.permutations(range(4)), 1, 8):
        shuffled = mq.StepPlan(
            durations=plan.durations[list(perm)],
            shrink_factors=plan.shrink_factors[list(perm)],
            gamma=plan.gamma,
            basis=plan.basis[:, list(perm)],
            to_eigenbasis=plan.to_eigenbasis[list(perm)],
        )
        assert max_abs(uncollapse_operator(shuffled) - base_total) <= 1e-12
        assert mq.success_probability(shuffled, state) == pytest.approx(base_success, abs=1e-12)
        final_base = base_total @ state.rho @ base_total.conj().T
        final_perm = uncollapse_operator(shuffled) @ state.rho @ uncollapse_operator(shuffled).conj().T
        assert max_abs(
            final_base / np.trace(final_base).real - final_perm / np.trace(final_perm).real
        ) <= 1e-12


def test_plan_validation():
    with pytest.raises(ValueError):
        mq.build_plan(qm.KrausOperator(np.diag([1.0, 0.5])), gamma=0.0)
    plan = mq.build_plan(qm.KrausOperator(np.diag([1.0, 0.5])), gamma=1.0)
    for field in ("basis", "to_eigenbasis"):
        with pytest.raises(ValueError, match="basis"):
            mq.StepPlan(
                durations=plan.durations,
                shrink_factors=plan.shrink_factors,
                gamma=plan.gamma,
                **{"basis": plan.basis, "to_eigenbasis": plan.to_eigenbasis, field: np.eye(3, dtype=complex)},
            )


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
def test_plan_undoes_whole_measurement(rng, dim):
    # B diag(s) T M = sqrt(p_min) I: U_m† and the 2^N steps together undo M
    op = random_invertible_kraus(rng, dim)
    plan = mq.build_plan(op, gamma=1.0)
    undo = (plan.basis * plan.shrink_factors) @ plan.to_eigenbasis @ op.matrix
    assert max_abs(undo - math.sqrt(qm.joint_success_probability(op)) * np.eye(dim)) <= 1e-12


@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("dim", [8, 64])
def test_protocol_ensemble_matches_closed_forms(rng, dim, density):
    op = random_invertible_kraus(rng, dim)
    plan = mq.build_plan(op, gamma=1.0)
    if density:
        state = qm.random_density_matrix(dim, rng)
        after = qm.apply_measurement(op, state)[0]
    else:
        state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state /= np.linalg.norm(state)
        after = op.matrix @ state
    n = 200_000
    ens = mq.protocol_ensemble(plan, after, n, tj.NoiseStream(21, 0))
    assert ens.n == n
    assert ens.successes + int(ens.failures.sum()) == n
    assert stats.bernoulli_estimate(ens.successes, n).contains(mq.success_probability(plan, after))

    trace_form, normalized_form = mq.stepwise_probabilities(plan, after)
    assert max_abs(ens.null_probabilities - trace_form) <= 1e-12
    assert max_abs(ens.null_probabilities - normalized_form) <= 1e-12
    reached = np.concatenate([[1.0], np.cumprod(normalized_form)[:-1]])
    for count, p_fail in zip(ens.failures, reached * (1.0 - normalized_form)):
        assert stats.bernoulli_estimate(int(count), n).contains(p_fail)

    if density:
        assert max_abs(ens.restored.rho - state.rho) <= 1e-9
    else:
        assert max_abs(np.outer(ens.restored, ens.restored.conj()) - np.outer(state, state.conj())) <= 1e-9


def test_protocol_ensemble_seeded_and_validated(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    psi = op.matrix @ np.array([1.0, 0.0, 0.0, 1.0])
    first = mq.protocol_ensemble(plan, psi, 5000, tj.NoiseStream(3, 0))
    again = mq.protocol_ensemble(plan, psi, 5000, tj.NoiseStream(3, 0))
    assert first.successes == again.successes
    assert np.array_equal(first.failures, again.failures)
    assert np.array_equal(first.restored, again.restored)
    for n in (0, -5):
        with pytest.raises(ValueError):
            mq.protocol_ensemble(plan, psi, n, tj.NoiseStream(3, 0))


def _reference_execute(plan, op, state, gen):
    """The physical undo of M: U_m† from the polar form of M, then the step loop.

    Each step rotates, draws the tunneling, shrinks the all-ones axis and rotates back.
    """
    u_m = qm.polar_decompose(op).unitary
    vector_input = not isinstance(state, qm.QuantumState)
    if vector_input:
        cur = u_m.conj().T @ np.asarray(state, dtype=complex).reshape(-1)
        cur /= np.linalg.norm(cur)
    else:
        cur = u_m.conj().T @ state.rho @ u_m
    for i, u in enumerate(_step_rotations(plan)):
        keep = plan.shrink_factors[i] ** 2
        if vector_input:
            y = u @ cur
            p_tunnel = (1.0 - keep) * abs(y[-1]) ** 2
            if gen.random() < p_tunnel:
                return False, i, None
            y[-1] *= plan.shrink_factors[i]
            y /= np.linalg.norm(y)
            cur = u.conj().T @ y
        else:
            y = u @ cur @ u.conj().T
            p_tunnel = (1.0 - keep) * float(y[-1, -1].real)
            if gen.random() < p_tunnel:
                return False, i, None
            y[-1, :] *= plan.shrink_factors[i]
            y[:, -1] *= plan.shrink_factors[i]
            y /= np.trace(y).real
            cur = u.conj().T @ y @ u
    return True, None, cur if vector_input else 0.5 * (cur + cur.conj().T)


def test_execute_plan_matches_reference_loop(rng):
    for dim in (2, 4, 8):
        op = random_invertible_kraus(rng, dim)
        plan = mq.build_plan(op, gamma=1.0)
        states = (
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
            qm.random_density_matrix(dim, rng),
        )
        gen_a = tj.NoiseStream(dim, 0).generator()
        gen_b = tj.NoiseStream(dim, 0).generator()
        successes = 0
        for _ in range(300):
            for state in states:
                out = mq.execute_plan(plan, state, gen_a)
                success, failed_step, restored = _reference_execute(plan, op, state, gen_b)
                assert (out.success, out.failed_step) == (success, failed_step)
                if success:
                    successes += 1
                    got = out.restored.rho if isinstance(out.restored, qm.QuantumState) else out.restored
                    assert max_abs(got - restored) <= 1e-12
        assert successes > 0
