import itertools
import math

import numpy as np
import pytest

from uncollapse import multiqubit as mq
from uncollapse import measurement as qm
from uncollapse import phase, stats
from uncollapse import trajectory as tj
from uncollapse.linalg import herm_eig, max_abs

from conftest import random_invertible_kraus


def reference_reversal_operator(op):
    eig = herm_eig(op.povm_element())
    return math.sqrt(eig.values[0]) * (eig.vectors * (eig.values**-0.5)) @ eig.vectors.conj().T


def test_single_qubit_plan_matches_phase_protocol_operator():
    p_t = 0.45
    op = phase.null_kraus(phase.PhaseMeasurementParams(p_t=p_t))
    plan = mq.build_plan(op, gamma=1.0)
    lt = mq.uncollapse_operator(plan)
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


def test_plan_product_identity(rng):
    for dim in (4, 8):
        op = random_invertible_kraus(rng, dim)
        plan = mq.build_plan(op, gamma=1.3)
        assert max_abs(mq.uncollapse_operator(plan) - reference_reversal_operator(op)) <= 1e-8
        assert plan.durations.min() == 0.0
        for u in plan.unitaries:
            assert max_abs(u.conj().T @ u - np.eye(dim)) <= 1e-12


def test_null_step_kraus():
    assert np.array_equal(mq.null_step_kraus(0.0, 1.0, 4), np.eye(4))
    k = mq.null_step_kraus(math.log(4.0), 2.0, 4)
    assert k[3, 3] == pytest.approx(math.exp(-math.log(4.0)))
    # perpendicular axes untouched
    assert np.allclose(np.diag(k)[:3], 1.0)
    assert np.count_nonzero(k - np.diag(np.diag(k))) == 0


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
    psi_t = qm.polar_decompose(op).unitary.conj().T @ psi_m
    gen = tj.NoiseStream(9, 0).generator()
    for _ in range(2000):
        out = mq.execute_plan(plan, psi_t, gen)
        if out.success:
            proj = np.outer(out.restored, out.restored.conj())
            assert max_abs(proj - np.outer(bell, bell.conj())) <= 1e-9
            return
    raise AssertionError("no successful run")


def test_execute_plan_density_matrix_input(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    rho_m = op.matrix @ state.rho @ op.matrix.conj().T
    rho_m /= np.trace(rho_m).real
    u_m = qm.polar_decompose(op).unitary
    rho_t = qm.QuantumState(rho=u_m.conj().T @ rho_m @ u_m)
    gen = tj.NoiseStream(10, 0).generator()
    for _ in range(2000):
        out = mq.execute_plan(plan, rho_t, gen)
        if out.success:
            assert max_abs(out.restored.rho - state.rho) <= 1e-9
            return
    raise AssertionError("no successful run")


def test_execute_plan_success_rate(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    psi_t = qm.polar_decompose(op).unitary.conj().T @ op.matrix @ psi
    psi_t /= np.linalg.norm(psi_t)
    ref = mq.success_probability(plan, psi_t)
    gen = tj.NoiseStream(12, 0).generator()
    n = 20_000
    hits = sum(mq.execute_plan(plan, psi_t, gen).success for _ in range(n))
    assert stats.bernoulli_estimate(hits, n).contains(ref)


def test_success_probability_matches_general_bound(rng):
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    rho_m = op.matrix @ state.rho @ op.matrix.conj().T
    rho_m /= np.trace(rho_m).real
    u_m = qm.polar_decompose(op).unitary
    rho_t = qm.QuantumState(rho=u_m.conj().T @ rho_m @ u_m)
    assert mq.success_probability(plan, rho_t) == pytest.approx(
        qm.success_probability_bound(op, state), abs=1e-12
    )


def test_joint_success_state_independent(rng):
    op = random_invertible_kraus(rng, 8)
    plan = mq.build_plan(op, gamma=1.0)
    p_min = qm.joint_success_probability(op)
    u_m = qm.polar_decompose(op).unitary
    worst = 0.0
    for _ in range(10):
        state = qm.random_density_matrix(8, rng)
        outcome = qm.outcome_probability(op, state)
        rho_m = op.matrix @ state.rho @ op.matrix.conj().T
        rho_m /= np.trace(rho_m).real
        rho_t = qm.QuantumState(rho=u_m.conj().T @ rho_m @ u_m)
        worst = max(worst, abs(outcome * mq.success_probability(plan, rho_t) - p_min))
    assert worst <= 1e-12


def test_step_order_invariance(rng):
    # all steps commute in the shared eigenbasis: permuting them changes
    # neither the net operator, the success probability, nor the
    # success-conditioned final state
    op = random_invertible_kraus(rng, 4)
    plan = mq.build_plan(op, gamma=1.0)
    state = qm.random_density_matrix(4, rng)
    base_total = mq.uncollapse_operator(plan)
    base_success = mq.success_probability(plan, state)
    for perm in itertools.islice(itertools.permutations(range(4)), 1, 8):
        shuffled = mq.StepPlan(
            unitaries=tuple(plan.unitaries[i] for i in perm),
            durations=plan.durations[list(perm)],
            shrink_factors=plan.shrink_factors[list(perm)],
            gamma=plan.gamma,
            basis=plan.basis[:, list(perm)],
        )
        assert max_abs(mq.uncollapse_operator(shuffled) - base_total) <= 1e-12
        assert mq.success_probability(shuffled, state) == pytest.approx(base_success, abs=1e-12)
        final_base = base_total @ state.rho @ base_total.conj().T
        final_perm = mq.uncollapse_operator(shuffled) @ state.rho @ mq.uncollapse_operator(shuffled).conj().T
        assert max_abs(
            final_base / np.trace(final_base).real - final_perm / np.trace(final_perm).real
        ) <= 1e-12


def test_plan_validation():
    with pytest.raises(ValueError):
        mq.build_plan(qm.KrausOperator(np.diag([1.0, 0.5])), gamma=0.0)
    with pytest.raises(ValueError):
        mq.null_step_kraus(-1.0, 1.0, 4)


def _measured(op, state):
    """Input to the plan: the state after M, with M's unitary part undone."""
    u_m = qm.polar_decompose(op).unitary
    if isinstance(state, qm.QuantumState):
        rho = op.matrix @ state.rho @ op.matrix.conj().T
        return qm.QuantumState(rho=u_m.conj().T @ (rho / np.trace(rho).real) @ u_m)
    psi = u_m.conj().T @ op.matrix @ state
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("density", [False, True])
def test_protocol_ensemble_matches_closed_forms(rng, density):
    op = random_invertible_kraus(rng, 8)
    plan = mq.build_plan(op, gamma=1.0)
    if density:
        state = qm.random_density_matrix(8, rng)
    else:
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
    entering = _measured(op, state)
    n = 200_000
    ens = mq.protocol_ensemble(plan, entering, n, tj.NoiseStream(21, 0))
    assert ens.n == n
    assert ens.successes + int(ens.failures.sum()) == n
    assert stats.bernoulli_estimate(ens.successes, n).contains(mq.success_probability(plan, entering))

    trace_form, normalized_form = mq.stepwise_probabilities(plan, entering)
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
    psi = _measured(op, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    first = mq.protocol_ensemble(plan, psi, 5000, tj.NoiseStream(3, 0))
    again = mq.protocol_ensemble(plan, psi, 5000, tj.NoiseStream(3, 0))
    assert first.successes == again.successes
    assert np.array_equal(first.failures, again.failures)
    assert np.array_equal(first.restored, again.restored)
    for n in (0, -5):
        with pytest.raises(ValueError):
            mq.protocol_ensemble(plan, psi, n, tj.NoiseStream(3, 0))


def _reference_execute(plan, state, gen):
    """Step loop with the tunneling draw inline, as execute_plan ran before the shared step."""
    vector_input = not isinstance(state, qm.QuantumState)
    if vector_input:
        cur = np.asarray(state, dtype=complex).reshape(-1).copy()
        cur /= np.linalg.norm(cur)
    else:
        cur = state.rho.copy()
    for i in range(plan.dim):
        u = plan.unitaries[i]
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


def test_execute_plan_bit_identical_to_reference_loop(rng):
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
                success, failed_step, restored = _reference_execute(plan, state, gen_b)
                assert (out.success, out.failed_step) == (success, failed_step)
                if success:
                    successes += 1
                    got = out.restored.rho if isinstance(out.restored, qm.QuantumState) else out.restored
                    assert got.tobytes() == restored.tobytes()
        assert successes > 0
