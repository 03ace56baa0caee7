import math

import numpy as np
import pytest

from uncollapse import charge, evolving as ev, stats
from uncollapse import measurement as qm
from uncollapse import trajectory as tj
from uncollapse.linalg import is_unitary, max_abs

from conftest import random_unitary

PARAMS = charge.DetectorParams(i1=1.1, i2=0.9, s_i=0.04)
WALK = tj.TrajectoryConfig(d_tau=0.02, tau_max=80.0, escape_radius=6.0)


def simulated_extraction(seed, epsilon=1.3, coupling=0.8, duration=0.6):
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cfg = tj.TrajectoryConfig(d_tau=1e-3, epsilon=epsilon, coupling=coupling)
    return tj.simulate_evolving_pure(psi, duration, PARAMS, cfg, tj.NoiseStream(seed, 0)).extraction


def test_plan_from_unitary_is_rotation_only(rng):
    u = random_unitary(rng, 2)
    plan = ev.plan_from_kraus(0.8 * u, choice=1)
    assert plan.target_r == 0.0
    composed = plan.post_rotation @ plan.pre_rotation @ u
    assert max_abs(composed / composed[0, 0] - np.eye(2)) <= 1e-10


def test_plan_qnd_operator_waits_for_zero_total():
    # a plain readout operator needs no rotations: the plan simply waits
    # for the accumulated result to cancel the first one
    r0 = 0.9
    m = np.diag([math.exp(r0 / 2.0), math.exp(-r0 / 2.0)])
    plan = ev.plan_from_kraus(m, choice=2)
    assert plan.lambda_plus == pytest.approx(math.exp(2.0 * r0) * plan.lambda_minus)
    assert plan.target_r == pytest.approx(-r0, abs=1e-12)
    assert max_abs(plan.pre_rotation - np.eye(2)) <= 1e-12
    assert max_abs(plan.post_rotation - np.eye(2)) <= 1e-12


def test_plan_composition_proportional_to_inverse():
    ext = simulated_extraction(6)
    for choice in (1, 2):
        plan = ev.plan_from_kraus(ext, choice=choice)
        composed = plan.reversal_operator() @ ext.matrix
        assert max_abs(composed / composed[0, 0] - np.eye(2)) <= 1e-8
        assert is_unitary(plan.pre_rotation, tol=1e-9)
        assert is_unitary(plan.post_rotation, tol=1e-9)


def test_plan_choice_flips_target_and_columns():
    ext = simulated_extraction(8)
    one = ev.plan_from_kraus(ext, choice=1)
    two = ev.plan_from_kraus(ext, choice=2)
    assert one.target_r == pytest.approx(-two.target_r)
    assert one.target_r > 0.0 > two.target_r
    assert np.allclose(np.abs(one.post_rotation), np.abs(two.post_rotation[:, ::-1]), atol=1e-12)


def test_plan_rejects_projective():
    with pytest.raises(qm.UncollapseImpossibleError):
        ev.plan_from_kraus(np.diag([1.0, 0.0]), choice=1)


def test_plan_parameter_count_is_six(rng):
    # the plan is a function of the operator modulo norm and global phase
    # (8 - 2 = 6 real parameters): invariant under scale/phase changes,
    # sensitive to six independent perturbations
    ext = simulated_extraction(10)
    base = ev.plan_from_kraus(ext, choice=1)
    for factor in (0.7, 1.3 * np.exp(0.4j), np.exp(-1.1j)):
        other = ev.plan_from_kraus(factor * ext.matrix, choice=1)
        assert other.target_r == pytest.approx(base.target_r, abs=1e-12)
        assert max_abs(other.pre_rotation - base.pre_rotation) <= 1e-9
        assert max_abs(other.post_rotation - base.post_rotation) <= 1e-9
    changed = 0
    for _ in range(6):
        delta = 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        other = ev.plan_from_kraus(ext.matrix + delta, choice=1)
        moved = (
            abs(other.target_r - base.target_r)
            + max_abs(other.pre_rotation - base.pre_rotation)
            + max_abs(other.post_rotation - base.post_rotation)
        )
        changed += moved > 1e-6
    assert changed == 6


def test_both_choices_restore_state(rng):
    ext = simulated_extraction(12)
    psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = ext.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    for choice in (1, 2):
        plan = ev.plan_from_kraus(ext, choice=choice)
        for attempt in range(300):
            out = ev.execute_plan(plan, psi_m, WALK, tj.NoiseStream(100 + choice, attempt))
            if out.success:
                overlap = abs(np.vdot(out.restored, psi_in))
                assert overlap == pytest.approx(1.0, abs=1e-10)
                break
        else:
            raise AssertionError("no success in 300 attempts")


def test_eigenstate_always_succeeds():
    ext = simulated_extraction(14)
    plan = ev.plan_from_kraus(ext, choice=1)
    m = ext.matrix
    lam_state = np.linalg.eigh(m.conj().T @ m).eigenvectors[:, 0]
    post = m @ lam_state
    post /= np.linalg.norm(post)
    hits = ev.plan_execution_ensemble(plan, post, 3000, WALK, seed=33)
    assert hits == 3000
    st = qm.QuantumState.from_ket(lam_state)
    assert ev.success_bound(ext, st) == pytest.approx(1.0, abs=1e-10)


def test_success_bound_reduces_to_diagonal_law():
    # plain-readout operator: the general bound collapses to the
    # population form used by the waiting strategy
    r0 = 1.2
    p1 = math.exp(-((1.0 - r0) ** 2))  # any positive pair works
    p2 = math.exp(-((1.0 + r0) ** 2))
    v1 = np.array([math.sqrt(p1), 0.0], dtype=complex)
    v2 = np.array([0.0, math.sqrt(p2)], dtype=complex)
    ext = tj.KrausExtraction.from_vectors(v1, v2)
    for pop in (0.2, 0.5, 0.8):
        state = qm.QuantumState(rho=np.diag([pop, 1.0 - pop]).astype(complex))
        direct = min(p1, p2) / (pop * p1 + (1.0 - pop) * p2)
        assert ev.success_bound(ext, state) == pytest.approx(direct, abs=1e-12)


def test_success_bound_matches_general_operator_bound(rng):
    ext = simulated_extraction(16)
    scale = math.sqrt(ext.lambda_plus) * 1.01
    op = qm.KrausOperator(ext.matrix / scale)
    for _ in range(5):
        state = qm.random_density_matrix(2, rng)
        assert ev.success_bound(ext, state) == pytest.approx(
            qm.success_probability_bound(op, state), abs=1e-10
        )


def test_plan_success_probability_equals_bound(rng):
    ext = simulated_extraction(18)
    plan = ev.plan_from_kraus(ext, choice=1)
    for _ in range(5):
        psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi_in /= np.linalg.norm(psi_in)
        psi_m = ext.matrix @ psi_in
        psi_m /= np.linalg.norm(psi_m)
        bound = ev.success_bound(ext, qm.QuantumState.from_ket(psi_in))
        assert ev.plan_success_probability(plan, psi_m) == pytest.approx(bound, abs=1e-10)


def test_plan_monte_carlo_matches_bound(rng):
    ext = simulated_extraction(20)
    plan = ev.plan_from_kraus(ext, choice=1)
    psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = ext.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    n = 20_000
    hits = ev.plan_execution_ensemble(plan, psi_m, n, WALK, seed=44)
    est = stats.bernoulli_estimate(hits, n)
    assert est.contains(ev.success_bound(ext, qm.QuantumState.from_ket(psi_in)))


def test_joint_probability_state_independent():
    # record probability times undo success cannot depend on the state
    ext = simulated_extraction(22)
    plan = ev.plan_from_kraus(ext, choice=1)
    rng = np.random.default_rng(5)
    values = []
    for _ in range(8):
        psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi_in /= np.linalg.norm(psi_in)
        record_prob = float(np.vdot(ext.matrix @ psi_in, ext.matrix @ psi_in).real)
        psi_m = ext.matrix @ psi_in
        psi_m /= np.linalg.norm(psi_m)
        values.append(record_prob * ev.plan_success_probability(plan, psi_m))
    assert np.max(values) - np.min(values) <= 1e-12 * max(values)


def two_step_operator(ext, c, flip_second=False):
    """D2 R2 D1 R1 of the two-readout variant, from its geometry: proportional to M^-1."""
    rot1, first, rot2, second = ev._two_step_geometry(ext, c)
    stage1 = np.eye(2) if rot1 is None else ev._stretch(first) @ rot1
    return ev._stretch(-second if flip_second else second) @ rot2 @ stage1


def restores_exactly(ext, c, flip_second=False):
    net = two_step_operator(ext, c, flip_second) @ ext.matrix
    return max_abs(net / net[0, 0] - np.eye(2)) <= 1e-10


def test_two_step_is_suboptimal_but_exact(rng):
    ext = simulated_extraction(24)
    m = ext.matrix
    lam_state = np.linalg.eigh(m.conj().T @ m).eigenvectors[:, 0]
    post = m @ lam_state
    post /= np.linalg.norm(post)

    n = 6000
    hits = ev.two_step_ensemble(ext, post, 1.7, n, WALK, seed=55)
    est = stats.bernoulli_estimate(hits, n)
    assert est.ci_high < 1.0  # strictly below the optimal bound

    assert restores_exactly(ext, 1.7)
    assert not restores_exactly(ext, 1.7, flip_second=True)


def test_two_step_degenerate_unitary_case(rng):
    # proportional-to-unitary records have orthogonal equal-norm images:
    # both stops are trivial and the reversal always succeeds
    u = random_unitary(rng, 2)
    ext = tj.KrausExtraction.from_vectors(0.8 * u[:, 0], 0.8 * u[:, 1])
    first, second, _ = ev.two_step_targets(ext, 1.0)
    assert first == 0.0 and second == pytest.approx(0.0, abs=1e-12)
    assert restores_exactly(ext, 1.0)
    psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = ext.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    assert ev.two_step_ensemble(ext, psi_m, 1.0, 1000, WALK, seed=77) == 1000


def test_two_step_rejects_nonpositive_axis():
    ext = simulated_extraction(26)
    with pytest.raises(ValueError):
        ev.two_step_targets(ext, -1.0)
    with pytest.raises(ValueError):
        ev.two_step_ensemble(ext, np.array([1.0, 0.0]), 0.0, 100, WALK, seed=1)


def test_two_step_orthogonal_images_skip_the_first_stop(rng):
    # orthogonal images of unequal norm: no first stop, and the ensemble
    # takes the same geometry as the exact reversal
    u = random_unitary(rng, 2)
    ext = tj.KrausExtraction.from_vectors(0.9 * u[:, 0], 0.5 * u[:, 1])
    first, second, stage_populations = ev.two_step_targets(ext, 1.0)
    assert first == 0.0 and second == pytest.approx(math.log(0.5 / 0.9), abs=1e-12)
    assert ev._two_step_geometry(ext, 1.0)[0] is None
    assert restores_exactly(ext, 1.0)
    assert not restores_exactly(ext, 1.0, flip_second=True)
    psi_in = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = ext.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    _, p1 = stage_populations(psi_m)
    exact = p1 * charge.crossing_probability(1, -second) + (1.0 - p1) * charge.crossing_probability(2, -second)
    n = 20_000
    hits = ev.two_step_ensemble(ext, psi_m, 1.0, n, WALK, seed=57)
    assert stats.bernoulli_estimate(hits, n).contains(exact)
