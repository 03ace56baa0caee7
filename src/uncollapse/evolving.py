"""Undoing the measurement of a charge qubit that evolved while monitored.

With the Hamiltonian on, a detector record realizes a general invertible
2x2 operator M instead of a diagonal one, so waiting for the total
readout to return to zero no longer suffices.  The optimal reversal
factors C M^{-1} = U L V through its singular value decomposition: a
unitary V, a diagonal wait-and-stop readout stopped at a preset target,
then a unitary U.  A deliberately non-optimal variant performs the same
map with two stopped readouts (orthogonalize the two basis images, then
equalize their norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charge import crossing_probability
from .linalg import _fix_column_phases, max_abs, svd
from .measurement import QuantumState, UncollapseImpossibleError
from .trajectory import (
    KrausExtraction,
    TrajectoryConfig,
    _as_generator,
    _block_count,
    targeted_ensemble,
    targeted_measurement,
)

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class UncollapsePlan:
    """Three-step reversal: apply V, stop the readout at target_r, apply U.

    ``choice`` selects which singular vector is sent to which basis state;
    it flips the sign of the target and swaps the columns of U.  Both
    choices restore the state.
    """

    pre_rotation: np.ndarray  # V
    target_r: float
    post_rotation: np.ndarray  # U
    choice: int
    lambda_plus: float
    lambda_minus: float

    def stopped_operator(self) -> np.ndarray:
        """Diagonal readout operator realized when the target is reached.

        Normalized so the larger entry is 1, making it a physical outcome.
        """
        half = 0.5 * self.target_r
        return np.diag(
            [math.exp(half - abs(half)), math.exp(-half - abs(half))]
        ).astype(complex)

    def reversal_operator(self) -> np.ndarray:
        """U L V, proportional to the inverse of the measured operator."""
        return self.post_rotation @ self.stopped_operator() @ self.pre_rotation


def plan_from_kraus(extraction: KrausExtraction | np.ndarray, choice: int = 1) -> UncollapsePlan:
    """Build the optimal reversal plan from a realized measurement operator.

    The columns of U are the eigenvectors of M†M; the readout target is
    ln sqrt(lambda_+/lambda_-) > 0 (choice 1) or its negative (choice 2).
    Operators with an (almost) vanishing smaller singular value cannot be
    undone; an (almost) proportional-to-unitary M yields a zero target.
    """
    if choice not in (1, 2):
        raise ValueError("choice must be 1 or 2")
    matrix = extraction.matrix if isinstance(extraction, KrausExtraction) else np.asarray(extraction, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("expected a 2x2 operator")
    dec = svd(matrix)
    s_hi, s_lo = float(dec.s[0]), float(dec.s[1])
    if s_lo * s_lo <= 1e-12 * s_hi * s_hi:
        raise UncollapseImpossibleError("operator is projective within tolerance")
    lam_plus, lam_minus = s_hi * s_hi, s_lo * s_lo
    degenerate = (lam_plus - lam_minus) <= 1e-12 * lam_plus

    # M = W diag(s) X with X = dec.v; eigenvectors of M†M are rows of X
    # conjugated.  Choice 2 keeps the descending order (U = X†, V = W†);
    # choice 1 swaps the columns and targets the positive threshold.
    if choice == 1:
        u = dec.v.conj().T @ _SWAP
        v = _SWAP @ dec.u.conj().T
        target = 0.0 if degenerate else math.log(s_hi / s_lo)
    else:
        u = dec.v.conj().T
        v = dec.u.conj().T
        target = 0.0 if degenerate else math.log(s_lo / s_hi)
    u, v = _fix_column_phases(u, v)
    # pin the free global phase of V (it only rephases the constant C);
    # unitaries have exactly tied |entries|, so take the first entry within
    # a whisker of the maximum rather than a bare argmax
    mags = np.abs(v)
    candidates = np.flatnonzero(mags >= (1.0 - 1e-9) * mags.max())
    pivot = v.flat[int(candidates[0])]
    if abs(pivot) > 0.0:
        v = v * (pivot.conjugate() / abs(pivot))
    plan = UncollapsePlan(
        pre_rotation=v,
        target_r=target,
        post_rotation=u,
        choice=choice,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
    )
    composed = plan.reversal_operator() @ matrix
    scale = max_abs(composed)
    if scale <= 0.0 or max_abs(composed / scale - np.eye(2) * (np.trace(composed) / (2.0 * scale))) > 1e-8:
        raise ValueError("reversal plan failed the proportionality check")
    return plan


@dataclass(frozen=True)
class PlanExecution:
    success: bool
    restored: np.ndarray | None  # normalized state vector
    waiting_time: float | None  # units of T_M


def _normalized_vector(state) -> np.ndarray:
    if isinstance(state, QuantumState):
        if not state.pure:
            raise ValueError("plan execution works on pure states; purify mixtures first")
        eig = np.linalg.eigh(state.rho)
        return np.asarray(eig.eigenvectors[:, -1], dtype=complex)
    psi = np.asarray(state, dtype=complex).reshape(2)
    return psi / np.linalg.norm(psi)


def execute_plan(
    plan: UncollapsePlan, state_m, config: TrajectoryConfig, stream
) -> PlanExecution:
    """Run the three-step reversal on a post-measurement state.

    The diagonal step is a wait-and-stop readout with the Hamiltonian off:
    the true bit is sampled from the rotated state's populations and the
    record must reach the preset target.  On success the stop realizes
    the diagonal operator exactly, so the returned state equals the
    pre-measurement state up to global phase and rounding.
    """
    gen = _as_generator(stream)
    phi = plan.pre_rotation @ _normalized_vector(state_m)
    phi /= np.linalg.norm(phi)
    if plan.target_r == 0.0:
        out = plan.post_rotation @ phi
        return PlanExecution(success=True, restored=out / np.linalg.norm(out), waiting_time=0.0)
    p1 = abs(phi[0]) ** 2
    true_state = 1 if gen.random() < p1 else 2
    hit, tau = targeted_measurement(true_state, plan.target_r, config, gen)
    if not hit:
        return PlanExecution(success=False, restored=None, waiting_time=None)
    out = plan.post_rotation @ (plan.stopped_operator() @ phi)
    return PlanExecution(success=True, restored=out / np.linalg.norm(out), waiting_time=tau)


def hit_probability(true_state: int, target_r: float) -> float:
    """Chance that the readout of a definite bit ever reaches target_r from 0.

    Certain when the drift points at the target, exp(-2|target|) against
    the drift: the walk from 0 to target_r is the walk from -target_r to 0.
    """
    return crossing_probability(true_state, -target_r)


def plan_success_probability(plan: UncollapsePlan, state_m) -> float:
    """Success probability of execute_plan for a given post-measurement state."""
    phi = plan.pre_rotation @ _normalized_vector(state_m)
    phi /= np.linalg.norm(phi)
    p1 = abs(phi[0]) ** 2
    return p1 * hit_probability(1, plan.target_r) + (1.0 - p1) * hit_probability(2, plan.target_r)


def plan_execution_ensemble(
    plan: UncollapsePlan,
    state_m,
    n: int,
    config: TrajectoryConfig,
    seed: int,
    *,
    stream_offset: int = 0,
    workers: int = 1,
) -> int:
    """Number of successful plan executions out of n independent attempts."""
    phi = plan.pre_rotation @ _normalized_vector(state_m)
    phi /= np.linalg.norm(phi)
    if plan.target_r == 0.0:
        return n
    p1 = abs(phi[0]) ** 2
    return targeted_ensemble(
        p1, plan.target_r, n, config, seed, stream_offset=stream_offset, workers=workers
    )


def success_bound(extraction: KrausExtraction, state: QuantumState) -> float:
    """Upper bound on the reversal success probability for a record operator.

    lambda_- over the record probability rho11 |v1|^2 + rho22 |v2|^2 +
    2 Re(rho12 <v2|v1>), evaluated on the pre-measurement state.  The
    bound is scale invariant in (v1, v2) and reached by the plan built
    from the same record.
    """
    if state.dim != 2:
        raise ValueError("defined for a single qubit")
    v1, v2 = extraction.v1, extraction.v2
    rho = state.rho
    denom = (
        rho[0, 0].real * float(np.vdot(v1, v1).real)
        + rho[1, 1].real * float(np.vdot(v2, v2).real)
        + 2.0 * (rho[0, 1] * np.vdot(v2, v1)).real
    )
    if denom <= 0.0:
        raise ValueError("record probability vanished; state orthogonal to the record image")
    return min(1.0, extraction.lambda_minus / denom)


@dataclass(frozen=True)
class TwoStepResult:
    success: bool
    restored: np.ndarray | None
    first_target: float
    second_target: float


def _stretch(target: float) -> np.ndarray:
    """Diagonal readout operator diag(e^{target/2}, e^{-target/2}) of a stop at target."""
    return np.diag([math.exp(0.5 * target), math.exp(-0.5 * target)]).astype(complex)


def _two_step_geometry(extraction: KrausExtraction, c: float):
    """Rotations and readout targets of the two-readout variant.

    Returns (rot1, first_target, rot2, second_target).  The first stop
    stretches the axis u = v1 + c v2 g/|g| (g = <v2|v1>) until the basis
    images are orthogonal; when they already are, there is no first stop
    and rot1 is None.  The second stop equalizes their norms.
    """
    if c <= 0.0:
        raise ValueError("axis parameter c must be positive")
    v1, v2 = extraction.v1, extraction.v2
    overlap = complex(np.vdot(v2, v1))
    if abs(overlap) <= 1e-14 * math.sqrt(extraction.lambda_plus * max(extraction.lambda_minus, 1e-300)):
        rot1, first_target = None, 0.0
        w1, w2 = v1, v2
    else:
        axis = v1 + c * (overlap / abs(overlap)) * v2
        rot1 = _rotation_onto_e1(axis)
        a1 = rot1 @ v1
        a2 = rot1 @ v2
        ratio = -(a1[1] * a2[1].conjugate()) / (a1[0] * a2[0].conjugate())
        if abs(ratio.imag) > 1e-8 * abs(ratio) or ratio.real <= 0.0:
            raise ValueError("axis did not admit an orthogonalizing stretch")
        first_target = 0.5 * math.log(ratio.real)
        d1 = _stretch(first_target)
        w1, w2 = d1 @ a1, d1 @ a2

    ortho = abs(np.vdot(w2, w1))
    if ortho > 1e-6 * np.linalg.norm(w1) * np.linalg.norm(w2):
        raise ValueError("first stop left the basis images non-orthogonal")
    n1, n2 = float(np.linalg.norm(w1)), float(np.linalg.norm(w2))
    rot2 = np.array([(w1 / n1).conjugate(), (w2 / n2).conjugate()])
    return rot1, first_target, rot2, math.log(n2 / n1)


def two_step_targets(extraction: KrausExtraction, c: float):
    """Stage data of the two-readout variant: targets and the state-1
    probabilities of the rotated states at each stage.

    Returns (first_target, second_target, stage_populations) where
    stage_populations maps the normalized post-measurement vector to the
    populations (p1_stage1, p1_stage2); stage states are deterministic on
    success.  Already orthogonal basis images give first_target 0.
    """
    rot1, first_target, rot2, second_target = _two_step_geometry(extraction, c)

    def stage_populations(psi_m_normalized):
        phi = np.asarray(psi_m_normalized, dtype=complex).reshape(2)
        if rot1 is not None:
            phi = rot1 @ phi
            phi /= np.linalg.norm(phi)
        p1_first = abs(phi[0]) ** 2
        phi2 = rot2 @ (_stretch(first_target) @ phi)
        phi2 /= np.linalg.norm(phi2)
        return p1_first, abs(phi2[0]) ** 2

    return first_target, second_target, stage_populations


def two_step_ensemble(
    extraction: KrausExtraction,
    state_m,
    c: float,
    n: int,
    config: TrajectoryConfig,
    seed: int,
    *,
    stream_offset: int = 0,
    workers: int = 1,
) -> int:
    """Successes of the two-readout variant out of n attempts.

    Stage states conditioned on success are deterministic, so survivors of
    the first stop form a fresh ensemble for the second; both stops must
    hit their targets.
    """
    first_target, second_target, stage_populations = two_step_targets(extraction, c)
    phi = _normalized_vector(state_m)
    p1_first, p1_second = stage_populations(phi)
    survivors = targeted_ensemble(
        p1_first, first_target, n, config, seed, stream_offset=stream_offset, workers=workers
    )
    if survivors == 0 or second_target == 0.0:
        return survivors
    # the second stage starts at the first stream the first one left unused
    return targeted_ensemble(
        p1_second, second_target, survivors, config, seed,
        stream_offset=stream_offset + _block_count(n), workers=workers,
    )


def _rotation_onto_e1(u: np.ndarray) -> np.ndarray:
    """Unitary whose first row is u-hat: maps u onto the first basis vector."""
    u = u / np.linalg.norm(u)
    perp = np.array([-u[1].conjugate(), u[0].conjugate()], dtype=complex)
    return np.array([u.conjugate(), perp.conjugate()])


def two_step_uncollapse(
    extraction: KrausExtraction,
    state_m,
    c: float,
    config: TrajectoryConfig,
    stream,
) -> TwoStepResult:
    """Non-optimal reversal using two stopped readouts instead of one.

    The first readout stretches the axis u = v1 + c v2 g/|g| (g = <v2|v1>)
    until the two basis images become orthogonal; the second equalizes
    their norms (see ``_two_step_geometry``).  Both stops must succeed.
    The restored state is still exact, but the success probability is
    below the optimal bound except at one specific axis.
    """
    rot1, first_target, rot2, second_target = _two_step_geometry(extraction, c)
    gen = _as_generator(stream)
    phi = _normalized_vector(state_m)
    if rot1 is not None:
        phi = rot1 @ phi
        p1 = abs(phi[0]) ** 2
        bit = 1 if gen.random() < p1 else 2
        hit, _ = targeted_measurement(bit, first_target, config, gen)
        if not hit:
            return TwoStepResult(False, None, first_target, math.nan)
        phi = _stretch(first_target) @ phi
        phi /= np.linalg.norm(phi)

    phi = rot2 @ phi
    phi /= np.linalg.norm(phi)
    if second_target != 0.0:
        p1 = abs(phi[0]) ** 2
        bit = 1 if gen.random() < p1 else 2
        hit, _ = targeted_measurement(bit, second_target, config, gen)
        if not hit:
            return TwoStepResult(False, None, first_target, second_target)
        phi = _stretch(second_target) @ phi
        phi /= np.linalg.norm(phi)
    return TwoStepResult(True, phi, first_target, second_target)
