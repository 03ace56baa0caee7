"""Undoing an arbitrary measurement of N entangled charge qubits.

The reversal operator sqrt(min_j p_j) E^{-1/2} is diagonal in the
eigenbasis of E = M†M, so it factors into 2^N single-axis shrink
operators.  Each factor is realized physically by rotating the targeted
eigenvector onto the all-ones register state, watching a detector that
can only fire there for a computed duration, and rotating back; seeing
no tunneling in any of the 2^N steps restores the input state exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import basis_to_all_ones, herm_eig, max_abs
from .measurement import (
    PROJECTIVE_THRESHOLD,
    KrausOperator,
    QuantumState,
    UncollapseImpossibleError,
)
from .trajectory import _as_generator


@dataclass(frozen=True)
class StepPlan:
    """Ordered rotate-measure-rotate steps realizing the reversal operator.

    Step i rotates eigenvector i onto the all-ones state, measures for
    duration t_i = -(2/gamma) ln(shrink_i), and rotates back.  The step
    with the smallest eigenvalue has zero duration.
    """

    unitaries: tuple[np.ndarray, ...]
    durations: np.ndarray
    shrink_factors: np.ndarray
    gamma: float
    basis: np.ndarray  # eigenbasis columns of E, eigenvalues ascending

    def __post_init__(self):
        t = np.asarray(self.durations, dtype=float)
        s = np.asarray(self.shrink_factors, dtype=float)
        if t.size != s.size or len(self.unitaries) != t.size:
            raise ValueError("one unitary, duration and shrink factor per step")
        if np.any(t < 0.0):
            raise ValueError("durations must be nonnegative")
        if np.any((s <= 0.0) | (s > 1.0 + 1e-12)):
            raise ValueError("shrink factors must lie in (0, 1]")
        if max_abs(t - (-2.0 / self.gamma) * np.log(s)) > 1e-10 * max(1.0, float(t.max())):
            raise ValueError("durations inconsistent with shrink factors")
        object.__setattr__(self, "durations", t)
        object.__setattr__(self, "shrink_factors", s)

    @property
    def dim(self) -> int:
        return self.durations.size


def build_plan(op: KrausOperator | np.ndarray, gamma: float) -> StepPlan:
    """Plan the 2^N-step reversal of a measurement operator.

    Diagonalizes E = M†M; each step's shrink factor is
    sqrt(min_j p_j / p_i) and its duration follows from the detector rate.
    Projective operators cannot be undone.
    """
    if gamma <= 0.0:
        raise ValueError("detector rate gamma must be positive")
    matrix = op.matrix if isinstance(op, KrausOperator) else np.asarray(op, dtype=complex)
    element = matrix.conj().T @ matrix
    eig = herm_eig(0.5 * (element + element.conj().T))
    p = eig.values
    if p[0] <= PROJECTIVE_THRESHOLD:
        raise UncollapseImpossibleError("measurement is projective within tolerance")
    dim = p.size
    shrink = np.sqrt(p[0] / p)
    shrink = np.minimum(shrink, 1.0)
    durations = np.maximum((-2.0 / gamma) * np.log(shrink), 0.0)
    basis_dagger = eig.vectors.conj().T
    unitaries = tuple(
        basis_to_all_ones(i, dim) @ basis_dagger for i in range(dim)
    )
    return StepPlan(
        unitaries=unitaries,
        durations=durations,
        shrink_factors=shrink,
        gamma=gamma,
        basis=eig.vectors,
    )


def null_step_kraus(duration: float, gamma: float, dim: int) -> np.ndarray:
    """No-tunneling operator of one detector window.

    Shrinks the all-ones axis (last index) by exp(-gamma t / 2) and leaves
    every perpendicular axis untouched.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    d = np.ones(dim, dtype=complex)
    d[-1] = math.exp(-0.5 * gamma * duration)
    return np.diag(d)


def uncollapse_operator(plan: StepPlan) -> np.ndarray:
    """Product of all rotate-measure-rotate factors: the plan's net operator."""
    dim = plan.dim
    total = np.eye(dim, dtype=complex)
    for i in range(dim):
        u = plan.unitaries[i]
        step = u.conj().T @ null_step_kraus(plan.durations[i], plan.gamma, dim) @ u
        total = step @ total
    return total


def _diag_populations(plan: StepPlan, state) -> np.ndarray:
    """Populations of the state in the plan's eigenbasis."""
    if isinstance(state, QuantumState):
        d = np.diag(plan.basis.conj().T @ state.rho @ plan.basis).real
    else:
        psi = np.asarray(state, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        d = np.abs(plan.basis.conj().T @ psi) ** 2
    return np.clip(d, 0.0, None)


def success_probability(plan: StepPlan, state) -> float:
    """Probability that no step tunnels: sum_i rho_ii exp(-gamma t_i).

    ``state`` is the state entering the plan (after the unitary part of
    the measurement has been reversed), as a density matrix or vector.
    """
    d = _diag_populations(plan, state)
    return float(np.sum(d * plan.shrink_factors**2))


def stepwise_probabilities(plan: StepPlan, state) -> tuple[np.ndarray, np.ndarray]:
    """Per-step null-result probabilities, computed two independent ways.

    The first form is the ratio of unnormalized traces after and before
    each step; the second is 1 - (tunneling strength) * (population of
    the targeted axis in the renormalized running state).  Their
    element-wise agreement proves the product-equals-sum identity for the
    total success probability.
    """
    d = _diag_populations(plan, state)
    f = plan.shrink_factors**2
    dim = plan.dim

    shrunk_prefix = np.concatenate([[0.0], np.cumsum(d * f)])
    raw_suffix = np.concatenate([np.cumsum((d)[::-1])[::-1], [0.0]])
    trace_ratio = np.empty(dim)
    for i in range(dim):
        num = shrunk_prefix[i + 1] + raw_suffix[i + 1]
        den = shrunk_prefix[i] + raw_suffix[i]
        trace_ratio[i] = num / den

    normalized_form = np.empty(dim)
    w = d.copy()
    for i in range(dim):
        p = 1.0 - (1.0 - f[i]) * w[i]
        normalized_form[i] = p
        w[i] *= f[i]
        w /= p
    return trace_ratio, normalized_form


@dataclass(frozen=True)
class MultiqubitExecution:
    success: bool
    restored: QuantumState | np.ndarray | None
    failed_step: int | None


def _entering_state(plan: StepPlan, state) -> np.ndarray:
    """Working copy of the input: a unit vector or a density matrix."""
    if isinstance(state, QuantumState):
        cur = state.rho.copy()
    else:
        cur = np.asarray(state, dtype=complex).reshape(-1).copy()
        cur /= np.linalg.norm(cur)
    if cur.shape[0] != plan.dim:
        raise ValueError("state dimension does not match the plan")
    return cur


def _null_step(plan: StepPlan, i: int, cur: np.ndarray) -> tuple[float, np.ndarray]:
    """Step i on the null branch: its tunneling probability and the state after no tunneling.

    Rotates eigenvector i onto the all-ones axis, shrinks that axis,
    renormalizes and rotates back.
    """
    u = plan.unitaries[i]
    keep = plan.shrink_factors[i] ** 2
    if cur.ndim == 1:
        y = u @ cur
        p_tunnel = (1.0 - keep) * abs(y[-1]) ** 2
        y[-1] *= plan.shrink_factors[i]
        y /= np.linalg.norm(y)
        return p_tunnel, u.conj().T @ y
    y = u @ cur @ u.conj().T
    p_tunnel = (1.0 - keep) * float(y[-1, -1].real)
    y[-1, :] *= plan.shrink_factors[i]
    y[:, -1] *= plan.shrink_factors[i]
    y /= np.trace(y).real
    return p_tunnel, u.conj().T @ y @ u


def _restored(cur: np.ndarray) -> QuantumState | np.ndarray:
    if cur.ndim == 1:
        return cur
    return QuantumState(rho=0.5 * (cur + cur.conj().T))


def execute_plan(plan: StepPlan, state, stream) -> MultiqubitExecution:
    """Run the 2^N rotate-measure-rotate steps on a state.

    Tunneling at any step destroys the register (failure); an all-null
    run returns the restored state, matching the input of the original
    measurement exactly.  Accepts a density matrix or a (possibly
    entangled) state vector.
    """
    gen = _as_generator(stream)
    cur = _entering_state(plan, state)
    for i in range(plan.dim):
        p_tunnel, after = _null_step(plan, i, cur)
        if gen.random() < p_tunnel:
            return MultiqubitExecution(success=False, restored=None, failed_step=i)
        cur = after
    return MultiqubitExecution(success=True, restored=_restored(cur), failed_step=None)


@dataclass(frozen=True)
class MultiqubitEnsemble:
    """Counters of n independent runs of a plan on the same input.

    ``failures[i]`` runs tunneled at step i, ``null_probabilities[i]`` is
    the chance that step i stays silent given that the earlier ones did,
    and ``restored`` is the state every all-null run ends in.
    """

    n: int
    successes: int
    failures: np.ndarray
    null_probabilities: np.ndarray
    restored: QuantumState | np.ndarray


def protocol_ensemble(plan: StepPlan, state, n: int, stream) -> MultiqubitEnsemble:
    """Many runs of ``execute_plan`` from the same input, drawn in closed form.

    After the nulls seen so far the register state is the same in every
    run, so walking the null branch once gives each step's tunneling
    probability and the restored state.  A run is then one categorical
    draw over "tunnels at step i" and "all steps null", made for all runs
    at once with one uniform each.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    cur = _entering_state(plan, state)
    p_tunnel = np.empty(plan.dim)
    for i in range(plan.dim):
        p_tunnel[i], cur = _null_step(plan, i, cur)
    null = 1.0 - p_tunnel
    reached = np.concatenate([[1.0], np.cumprod(null)[:-1]])
    edges = np.cumsum(reached * p_tunnel)
    outcome = np.searchsorted(edges, _as_generator(stream).random(n), side="right")
    counts = np.bincount(outcome, minlength=plan.dim + 1)
    return MultiqubitEnsemble(
        n=n,
        successes=int(counts[-1]),
        failures=counts[:-1],
        null_probabilities=null,
        restored=_restored(cur),
    )
