"""Undoing an arbitrary measurement of N entangled charge qubits.

The reversal operator sqrt(min_j p_j) E^{-1/2} is diagonal in the
eigenbasis of E = M†M, so it factors into 2^N single-axis shrink
operators.  Each factor is realized physically by rotating the targeted
eigenvector onto the all-ones register state, watching a detector that
can only fire there for a computed duration, and rotating back; seeing
no tunneling in any of the 2^N steps restores the input state exactly.
Since every factor is diagonal in that eigenbasis, the simulation forms
no step unitary: the null branch is one map into the eigenbasis that
also undoes M's unitary part, a diagonal shrink and one rotation back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import herm_eig, max_abs
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

    Step i rotates eigenvector i (column i of ``basis``) onto the all-ones
    state, measures for duration t_i = -(2/gamma) ln(shrink_i), and
    rotates back; the net effect is B diag(1, ..., shrink_i, ..., 1) B†.
    The step with the smallest eigenvalue has zero duration.  Only B and
    ``to_eigenbasis`` = B†U_m† are stored: every step is diagonal in B,
    so the null branch is simulated there and no step unitary is formed.
    """

    durations: np.ndarray
    shrink_factors: np.ndarray
    gamma: float
    basis: np.ndarray  # eigenbasis columns of E, eigenvalues ascending
    to_eigenbasis: np.ndarray  # B†U_m†: post-measurement state -> eigenbasis

    def __post_init__(self):
        t = np.asarray(self.durations, dtype=float)
        s = np.asarray(self.shrink_factors, dtype=float)
        if t.size != s.size:
            raise ValueError("one duration and shrink factor per step")
        if np.shape(self.basis) != (t.size, t.size) or np.shape(self.to_eigenbasis) != (t.size, t.size):
            raise ValueError("basis and to_eigenbasis must be dim x dim")
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

    Diagonalizes E = M†M once; each step's shrink factor is
    sqrt(min_j p_j / p_i) and its duration follows from the detector rate.
    The plan keeps the eigenbasis B, which fixes every step's rotation,
    and B†U_m† = diag(p^{-1/2}) B†M†, which undoes M's unitary part
    U_m = M E^{-1/2}.  Projective operators cannot be undone.
    """
    if gamma <= 0.0:
        raise ValueError("detector rate gamma must be positive")
    matrix = op.matrix if isinstance(op, KrausOperator) else np.asarray(op, dtype=complex)
    element = matrix.conj().T @ matrix
    eig = herm_eig(0.5 * (element + element.conj().T))
    p = eig.values
    if p[0] <= PROJECTIVE_THRESHOLD:
        raise UncollapseImpossibleError("measurement is projective within tolerance")
    shrink = np.minimum(np.sqrt(p[0] / p), 1.0)
    durations = np.maximum((-2.0 / gamma) * np.log(shrink), 0.0)
    return StepPlan(
        durations=durations, shrink_factors=shrink, gamma=gamma, basis=eig.vectors,
        to_eigenbasis=(matrix @ eig.vectors / np.sqrt(p)).conj().T,
    )


def _in_eigenbasis(plan: StepPlan, state) -> tuple[np.ndarray, np.ndarray]:
    """The post-measurement state mapped by T = B†U_m†, Tψ normalized or TρT†/Tr, and its populations."""
    cur = state.rho if isinstance(state, QuantumState) else np.asarray(state, dtype=complex).reshape(-1)
    if cur.shape[0] != plan.dim:
        raise ValueError("state dimension does not match the plan")
    t = plan.to_eigenbasis
    if cur.ndim == 1:
        y = t @ cur
        y /= np.linalg.norm(y)
        return y, np.abs(y) ** 2
    y = t @ cur @ t.conj().T
    y /= np.trace(y).real
    return y, np.clip(np.diag(y).real, 0.0, None)


def _null_probabilities(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Chance that step i stays silent given that the earlier ones did.

    ``d`` holds the entering populations of the eigenbasis axes and ``f``
    the share of its axis's population a silent step keeps; the running
    populations are renormalized after every step.
    """
    null = np.empty(d.size)
    w = d.copy()
    for i in range(d.size):
        p = 1.0 - (1.0 - f[i]) * w[i]
        null[i] = p
        w[i] *= f[i]
        w /= p
    return null


def success_probability(plan: StepPlan, state) -> float:
    """Probability that no step tunnels: sum_i rho_ii exp(-gamma t_i).

    ``state`` is the state right after the measurement M, as a density
    matrix or vector; the plan undoes M's unitary part itself.
    """
    d = _in_eigenbasis(plan, state)[1]
    return float(np.sum(d * plan.shrink_factors**2))


def stepwise_probabilities(plan: StepPlan, state) -> tuple[np.ndarray, np.ndarray]:
    """Per-step null-result probabilities, computed two independent ways.

    The first form is the ratio of unnormalized traces after and before
    each step; the second is 1 - (tunneling strength) * (population of
    the targeted axis in the renormalized running state).  Their
    element-wise agreement proves the product-equals-sum identity for the
    total success probability.
    """
    d = _in_eigenbasis(plan, state)[1]
    f = plan.shrink_factors**2
    shrunk_prefix = np.concatenate([[0.0], np.cumsum(d * f)])
    raw_suffix = np.concatenate([np.cumsum(d[::-1])[::-1], [0.0]])
    trace_ratio = (shrunk_prefix[1:] + raw_suffix[1:]) / (shrunk_prefix[:-1] + raw_suffix[:-1])
    return trace_ratio, _null_probabilities(d, f)


@dataclass(frozen=True)
class MultiqubitExecution:
    success: bool
    restored: QuantumState | np.ndarray | None
    failed_step: int | None


def _null_branch(plan: StepPlan, state) -> tuple[np.ndarray, np.ndarray]:
    """The run in which no step tunnels: each step's null probability and the restored state.

    Every step shrinks one axis of the eigenbasis B, so the whole branch
    is one map T = B†U_m† into B, a diagonal shrink s and one rotation
    back: B(s∘Tψ) for a vector, B s(TρT†)s B† for a density matrix, normalized.
    """
    y, d = _in_eigenbasis(plan, state)
    null = _null_probabilities(d, plan.shrink_factors**2)
    shrunk_basis = plan.basis * plan.shrink_factors
    if y.ndim == 1:
        out = shrunk_basis @ y
        return null, out / np.linalg.norm(out)
    out = shrunk_basis @ y @ shrunk_basis.conj().T
    return null, out / np.trace(out).real


def _restored(cur: np.ndarray) -> QuantumState | np.ndarray:
    if cur.ndim == 1:
        return cur
    return QuantumState(rho=0.5 * (cur + cur.conj().T))


def execute_plan(plan: StepPlan, state, stream) -> MultiqubitExecution:
    """Undo M on the state right after it: U_m†, then the 2^N rotate-measure-rotate steps.

    Tunneling at any step destroys the register (failure); an all-null
    run returns the restored state, matching the input of the original
    measurement exactly.  Accepts a density matrix or a (possibly
    entangled) state vector.
    """
    gen = _as_generator(stream)
    null, restored = _null_branch(plan, state)
    for i, p_null in enumerate(null.tolist()):
        if gen.random() < 1.0 - p_null:
            return MultiqubitExecution(success=False, restored=None, failed_step=i)
    return MultiqubitExecution(success=True, restored=_restored(restored), failed_step=None)


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
    null, restored = _null_branch(plan, state)
    p_tunnel = 1.0 - null
    reached = np.concatenate([[1.0], np.cumprod(null)[:-1]])
    edges = np.cumsum(reached * p_tunnel)
    outcome = np.searchsorted(edges, _as_generator(stream).random(n), side="right")
    counts = np.bincount(outcome, minlength=plan.dim + 1)
    return MultiqubitEnsemble(
        n=n,
        successes=int(counts[-1]),
        failures=counts[:-1],
        null_probabilities=null,
        restored=_restored(restored),
    )
