"""Generalized (POVM-type) measurements and their probabilistic reversal.

A measurement outcome is a Kraus operator M acting on density matrices as
rho -> M rho M† / Tr(M†M rho).  When M is invertible the disturbance can
be undone by a second measurement realizing C M^{-1}: a unitary, a
diagonal "uncollapse" operator L, and a final unitary.  The largest
physically allowed |C| is sqrt(min eigenvalue of M†M), which makes the
joint probability of the outcome followed by a successful undo equal to
that minimum eigenvalue for every input state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_square_matrix, herm_eig, max_abs, svd

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# measurement arithmetic accumulates rounding; a hard zero floor would
# reject valid states
EIGENVALUE_FLOOR = -1e-10
PURITY_TOL = 1e-8
COMPLETENESS_TOL = 1e-9
PROJECTIVE_THRESHOLD = 1e-12
ZERO_PROBABILITY = 1e-14


class ImpossibleOutcomeError(ValueError):
    """The requested outcome has zero probability on the given state."""


class UncollapseImpossibleError(ValueError):
    """The measurement is projective (or close enough) and cannot be undone."""


@dataclass(frozen=True)
class QuantumState:
    """Density matrix with Hermiticity, unit-trace and positivity checks."""

    rho: np.ndarray
    pure: bool = False

    def __post_init__(self):
        rho = as_square_matrix(self.rho, "rho")
        if max_abs(rho - rho.conj().T) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eigs.min() < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        if self.pure and abs(self.purity() - 1.0) > PURITY_TOL:
            raise ValueError("state flagged pure but Tr(rho^2) != 1")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    @classmethod
    def from_ket(cls, psi) -> "QuantumState":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(rho=np.outer(v, v.conj()), pure=True)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(rho=np.eye(dim, dtype=complex) / dim)


def random_pure_state(dim: int, rng: np.random.Generator) -> QuantumState:
    """Haar-random pure state."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState.from_ket(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    """Random full-rank mixed state (normalized Wishart matrix)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return QuantumState(rho=w / np.trace(w).real)


@dataclass(frozen=True)
class KrausOperator:
    """Measurement operator M for one outcome; E = M†M is its POVM element."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "matrix")
        eigs = np.linalg.eigvalsh(m.conj().T @ m)
        if eigs.max() > 1.0 + 1e-10:
            raise ValueError("M†M has an eigenvalue above 1; not part of any complete set")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def povm_element(self) -> np.ndarray:
        m = self.matrix
        e = m.conj().T @ m
        return 0.5 * (e + e.conj().T)


def random_invertible_kraus(rng: np.random.Generator, dim: int = 2) -> KrausOperator:
    """Random invertible measurement operator Q sqrt(E), Q a random unitary.

    E is a Wishart matrix plus 0.3 times the identity, scaled to a top
    eigenvalue of 1/1.02, so the operator stays safely invertible.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vals, vecs = np.linalg.eigh(g @ g.conj().T + 0.3 * np.eye(dim))
    sqrt_e = (vecs * np.sqrt(np.clip(vals / (vals[-1] * 1.02), 0.0, None))) @ vecs.conj().T
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return KrausOperator(q @ sqrt_e)


@dataclass(frozen=True)
class PovmSet:
    """Complete ordered set of measurement operators."""

    operators: tuple[KrausOperator, ...]

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("a POVM needs at least one outcome")
        dim = ops[0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for op in ops:
            if op.dim != dim:
                raise ValueError("POVM operators have mismatched dimensions")
            total += op.povm_element()
        if max_abs(total - np.eye(dim)) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "operators", ops)

    def __iter__(self):
        return iter(self.operators)


@dataclass(frozen=True)
class UncollapseOperator:
    """Reversal operator L = |C| E^{-1/2} for a measurement with element E.

    The general reversal |C| U_L E^{-1/2} V_L admits any unitaries U_L and
    V_L; both are the identity here, so the undo is U_m† followed by L.
    """

    matrix: np.ndarray
    magnitude: float

    def __post_init__(self):
        l = as_square_matrix(self.matrix, "matrix")
        eigs = np.linalg.eigvalsh(l.conj().T @ l)
        if eigs.max() > 1.0 + 1e-10:
            raise ValueError("L†L has an eigenvalue above 1; not a physical outcome")
        if not 0.0 < self.magnitude <= 1.0 + 1e-12:
            raise ValueError("|C| must lie in (0, 1]")
        object.__setattr__(self, "matrix", l)


@dataclass(frozen=True)
class PriorEnsemble:
    """Discrete prior over candidate initial states."""

    states: tuple[QuantumState, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.states) != w.size:
            raise ValueError("one weight per state required")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PolarDecomposition:
    """M = unitary @ sqrt_element with sqrt_element = (M†M)^{1/2}."""

    unitary: np.ndarray
    sqrt_element: np.ndarray
    null_completed: bool


def _check_dims(op: KrausOperator, state: QuantumState) -> None:
    if op.dim != state.dim:
        raise ValueError(f"operator dimension {op.dim} != state dimension {state.dim}")


def outcome_probability(op: KrausOperator, state: QuantumState) -> float:
    """Probability Tr(M†M rho) of the outcome on the given state."""
    _check_dims(op, state)
    p = float(np.trace(op.povm_element() @ state.rho).real)
    return min(max(p, 0.0), 1.0)


def apply_measurement(op: KrausOperator, state: QuantumState) -> tuple[QuantumState, float]:
    """Conditioned post-measurement state M rho M† / P and the probability P.

    Ideal measurements map pure states to pure states, so the purity flag
    is carried through.
    """
    p = outcome_probability(op, state)
    if p <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError("outcome probability is zero on this state")
    m = op.matrix
    rho = m @ state.rho @ m.conj().T / p
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(rho=rho, pure=state.pure), p


def polar_decompose(op: KrausOperator) -> PolarDecomposition:
    """Split M into a unitary times the Hermitian PSD square root of M†M.

    For singular M the unitary factor is completed arbitrarily (but
    deterministically) on the null space and the result is flagged.
    """
    dec = svd(op.matrix)
    unitary = dec.u @ dec.v
    sqrt_element = dec.v.conj().T @ (dec.s[:, None] * dec.v)
    sqrt_element = 0.5 * (sqrt_element + sqrt_element.conj().T)
    smax = dec.s.max() if dec.s.size else 0.0
    null_completed = bool(dec.s.min() <= 1e-12 * max(smax, 1e-300))
    return PolarDecomposition(unitary=unitary, sqrt_element=sqrt_element, null_completed=null_completed)


def build_uncollapse(op: KrausOperator) -> UncollapseOperator:
    """Optimal reversal operator for the outcome M, with |C| = sqrt(min eig M†M).

    The undo is: apply U_m† (U_m = M E^{-1/2}, the unitary of the polar
    form of M), then realize L as a measurement outcome.  Projective
    inputs (minimum eigenvalue at or below the threshold) cannot be undone.
    """
    element = op.povm_element()
    eig = herm_eig(element)
    p_min = float(eig.values[0])
    if p_min <= PROJECTIVE_THRESHOLD:
        raise UncollapseImpossibleError(
            f"minimum eigenvalue {p_min:.3e} of M†M is at the projective threshold"
        )
    magnitude = float(np.sqrt(p_min))
    inv_sqrt = (eig.vectors * (eig.values ** -0.5)) @ eig.vectors.conj().T
    l = magnitude * inv_sqrt
    l = 0.5 * (l + l.conj().T)
    return UncollapseOperator(matrix=l, magnitude=magnitude)


def _unitary_part(op: KrausOperator, unc: UncollapseOperator) -> np.ndarray:
    """U_m = M E^{-1/2} = M L / |C|, from the reversal operator already built; no SVD."""
    return op.matrix @ unc.matrix / unc.magnitude


def success_probability_bound(op: KrausOperator, state: QuantumState) -> float:
    """Upper bound min_psi P_m / P_m(rho) on the undo success probability."""
    _check_dims(op, state)
    element = op.povm_element()
    numerator = float(herm_eig(element).values[0])
    denominator = float(np.trace(element @ state.rho).real)
    if denominator <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError("outcome probability is zero on this state")
    return min(max(numerator / denominator, 0.0), 1.0)


def joint_success_probability(op: KrausOperator) -> float:
    """Probability of the outcome followed by a successful undo: |C|^2.

    Equal to the minimum eigenvalue of M†M, independent of the input state.
    """
    return float(np.linalg.eigvalsh(op.povm_element())[0])


def irreversibility_measure(povm: PovmSet) -> float:
    """1 - sum over outcomes of min eig(E_m): 0 for unitary, 1 for projective."""
    total = sum(float(np.linalg.eigvalsh(op.povm_element())[0]) for op in povm)
    return min(max(1.0 - total, 0.0), 1.0)


def bayes_update(prior: PriorEnsemble, op: KrausOperator) -> PriorEnsemble:
    """Posterior over candidate states after observing the outcome of M."""
    likelihood = np.array([outcome_probability(op, s) for s in prior.states])
    weights = likelihood * prior.weights
    total = weights.sum()
    if total <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError("outcome impossible under every prior state")
    return PriorEnsemble(states=prior.states, weights=weights / total)


def _undo_success_probability(
    op: KrausOperator, u_m: np.ndarray, unc: UncollapseOperator, state: QuantumState
) -> float:
    """Success probability of the undo step (U_m, then L), computed by propagation."""
    rho_m, _ = apply_measurement(op, state)
    rho_rotated = u_m.conj().T @ rho_m.rho @ u_m
    l = unc.matrix
    return float(np.trace(l.conj().T @ l @ rho_rotated).real)


def pair_update(
    prior: PriorEnsemble, op: KrausOperator, unc: UncollapseOperator | None = None
) -> PriorEnsemble:
    """Posterior after the outcome of M followed by a successful optimal undo.

    The two Bayes updates cancel: the pair of events carries zero
    information, so the prior is returned unchanged (up to rounding).
    """
    if unc is None:
        unc = build_uncollapse(op)
    after_m = bayes_update(prior, op)
    u_m = _unitary_part(op, unc)
    likelihood = np.array([_undo_success_probability(op, u_m, unc, s) for s in prior.states])
    weights = likelihood * after_m.weights
    total = weights.sum()
    if total <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError("undo success impossible under every prior state")
    return PriorEnsemble(states=prior.states, weights=weights / total)


def measure_and_uncollapse(
    op: KrausOperator, state: QuantumState, unc: UncollapseOperator | None = None
) -> tuple[QuantumState, float, float]:
    """Apply M, then the optimal reversal: U_m†, then the outcome L.

    Returns (restored state, outcome probability, undo success probability).
    The restored state coincides with the input for any invertible M.
    """
    if unc is None:
        unc = build_uncollapse(op)
    rho_m, p_outcome = apply_measurement(op, state)
    u_m = _unitary_part(op, unc)
    rotated = u_m.conj().T @ rho_m.rho @ u_m
    rotated = QuantumState(rho=0.5 * (rotated + rotated.conj().T), pure=rho_m.pure)
    after_l, p_success = apply_measurement(KrausOperator(unc.matrix), rotated)
    return QuantumState(rho=after_l.rho, pure=state.pure), p_outcome, p_success
