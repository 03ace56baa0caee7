"""Null-result partial measurement of a phase qubit and its pulse reversal.

Lowering the barrier for a finite time lets the upper state tunnel out
with probability p_t; seeing *no* tunneling partially collapses the
qubit toward the lower state and multiplies its coherence by a
device-dependent phase.  Swapping the amplitudes with a pi pulse,
repeating the identical measurement, and swapping back undoes the
disturbance exactly whenever the second round is also tunnel-free; the
accumulated phase cancels like in a spin echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measurement, trajectory


@dataclass(frozen=True)
class PhaseMeasurementParams:
    """Overall tunneling strength p_t in [0, 1) and accumulated phase."""

    p_t: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_t < 1.0:
            raise ValueError("p_t must lie in [0, 1)")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")


def pi_pulse() -> np.ndarray:
    """Microwave pulse exchanging the two level amplitudes (up to phase)."""
    return linalg.u2_exp(0.0, 1.0, 0.5 * math.pi)


def null_kraus(params: PhaseMeasurementParams) -> measurement.KrausOperator:
    """Measurement operator of the no-tunneling outcome."""
    m = np.diag([1.0, math.sqrt(1.0 - params.p_t) * np.exp(-1j * params.phi)])
    return measurement.KrausOperator(matrix=m)


def null_update(state: measurement.QuantumState, params: PhaseMeasurementParams) -> measurement.QuantumState:
    """State after a no-tunneling round.

    The population ratio rho11/rho22 is divided by (1 - p_t) and the
    coherence picks up exp(i phi) with unchanged magnitude relative to
    sqrt(rho11 rho22); pure states stay pure.
    """
    if state.dim != 2:
        raise ValueError("defined for a single qubit")
    m = null_kraus(params).matrix
    rho = m @ state.rho @ m.conj().T
    rho = rho / np.trace(rho).real
    return measurement.QuantumState(rho=0.5 * (rho + rho.conj().T), pure=state.pure)


@dataclass(frozen=True)
class PhaseOutcome:
    tunneled: bool
    state: measurement.QuantumState | None  # None when the qubit left its Hilbert space


def sample_measurement(
    state: measurement.QuantumState, params: PhaseMeasurementParams, stream
) -> PhaseOutcome:
    """One measurement round: tunneling destroys the qubit, else update."""
    gen = trajectory._as_generator(stream)
    p_tunnel = params.p_t * float(state.rho[1, 1].real)
    if gen.random() < p_tunnel:
        return PhaseOutcome(tunneled=True, state=None)
    return PhaseOutcome(tunneled=False, state=null_update(state, params))


@dataclass(frozen=True)
class ProtocolResult:
    success: bool
    restored: measurement.QuantumState | None


def uncollapse_protocol(
    state_m: measurement.QuantumState, params: PhaseMeasurementParams, stream
) -> ProtocolResult:
    """Pi pulse, identical measurement, pi pulse.

    Conditioned on the second null result the qubit returns exactly to
    its pre-measurement state, including cancellation of the phase phi.
    """
    gen = trajectory._as_generator(stream)
    pulse = pi_pulse()
    rho = pulse @ state_m.rho @ pulse.conj().T
    flipped = measurement.QuantumState(rho=0.5 * (rho + rho.conj().T), pure=state_m.pure)
    outcome = sample_measurement(flipped, params, gen)
    if outcome.tunneled:
        return ProtocolResult(success=False, restored=None)
    rho = pulse @ outcome.state.rho @ pulse.conj().T
    return ProtocolResult(
        success=True, restored=measurement.QuantumState(rho=0.5 * (rho + rho.conj().T), pure=state_m.pure)
    )


def success_probability(state_in: measurement.QuantumState, params: PhaseMeasurementParams) -> float:
    """Chance the reversal round is tunnel-free, for a given initial state.

    (1 - p_t) / (rho11 + (1 - p_t) rho22), evaluated before the first
    measurement; equals the optimal bound for this outcome.
    """
    if state_in.dim != 2:
        raise ValueError("defined for a single qubit")
    keep = 1.0 - params.p_t
    p1 = float(state_in.rho[0, 0].real)
    p2 = float(state_in.rho[1, 1].real)
    return keep / (p1 + keep * p2)


def joint_success(params: PhaseMeasurementParams) -> float:
    """Probability of null result followed by successful reversal: 1 - p_t.

    Independent of the initial state.
    """
    return 1.0 - params.p_t


def protocol_ensemble(
    state_in: measurement.QuantumState, params: PhaseMeasurementParams, n: int, seed: int
) -> tuple[int, int]:
    """Many full runs from a fresh initial state: measure, then try to undo.

    Returns (first-round null count, reversal success count among those).
    Drawing both rounds' Bernoulli outcomes vectorized is exact because
    the null-branch states are the same for every run.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    p_null_1 = 1.0 - params.p_t * float(state_in.rho[1, 1].real)
    after = null_update(state_in, params)
    pulse = pi_pulse()
    rho_flipped = pulse @ after.rho @ pulse.conj().T
    p_null_2 = 1.0 - params.p_t * float(rho_flipped[1, 1].real)
    gen = trajectory.NoiseStream(seed, 0).generator()
    first = gen.random(n) < p_null_1
    second = gen.random(n) < p_null_2
    nulls = int(np.count_nonzero(first))
    successes = int(np.count_nonzero(first & second))
    return nulls, successes
