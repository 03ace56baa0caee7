"""Closed-form statistics for a charge qubit read out by a point contact.

The detector averages to current I1 or I2 depending on the qubit basis
state and adds white shot noise of spectral density S_I.  All results
are expressed through the dimensionless readout

    r(t) = (dI / S_I) * integral of [I(t') - I0] dt',

which accumulates which-state information: r = 0 means the record is
uninformative and the qubit state equals its initial value.  Times scale
with the measurement time T_M = 2 S_I / dI^2.  In units of T_M the
readout performs a random walk with diffusion 1/2 and drift +1 (state 1)
or -1 (state 2); undoing a readout r0 is the first passage of r to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, erfcx

from .measurement import QuantumState

DIFFUSION = 0.5
DRIFT = {1: 1.0, 2: -1.0}


def _check_state_index(state_index: int) -> None:
    if state_index not in (1, 2):
        raise ValueError("state index must be 1 or 2")


@dataclass(frozen=True)
class DetectorParams:
    """Point-contact readout: mean currents per qubit state and noise density."""

    i1: float
    i2: float
    s_i: float

    def __post_init__(self):
        if not (np.isfinite(self.i1) and np.isfinite(self.i2) and np.isfinite(self.s_i)):
            raise ValueError("detector parameters must be finite")
        if self.i1 == self.i2:
            raise ValueError("currents must differ, otherwise nothing is measured")
        if self.s_i <= 0.0:
            raise ValueError("noise spectral density must be positive")

    @property
    def delta_i(self) -> float:
        return self.i1 - self.i2

    @property
    def i0(self) -> float:
        return 0.5 * (self.i1 + self.i2)

    @property
    def t_m(self) -> float:
        """Time to reach signal-to-noise ratio 1."""
        return 2.0 * self.s_i / self.delta_i**2


def gaussian_likelihood(state_index: int, i_bar: float, duration: float, params: DetectorParams):
    """Density of the time-averaged current given the qubit basis state.

    sqrt(t / pi S_I) exp(-(Ibar - I_i)^2 t / S_I); the ratio of the two
    state likelihoods is exp(2 r) with r the dimensionless result.
    """
    _check_state_index(state_index)
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    mean = params.i1 if state_index == 1 else params.i2
    i_bar = np.asarray(i_bar, dtype=float)
    out = np.sqrt(duration / (math.pi * params.s_i)) * np.exp(
        -((i_bar - mean) ** 2) * duration / params.s_i
    )
    return out if out.ndim else float(out)


def dimensionless_result(i_bar: float, duration: float, params: DetectorParams) -> float:
    """Map a time-averaged current to the dimensionless result r."""
    return params.delta_i * duration * (i_bar - params.i0) / params.s_i


def qnd_posterior(state: QuantumState, r: float) -> QuantumState:
    """Qubit state after a readout with result r (no Hamiltonian evolution).

    Populations update by the classical Bayes rule, multiplying the
    rho11/rho22 ratio by exp(2r); the coherence ratio
    rho12/sqrt(rho11 rho22) is conserved, so pure states stay pure.
    States already pinned to a basis state are fixed points.
    """
    if state.dim != 2:
        raise ValueError("QND posterior is defined for a single qubit")
    if not np.isfinite(r):
        raise ValueError("result must be finite")
    rho = state.rho
    p1, p2 = rho[0, 0].real, rho[1, 1].real
    if p1 <= 0.0 or p2 <= 0.0:
        return state
    # shift exponents to avoid overflow; the shift cancels in the ratio
    a = math.exp(r - abs(r))
    b = math.exp(-r - abs(r))
    z = p1 * a + p2 * b
    out = np.array(
        [[p1 * a / z, rho[0, 1] * math.exp(-abs(r)) / z],
         [rho[1, 0] * math.exp(-abs(r)) / z, p2 * b / z]],
        dtype=complex,
    )
    return QuantumState(rho=out, pure=state.pure)


def uncollapse_success_probability(state: QuantumState, r0: float) -> float:
    """Probability that waiting returns the readout to zero, undoing it.

    exp(-|r0|) / (exp(r0) rho11 + exp(-r0) rho22), evaluated on the state
    before the readout.  Equals 1 at r0 = 0 and vanishes for a projective
    readout r0 -> +-inf.
    """
    if state.dim != 2:
        raise ValueError("defined for a single qubit")
    p1, p2 = state.rho[0, 0].real, state.rho[1, 1].real
    denom = p1 * math.exp(r0 + abs(r0)) + p2 * math.exp(-r0 + abs(r0))
    if denom == 0.0 or math.isinf(denom):
        return 0.0
    return min(1.0, 1.0 / denom)


def crossing_probability(state_index: int, r0: float) -> float:
    """Probability that the readout ever returns to zero from r0.

    Certain when the drift points back toward zero; exp(-2|r0|) when the
    drift carries the readout away.  Symmetric under r0 -> -r0 with the
    two states exchanged.
    """
    _check_state_index(state_index)
    if r0 == 0.0:
        return 1.0
    if DRIFT[state_index] * r0 > 0.0:
        return math.exp(-2.0 * abs(r0))
    return 1.0


def green_function(r, tau, r0: float, state_index: int):
    """Readout density at r after time tau, absorbed at the origin.

    Image-sum solution of the drift-diffusion equation with G = 0 at
    r = 0; vanishes for r on the far side of the boundary.  Supports
    array-valued r and tau.
    """
    _check_state_index(state_index)
    if r0 == 0.0:
        raise ValueError("start point must be away from the boundary")
    r = np.asarray(r, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("tau must be positive")
    sign = 1.0 if r0 > 0.0 else -1.0
    # reflect everything onto the r0 > 0 half line
    x = sign * r
    x0 = abs(r0)
    v = DRIFT[state_index] * sign
    free = np.exp(-((x - x0 - v * tau) ** 2) / (4.0 * DIFFUSION * tau)) / np.sqrt(
        4.0 * math.pi * DIFFUSION * tau
    )
    out = free * (1.0 - np.exp(-x * x0 / (DIFFUSION * tau)))
    out = np.where(x < 0.0, 0.0, out)
    return out if out.ndim else float(out)


def fpt_density(tau, r0: float, state_index: int):
    """Density of the first time the readout reaches zero from r0.

    Integrates over tau in (0, inf) to crossing_probability(state, r0).
    """
    _check_state_index(state_index)
    if r0 == 0.0:
        raise ValueError("start point must be away from the boundary")
    tau = np.asarray(tau, dtype=float)
    x0 = abs(r0)
    v = DRIFT[state_index] * (1.0 if r0 > 0.0 else -1.0)
    out = np.where(
        tau > 0.0,
        x0
        / np.sqrt(4.0 * math.pi * DIFFUSION * np.where(tau > 0.0, tau, 1.0) ** 3)
        * np.exp(-((x0 + v * tau) ** 2) / (4.0 * DIFFUSION * np.where(tau > 0.0, tau, 1.0))),
        0.0,
    )
    return out if out.ndim else float(out)


def conditional_fpt_density(tau, r0: float):
    """First-passage density conditioned on crossing; state independent.

    Conditioned on crossing, the readout drifts toward zero (Doob's
    h-transform), so this is the density of the drift-toward state.
    """
    return fpt_density(tau, abs(r0), 2)


def waiting_time_pdf(t, r0: float, t_m: float = 1.0):
    """Density of the waiting time until a readout r0 is undone.

    |r0| / sqrt(2 pi t^3 / T_M) * exp(-(|r0| - t/T_M)^2 / (2 t/T_M)),
    normalized over successful attempts and independent of the qubit
    state.  For r0 = 0 the waiting time is identically zero (the density
    degenerates to a point mass at t = 0 and this function returns 0 for
    t > 0).
    """
    t = np.asarray(t, dtype=float)
    if r0 == 0.0:
        out = np.zeros_like(t)
        return out if out.ndim else float(out)
    tau = np.where(t > 0.0, t / t_m, 1.0)
    out = np.where(
        t > 0.0,
        abs(r0) / np.sqrt(2.0 * math.pi * tau**3) * np.exp(-((abs(r0) - tau) ** 2) / (2.0 * tau)) / t_m,
        0.0,
    )
    return out if out.ndim else float(out)


def _normal_cdf(x):
    return 0.5 * erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def waiting_time_cdf(t, r0: float, t_m: float = 1.0):
    """Distribution function of the waiting time to undo a readout r0.

    Closed form of the integral of waiting_time_pdf; the exp(2|r0|) tail
    term is evaluated through the scaled complementary error function to
    stay finite for strong readouts.
    """
    t = np.asarray(t, dtype=float)
    if r0 == 0.0:
        out = np.where(t >= 0.0, 1.0, 0.0)
        return out if out.ndim else float(out)
    a = abs(r0)
    tau = np.where(t > 0.0, t / t_m, 1.0)
    sq = np.sqrt(tau)
    first = _normal_cdf((tau - a) / sq)
    # exp(2a) * Phi(-(tau+a)/sqrt(tau)) rewritten via erfcx for stability
    z = (tau + a) / (math.sqrt(2.0) * sq)
    second = 0.5 * erfcx(z) * np.exp(-((tau - a) ** 2) / (2.0 * tau))
    out = np.where(t > 0.0, np.clip(first + second, 0.0, 1.0), 0.0)
    return out if out.ndim else float(out)


def waiting_time_moments(r0: float, t_m: float = 1.0) -> tuple[float, float, float]:
    """(mean, standard deviation, most likely value) of the waiting time.

    T_M |r0|, T_M sqrt(|r0|) and T_M (sqrt(r0^2 + 9/4) - 3/2); the long
    tail makes the mean exceed the mode.
    """
    a = abs(r0)
    mean = t_m * a
    std = t_m * math.sqrt(a)
    mode = t_m * (math.sqrt(a * a + 2.25) - 1.5)
    return mean, std, mode


def total_success_probability(t, t_m: float = 1.0):
    """Probability that a readout of duration t can be undone at all.

    1 - erf(sqrt(t / 2 T_M)): depends only on the readout strength, never
    on the initial state, and decreases monotonically with t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("duration must be nonnegative")
    out = 1.0 - erf(np.sqrt(t / (2.0 * t_m)))
    return out if out.ndim else float(out)
