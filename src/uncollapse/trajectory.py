"""Stochastic simulation of continuous qubit readout records.

The engine samples detector records, evolves the monitored qubit, and
executes wait-and-stop measurement reversal.  Noise comes from
counter-based Philox streams addressed by (seed, stream index), so any
run is reproducible and ensembles can be fanned out deterministically:
one driver, ``_ensemble``, runs every ensemble in fixed-size blocks,
block b consuming stream (seed, stream_offset + b), which makes results
byte-identical for any worker count.

Dimensionless units throughout: time in units of the measurement time
T_M, so the readout r performs a random walk with diffusion 1/2 and
drift +1 or -1 depending on the qubit basis state.

Reversal ensembles and ``targeted_measurement`` walk no step: a walker
drifting away from its stop reaches it with probability exp(-2|x0|),
drawn once, and conditioned on arriving it drifts toward the stop
(Doob's h-transform).  A walker drifting toward the stop arrives after
an inverse Gaussian time with mean |x0| and shape x0^2, drawn exactly,
so their stop times carry no time-step bias.

Only ``simulate_qnd`` (hence the single-trajectory ``wait_and_stop``) and
``run_first_passage_ensemble`` walk, through one kernel, ``_walk``.  It
steps in time chunks of k = min(max(1, 4096 // live), steps left) steps
for all live walkers at once: a lone walker draws 4096 steps per chunk, a
crowd of 4096 or more one step, and a thinning tail ever longer chunks.
Crossing detection uses exact Gaussian increments plus the exact
Brownian-bridge crossing probability exp(-2 x_a x_b / dtau) inside each
step, so its first-passage *probabilities* carry no time-step bias at any
dtau; only its crossing times are quantized at the step scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charge import DRIFT, DetectorParams, qnd_posterior
from .linalg import u2_exp
from .measurement import QuantumState

BLOCK_SIZE = 16384
_CHUNK = 4096  # walker-steps drawn per chunk of the walk


@dataclass(frozen=True)
class NoiseStream:
    """Addressable noise source: identical (seed, index) give identical draws."""

    seed: int
    index: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("index", self.index)):
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "NoiseStream":
        return NoiseStream(seed=self.seed, index=index)


def _as_generator(stream) -> np.random.Generator:
    if isinstance(stream, NoiseStream):
        return stream.generator()
    # duck-typed: anything with standard_normal/random draws works, which
    # lets tests inject a fixed Brownian path
    if hasattr(stream, "standard_normal") and hasattr(stream, "random"):
        return stream
    raise TypeError("expected a NoiseStream or numpy Generator")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Discretization and stopping rules for readout simulations.

    ``escape_radius`` is an optional early-failure cutoff for walks that
    follow the raw drift away from the boundary (``simulate_qnd`` and
    ``run_first_passage_ensemble``): a walker whose readout has drifted
    that far out is declared failed, and the forfeited crossing
    probability, at most exp(-2 escape_radius) per walker, is reported.
    Reversal ensembles and ``targeted_measurement`` walk no step: they
    draw the away-drift fate and the stop time exactly, so ``d_tau`` and
    ``escape_radius`` do not affect them.  Their only declared failure is
    a drawn stop time past ``tau_max``, an exact cut, which defaults to
    100 * (|r0| + 1) when not set.
    """

    d_tau: float = 1e-3
    tau_max: float | None = None
    epsilon: float = 0.0
    coupling: float = 0.0
    escape_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.d_tau <= 0.1:
            raise ValueError("d_tau must lie in (0, 0.1]")
        if self.tau_max is not None and self.tau_max <= 0.0:
            raise ValueError("tau_max must be positive")
        if self.escape_radius is not None and self.escape_radius <= 0.0:
            raise ValueError("escape_radius must be positive")
        for name in ("epsilon", "coupling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def resolved_tau_max(self, r0: float) -> float:
        if self.tau_max is not None:
            return self.tau_max
        return 100.0 * (abs(r0) + 1.0)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One realized readout path and how it ended."""

    r_path: np.ndarray
    increments: np.ndarray
    status: str  # 'running' | 'crossed' | 'timed-out'
    crossing_time: float | None
    escaped: bool = False

    def __post_init__(self):
        if self.status not in ("running", "crossed", "timed-out"):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class WaitAndStopResult:
    success: bool
    waiting_time: float | None  # units of T_M
    restored: QuantumState | None
    record: TrajectoryRecord | None


@dataclass(frozen=True)
class KrausExtraction:
    """Realized measurement operator of one detector record.

    v1 and v2 are the unnormalized images of the two basis states under
    the record; the operator matrix has them as columns (up to the common
    rescaling factor exp(log_scale) used to keep amplitudes finite).
    lambda_plus/minus are the eigenvalues of M†M in the same scaling.
    """

    v1: np.ndarray
    v2: np.ndarray
    matrix: np.ndarray
    lambda_plus: float
    lambda_minus: float
    log_scale: float = 0.0

    def __post_init__(self):
        lp, lm = extraction_eigenvalues(self.v1, self.v2)
        scale = max(lp, 1e-300)
        if abs(lp - self.lambda_plus) > 1e-10 * scale or abs(lm - self.lambda_minus) > 1e-10 * scale:
            raise ValueError("stored eigenvalues do not match the basis-solution vectors")
        if self.lambda_minus < -1e-12 * scale:
            raise ValueError("lambda_minus must be nonnegative")

    @classmethod
    def from_vectors(cls, v1, v2, log_scale: float = 0.0) -> "KrausExtraction":
        v1 = np.asarray(v1, dtype=complex).reshape(2)
        v2 = np.asarray(v2, dtype=complex).reshape(2)
        lp, lm = extraction_eigenvalues(v1, v2)
        return cls(
            v1=v1,
            v2=v2,
            matrix=np.column_stack([v1, v2]),
            lambda_plus=lp,
            lambda_minus=max(lm, 0.0),
            log_scale=log_scale,
        )


def extraction_eigenvalues(v1, v2) -> tuple[float, float]:
    """Eigenvalues of M†M from the two basis-state solutions.

    (|v1|^2 + |v2|^2)/2 +- sqrt(((|v1|^2 - |v2|^2)/2)^2 + |<v2|v1>|^2);
    the Cauchy-Schwarz inequality keeps the minus branch nonnegative.
    """
    v1 = np.asarray(v1, dtype=complex).reshape(2)
    v2 = np.asarray(v2, dtype=complex).reshape(2)
    n1 = float(np.vdot(v1, v1).real)
    n2 = float(np.vdot(v2, v2).real)
    overlap = complex(np.vdot(v2, v1))
    half = 0.5 * (n1 + n2)
    root = math.hypot(0.5 * (n1 - n2), abs(overlap))
    return half + root, half - root


# ---------------------------------------------------------------------------
# the absorbing walk


class _Walks(NamedTuple):
    crossed: int
    escaped: int
    timed_out: int
    times: np.ndarray  # crossing times of the crossers if collect_times, else empty
    residual: float  # crossing probability forfeited to escape_radius and tau_max
    path: np.ndarray | None = None  # keep_path: positions from x0 on
    increments: np.ndarray | None = None


def _walk(gen: np.random.Generator, count: int, x0: float, drift: float, config: TrajectoryConfig,
          collect_times: bool = False, keep_path: bool = False) -> _Walks:
    """Absorbing walks of `count` walkers in the folded frame: start x0 > 0, boundary at 0.

    Time runs in chunks of k steps for all live walkers at once, with k =
    min(max(1, _CHUNK // live), steps left): one walker draws _CHUNK steps
    per chunk, a crowd of _CHUNK or more draws one step.  A walker's first
    event in the chunk ends it: a crossing (endpoint at or below 0, or the
    bridge test), which beats an escape past escape_radius on the same
    step.  The crossing time interpolates inside the absorbing step.
    ``keep_path`` records the path of a single walker.
    """
    dt = config.d_tau
    sqrt_dt = math.sqrt(dt)
    max_steps = int(math.ceil(config.resolved_tau_max(x0) / dt))
    radius = config.escape_radius if (config.escape_radius is not None and drift > 0.0) else None

    x = np.full(count, x0, dtype=np.float64)
    crossed = escaped = 0
    residual = 0.0
    times: list[np.ndarray] = []
    paths, incs = [np.array([x0])], []
    done = 0
    while x.size and done < max_steps:
        live = x.size
        k = min(max(1, _CHUNK // live), max_steps - done)
        steps = gen.standard_normal((k, live), dtype=np.float32).astype(np.float64)
        uniforms = gen.random((k, live))
        steps *= sqrt_dt
        steps += drift * dt
        # a one-row cumsum is a copy, but a slow one along axis 0
        xs = (np.cumsum(steps, axis=0) if k > 1 else steps) + x
        prev = np.concatenate((x[None], xs[:-1]))
        hit = xs <= 0.0
        bridge = prev * xs
        bridge *= -2.0 / dt
        with np.errstate(over="ignore", under="ignore"):
            np.exp(bridge, out=bridge)
        hit |= uniforms < bridge
        event = hit if radius is None else hit | (xs >= radius)
        # row-major order: the first event of each column is its first entry
        rows, cols = np.divmod(np.flatnonzero(event), live)
        cols, first = np.unique(cols, return_index=True)
        rows = rows[first]
        is_hit = hit[rows, cols]
        n_hit = int(np.count_nonzero(is_hit))
        crossed += n_hit
        if collect_times and n_hit:
            r, c = rows[is_hit], cols[is_hit]
            a, b = prev[r, c], xs[r, c]
            frac = np.where(b <= 0.0, a / (a - b), a / (a + b))
            times.append((done + r + frac) * dt)
        if n_hit < cols.size:
            escaped += cols.size - n_hit
            residual += float(np.sum(np.exp(-2.0 * xs[rows[~is_hit], cols[~is_hit]])))
        if keep_path:
            cut = int(rows[0]) + 1 if rows.size else k
            paths.append(xs[:cut, 0])
            incs.append(steps[:cut, 0])
        keep = np.ones(live, dtype=bool)
        keep[cols] = False
        x = xs[-1][keep]  # 1-D mask: indexing row and mask together is far slower
        done += k

    timed_out = int(x.size)
    if timed_out:
        residual += float(np.sum(np.exp(-2.0 * x))) if drift > 0.0 else float(timed_out)
    return _Walks(
        crossed, escaped, timed_out, np.concatenate(times) if times else np.empty(0), residual,
        np.concatenate(paths) if keep_path else None, np.concatenate(incs) if keep_path else None,
    )


def _crossers(gen: np.random.Generator, x0: float, drift: float, count: int) -> tuple[int, float]:
    """How many of `count` walkers from x0 > 0 ever reach 0, and their drift.

    Walkers drifting toward the boundary (drift < 0) all reach it and are
    returned as given.  A walker drifting away (drift v > 0) reaches it
    with probability exp(-2 v x0), drawn here once per walker.  Conditioned
    on reaching it, Brownian motion with drift +v is Brownian motion with
    drift -v (Doob's h-transform, h(x) = exp(-2 v x)), so the crossers move
    with the reversed drift and P(T < tau_max) = exp(-2 v x0) P_{-v}(T < tau_max).
    """
    if drift <= 0.0:
        return count, drift
    p_cross = math.exp(-2.0 * drift * x0)
    return int(np.count_nonzero(gen.random(count) < p_cross)), -drift


def _stop_times(gen: np.random.Generator, x0: float, drift: float, count: int,
                config: TrajectoryConfig) -> tuple[int, int, np.ndarray]:
    """Exact first passage to 0 of `count` walkers from x0 > 0: (hits, timed out, times).

    After the fate draw of ``_crossers`` every crosser drifts toward 0 at
    speed v = |drift|, so it arrives after an inverse Gaussian time with
    mean x0 / v and shape x0^2 (``Generator.wald``, the method of Michael,
    Schucany & Haas 1976), drawn as x0 / v times one of mean 1 and shape
    x0 v so that no x0 > 0 underflows the shape.  A crosser whose time
    exceeds tau_max times out.
    """
    crossers, toward = _crossers(gen, x0, drift, count)
    v = abs(toward)
    times = x0 / v * gen.wald(1.0, x0 * v, crossers)
    times = times[times <= config.resolved_tau_max(x0)]
    return times.size, crossers - times.size, times


def simulate_qnd(true_state: int, r_start: float, config: TrajectoryConfig, stream) -> TrajectoryRecord:
    """Readout walk of a definite basis state, absorbed at r = 0.

    The qubit with no Hamiltonian acts as a classical bit: the record
    drifts at +1 (state 1) or -1 (state 2) with diffusion 1/2 in units of
    T_M.  Failure to cross within tau_max (or past the escape radius) is
    a status, not an error.
    """
    if true_state not in (1, 2):
        raise ValueError("true_state must be 1 or 2")
    if r_start == 0.0:
        raise ValueError("r_start must be away from the boundary")
    gen = _as_generator(stream)
    sign = 1.0 if r_start > 0.0 else -1.0
    walk = _walk(gen, 1, abs(r_start), DRIFT[true_state] * sign, config, collect_times=True, keep_path=True)
    return TrajectoryRecord(
        r_path=sign * walk.path,
        increments=sign * walk.increments,
        status="crossed" if walk.crossed else "timed-out",
        crossing_time=float(walk.times[0]) if walk.crossed else None,
        escaped=bool(walk.escaped),
    )


def wait_and_stop(state: QuantumState, r0: float, config: TrajectoryConfig, stream) -> WaitAndStopResult:
    """Keep measuring after a readout r0 and stop when the total returns to 0.

    The true basis state is sampled from the populations updated by the
    first readout; on crossing the qubit state equals its initial value
    exactly, so the input state is returned.
    """
    if state.dim != 2:
        raise ValueError("wait-and-stop reversal is defined for a single qubit")
    gen = _as_generator(stream)
    if r0 == 0.0:
        return WaitAndStopResult(success=True, waiting_time=0.0, restored=state, record=None)
    posterior = qnd_posterior(state, r0)
    p2 = float(posterior.rho[1, 1].real)
    true_state = 2 if gen.random() < p2 else 1
    record = simulate_qnd(true_state, r0, config, gen)
    if record.status == "crossed":
        return WaitAndStopResult(
            success=True, waiting_time=record.crossing_time, restored=state, record=record
        )
    return WaitAndStopResult(success=False, waiting_time=None, restored=None, record=record)


# ---------------------------------------------------------------------------
# vectorized ensembles


def _block_count(n: int) -> int:
    """Blocks, hence noise streams, that an ensemble of n walkers uses."""
    return -(-n // BLOCK_SIZE)


def _run_block(job):
    fn, stream, count, args = job
    return fn(stream.generator(), count, *args)


def _ensemble(fn, n: int, seed: int, stream_offset: int, workers: int, *args) -> list[tuple]:
    """Run fn(gen, count, *args) over n walkers in blocks; the block results as columns.

    Block b holds BLOCK_SIZE walkers (the last one the rest) and draws from
    stream (seed, stream_offset + b), so results are identical for any
    worker count.  A pool of min(workers, blocks, CPUs) processes starts
    only when that is more than one.
    """
    jobs = [
        (fn, NoiseStream(seed, stream_offset + b), min(BLOCK_SIZE, n - b * BLOCK_SIZE), args)
        for b in range(_block_count(n))
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_run_block(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # lazily: serial runs never load it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, jobs))
    return list(zip(*parts))


@dataclass(frozen=True)
class FirstPassageEnsemble:
    n: int
    crossed: int
    escaped: int
    timed_out: int
    crossing_times: np.ndarray | None
    residual_crossing_bound: float  # upper bound on crossings forfeited by cutoffs


def run_first_passage_ensemble(
    x0: float,
    drift: float,
    n: int,
    config: TrajectoryConfig,
    seed: int,
    *,
    stream_offset: int = 0,
    collect_times: bool = False,
    workers: int = 1,
) -> FirstPassageEnsemble:
    """Absorbing random walks from x0 > 0 toward 0 with drift +-1, in ``_ensemble`` blocks."""
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    crossed, escaped, timed_out, times, residual, _, _ = _ensemble(
        _walk, n, seed, stream_offset, workers, x0, drift, config, collect_times
    )
    return FirstPassageEnsemble(
        n=n, crossed=sum(crossed), escaped=sum(escaped), timed_out=sum(timed_out),
        crossing_times=np.concatenate(times) if collect_times else None,
        residual_crossing_bound=float(sum(residual)),
    )


@dataclass(frozen=True)
class WaitAndStopEnsemble:
    n: int
    successes: int
    state1_count: int
    waiting_times: np.ndarray | None  # units of T_M; successes only
    timed_out: int  # walkers bound to cross that had not by tau_max

    @property
    def success_rate(self) -> float:
        return self.successes / self.n

    @property
    def residual_success_bound(self) -> float:
        """Success probability forfeited to tau_max: at most 1 per timed-out walker."""
        return float(self.timed_out)


def _reversal_block(gen: np.random.Generator, count: int, p2: float, x0: float, drift1: float,
                    config: TrajectoryConfig, collect_times: bool):
    """Stops at 0 of `count` walkers from x0 > 0: (hits, state-1 walkers, timed out, times).

    Each walker's bit is 2 with probability p2; bit-1 walkers drift at
    drift1 and bit-2 walkers at -drift1, and both groups draw their fates
    and stop times exactly (see ``_stop_times``).
    """
    n2 = int(np.count_nonzero(gen.random(count) < p2))
    hits1, late1, times1 = _stop_times(gen, x0, drift1, count - n2, config)
    hits2, late2, times2 = _stop_times(gen, x0, -drift1, n2, config)
    times = np.concatenate((times1, times2)) if collect_times else np.empty(0)
    return hits1 + hits2, count - n2, late1 + late2, times


def wait_and_stop_ensemble(
    state: QuantumState,
    r0: float,
    n: int,
    config: TrajectoryConfig,
    seed: int,
    *,
    stream_offset: int = 0,
    collect_times: bool = False,
    workers: int = 1,
) -> WaitAndStopEnsemble:
    """Ensemble of wait-and-stop reversal attempts after a readout r0.

    The true bit of each walker is sampled from the updated populations;
    in the folded frame x = |r| a bit's walkers drift at DRIFT[bit] times
    the sign of r0, and ``_reversal_block`` draws their stops at 0.
    """
    if state.dim != 2:
        raise ValueError("wait-and-stop reversal is defined for a single qubit")
    if n <= 0:
        raise ValueError("n must be positive")
    if r0 == 0.0:
        times = np.zeros(n) if collect_times else None
        return WaitAndStopEnsemble(
            n=n, successes=n, state1_count=0, waiting_times=times, timed_out=0
        )
    p2 = float(qnd_posterior(state, r0).rho[1, 1].real)
    hits, state1, timed_out, times = _ensemble(
        _reversal_block, n, seed, stream_offset, workers,
        p2, abs(r0), math.copysign(DRIFT[1], r0), config, collect_times,
    )
    return WaitAndStopEnsemble(
        n=n, successes=sum(hits), state1_count=sum(state1),
        waiting_times=np.concatenate(times) if collect_times else None, timed_out=sum(timed_out),
    )


def targeted_ensemble(
    p_state1: float,
    target_r: float,
    n: int,
    config: TrajectoryConfig,
    seed: int,
    *,
    stream_offset: int = 0,
    workers: int = 1,
) -> int:
    """Count of runs whose readout reaches target_r from 0.

    Each run's true bit is 1 with probability p_state1.  Reaching target_r
    from 0 is the stop at 0 from x0 = |target_r| with the drift sign
    flipped, so ``_reversal_block`` draws it.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if target_r == 0.0:
        return n
    hits = _ensemble(
        _reversal_block, n, seed, stream_offset, workers,
        1.0 - p_state1, abs(target_r), -math.copysign(DRIFT[1], target_r), config, False,
    )[0]
    return int(sum(hits))


def _total_uncollapse_block(gen: np.random.Generator, count: int, p2: float, tau1: float) -> tuple[int]:
    bits2 = gen.random(count) < p2
    drift = np.where(bits2, -1.0, 1.0)
    r0 = drift * tau1 + math.sqrt(tau1) * gen.standard_normal(count)
    away = drift * r0 > 0.0
    p_cross = np.where(away, np.exp(-2.0 * np.abs(r0)), 1.0)
    return (int(np.count_nonzero(gen.random(count) < p_cross)),)


def sample_total_uncollapse(
    state: QuantumState, tau1: float, n: int, seed: int, *, stream_offset: int = 0, workers: int = 1
) -> int:
    """Successes of measure-for-tau1-then-undo, marginalized over the wait.

    The first readout r0 is drawn from its exact Gaussian mixture and the
    wait-and-stop outcome from its crossing probability exp(-2|r0|) (or 1
    when the drift points back), which marginalizes the second-stage path
    without bias; the crossing law itself is validated separately against
    brute-force walks.
    """
    if tau1 <= 0.0:
        raise ValueError("tau1 must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    p2 = float(state.rho[1, 1].real)
    (hits,) = _ensemble(_total_uncollapse_block, n, seed, stream_offset, workers, p2, tau1)
    return int(sum(hits))


# ---------------------------------------------------------------------------
# evolving qubit


def detector_current(state, params: DetectorParams, dt: float, stream) -> float:
    """One sampled detector output: rho11 I1 + rho22 I2 + white noise.

    The noise sample has variance (S_I / 2) / dt, the coarse-grained
    white-noise variance over an averaging window dt.
    """
    gen = _as_generator(stream)
    if isinstance(state, QuantumState):
        p1 = float(state.rho[0, 0].real)
    else:
        psi = np.asarray(state, dtype=complex).reshape(-1)
        norm2 = float(np.vdot(psi, psi).real)
        p1 = abs(psi[0]) ** 2 / norm2
    xi = math.sqrt(params.s_i / (2.0 * dt)) * gen.standard_normal()
    return p1 * params.i1 + (1.0 - p1) * params.i2 + xi


@dataclass(frozen=True)
class EvolvingResult:
    record: TrajectoryRecord
    psi: np.ndarray  # unnormalized, common factor exp(log_scale) removed
    extraction: KrausExtraction


def simulate_evolving_pure(
    psi_in,
    duration_tau: float,
    params: DetectorParams,
    config: TrajectoryConfig,
    stream,
) -> EvolvingResult:
    """Monitored evolution of a pure qubit state with Hamiltonian on.

    Integrates the linear (unnormalized) record-conditioned equations by
    symmetric splitting: half-step Hamiltonian unitary, exact one-step
    readout factor D = diag(e^{+dr/2}, e^{-dr/2}) built from the sampled
    record increment dr, half-step unitary.  The divergent squared
    white-noise constant drops out because only the ratio of the two
    amplitude decay factors enters; the discarded common factor is the
    tracked rescaling exp(log_scale).

    Only the feedback current is sequential: it needs the two mid-step
    amplitudes, which a scalar loop carries from step to step with the
    two half-step unitaries between steps fused into one.  The realized
    operator M = U_half D_{n-1} U_full ... U_full D_0 U_half is then one
    pairwise product of the stacked factors, and psi = M psi_in.
    """
    psi = np.asarray(psi_in, dtype=complex).reshape(2)
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-10:
        raise ValueError("psi_in must be normalized")
    if duration_tau <= 0.0:
        raise ValueError("duration_tau must be positive")
    gen = _as_generator(stream)

    dt = config.d_tau * params.t_m
    n_steps = int(round(duration_tau / config.d_tau))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")
    u_half = u2_exp(config.epsilon, config.coupling, 0.5 * dt)
    u_full = u_half @ u_half

    sigma_xi = math.sqrt(params.s_i / (2.0 * dt))
    xi = sigma_xi * gen.standard_normal(n_steps)
    gain = params.delta_i / params.s_i * dt
    # dr = base + slope * p1 for a state-1 population p1 at mid-step
    base = gain * (xi + (params.i2 - params.i0))
    slope = gain * params.delta_i

    (f00, f01), (f10, f11) = u_full.tolist()
    z0, z1 = (u_half @ psi).tolist()  # mid-step amplitudes of psi
    delta_r = []
    for b in base.tolist():
        a2 = z0.real * z0.real + z0.imag * z0.imag
        b2 = z1.real * z1.real + z1.imag * z1.imag
        norm2 = a2 + b2
        if not 1e-200 <= norm2 <= 1e200:
            # only population ratios enter the feedback
            s = 1.0 / math.sqrt(norm2)
            z0, z1, a2, b2, norm2 = z0 * s, z1 * s, a2 / norm2, b2 / norm2, 1.0
        dr = b + slope * a2 / norm2
        # one corrector pass: re-estimate the mid-step populations with half
        # the readout factor included, keeping the feedback current accurate
        # to second order in the step
        dr = b + slope * a2 / (a2 + b2 * math.exp(-dr))
        delta_r.append(dr)
        e = math.exp(0.5 * dr)
        z0, z1 = z0 * e, z1 / e
        z0, z1 = f00 * z0 + f01 * z1, f10 * z0 + f11 * z1

    delta_r = np.array(delta_r)
    half = 0.5 * delta_r
    stretch = np.stack([np.exp(half), np.exp(-half)], axis=1)[:, None, :]
    factors = np.empty((n_steps + 1, 2, 2), dtype=complex)
    factors[0] = u_half
    factors[1:-1] = u_full * stretch[:-1]  # U_full D_k scales the columns
    factors[-1] = u_half * stretch[-1]
    matrix, log_scale = _ordered_product(factors)

    r_path = np.concatenate([[0.0], np.cumsum(delta_r)])
    record = TrajectoryRecord(
        r_path=r_path, increments=delta_r, status="running", crossing_time=None
    )
    extraction = KrausExtraction.from_vectors(matrix[:, 0], matrix[:, 1], log_scale=log_scale)
    return EvolvingResult(record=record, psi=matrix @ psi, extraction=extraction)


def _ordered_product(factors: np.ndarray) -> tuple[np.ndarray, float]:
    """factors[-1] @ ... @ factors[0] as (matrix, log_scale), multiplied pairwise.

    Each level multiplies neighbouring pairs at once (an odd last factor
    waits for the next level); a product whose peak leaves [1e-100, 1e100]
    is divided by it and the log of the peak goes to log_scale.
    """
    log_scale = 0.0
    while len(factors) > 1:
        even = len(factors) & ~1
        paired = factors[1:even:2] @ factors[0:even:2]
        if even < len(factors):
            paired = np.concatenate((paired, factors[even:]))
        peak = np.abs(paired).max(axis=(1, 2))
        off = (peak > 1e100) | (peak < 1e-100)
        if off.any():
            paired[off] /= peak[off, None, None]
            log_scale += float(np.sum(np.log(peak[off])))
        factors = paired
    return factors[0], log_scale


def targeted_measurement(
    true_state: int, target_r: float, config: TrajectoryConfig, stream
) -> tuple[bool, float | None]:
    """Wait-and-stop readout that stops when the record reaches target_r.

    The record starts at 0; hitting the (nonzero) target realizes the
    diagonal operator diag(e^{target/2}, e^{-target/2}) exactly.  Whether
    and when the record arrives are drawn exactly (see ``_stop_times``).
    Returns (hit, waiting time in units of T_M).
    """
    if true_state not in (1, 2):
        raise ValueError("true_state must be 1 or 2")
    if target_r == 0.0:
        return True, 0.0
    gen = _as_generator(stream)
    sign = 1.0 if target_r > 0.0 else -1.0
    # fold onto the standard first passage: x = target - r, drift flips sign
    hits, _, times = _stop_times(gen, abs(target_r), -DRIFT[true_state] * sign, 1, config)
    return bool(hits), (float(times[0]) if hits else None)
