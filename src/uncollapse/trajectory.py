"""Stochastic simulation of continuous qubit readout records.

The engine samples detector records, evolves the monitored qubit, and
executes wait-and-stop measurement reversal.  Noise comes from
counter-based Philox streams addressed by (seed, stream index), so any
run is reproducible and ensembles can be fanned out deterministically:
walkers are processed in fixed-size blocks, block b consuming stream
(seed, b), which makes results byte-identical for any worker count.

Dimensionless units throughout: time in units of the measurement time
T_M, so the readout r performs a random walk with diffusion 1/2 and
drift +1 or -1 depending on the qubit basis state.  Crossing detection
uses exact Gaussian increments plus the exact Brownian-bridge crossing
probability exp(-2 x_a x_b / dtau) inside each step, so first-passage
*probabilities* carry no time-step bias at any dtau; only the recorded
crossing times are quantized at the step scale.

One kernel, ``_walk``, runs every absorbing walk, single or ensemble.  It
steps in time chunks of k = min(max(1, 4096 // live), steps left) steps
for all live walkers at once: a lone walker draws 4096 steps per chunk, a
crowd of 4096 or more one step, and a thinning tail ever longer chunks.

Reversal ensembles and ``targeted_measurement`` never walk a walker that
drifts away from the boundary: its fate is drawn once against its
crossing probability exp(-2|x0|), and the crossers walk with the drift
reversed, which is their exact conditioned law (Doob's h-transform).
Only ``run_first_passage_ensemble`` and ``simulate_qnd`` (hence the
single-trajectory ``wait_and_stop``) walk the raw drift.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple
from concurrent.futures import ProcessPoolExecutor

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
    Reversal ensembles and ``targeted_measurement`` draw the away-drift
    fate exactly and walk only toward the boundary, so they forfeit
    nothing to it; their only declared failure is ``tau_max``, which
    defaults to 100 * (|r0| + 1) when not set.
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


def _walk(gen: np.random.Generator, x0: float, drift: float, count: int, config: TrajectoryConfig,
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
    drift -v (Doob's h-transform, h(x) = exp(-2 v x)), so the crossers walk
    with the reversed drift and P(T < tau_max) = exp(-2 v x0) P_{-v}(T < tau_max).
    """
    if drift <= 0.0:
        return count, drift
    p_cross = math.exp(-2.0 * drift * x0)
    return int(np.count_nonzero(gen.random(count) < p_cross)), -drift


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
    walk = _walk(gen, abs(r_start), DRIFT[true_state] * sign, 1, config, collect_times=True, keep_path=True)
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


@dataclass(frozen=True)
class FirstPassageEnsemble:
    n: int
    crossed: int
    escaped: int
    timed_out: int
    crossing_times: np.ndarray | None
    residual_crossing_bound: float  # upper bound on crossings forfeited by cutoffs


def _first_passage_block(args):
    x0, drift, count, config, seed, index, collect_times = args
    gen = NoiseStream(seed, index).generator()
    return _walk(gen, x0, drift, count, config, collect_times)[:5]


def _run_blocks(block_fn, args_list, workers: int):
    workers = min(workers, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [block_fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block_fn, args_list))


def _block_sizes(n: int) -> list[int]:
    full, rest = divmod(n, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


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
    """Absorbing random walks from x0 > 0 toward 0 with drift +-1.

    Walkers run in fixed blocks, block b on noise stream (seed,
    stream_offset + b); results are identical for any worker count.
    """
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    args = [
        (x0, drift, size, config, seed, stream_offset + b, collect_times)
        for b, size in enumerate(_block_sizes(n))
    ]
    parts = _run_blocks(_first_passage_block, args, workers)
    crossed = sum(p[0] for p in parts)
    escaped = sum(p[1] for p in parts)
    timed_out = sum(p[2] for p in parts)
    times = np.concatenate([p[3] for p in parts]) if collect_times else None
    residual = float(sum(p[4] for p in parts))
    return FirstPassageEnsemble(
        n=n, crossed=crossed, escaped=escaped, timed_out=timed_out,
        crossing_times=times, residual_crossing_bound=residual,
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


def _wait_and_stop_block(args):
    p2, r0, count, config, seed, index, collect_times = args
    gen = NoiseStream(seed, index).generator()
    n2 = int(np.count_nonzero(gen.random(count) < p2))
    n1 = count - n2
    sign = 1.0 if r0 > 0.0 else -1.0
    crossed, timed_out, times = 0, 0, [np.empty(0)]
    for group_count, true_state in ((n1, 1), (n2, 2)):
        walkers, drift = _crossers(gen, abs(r0), DRIFT[true_state] * sign, group_count)
        if walkers:
            walk = _walk(gen, abs(r0), drift, walkers, config, collect_times)
            crossed += walk.crossed
            timed_out += walk.timed_out
            times.append(walk.times)
    return crossed, n1, np.concatenate(times), timed_out


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

    Per block, the true bit of each walker is sampled from the updated
    populations, then both drift groups run on the block's stream; the
    group drifting away from 0 walks only its crossers (see ``_crossers``).
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
    posterior = qnd_posterior(state, r0)
    p2 = float(posterior.rho[1, 1].real)
    args = [
        (p2, r0, size, config, seed, stream_offset + b, collect_times)
        for b, size in enumerate(_block_sizes(n))
    ]
    parts = _run_blocks(_wait_and_stop_block, args, workers)
    successes = sum(p[0] for p in parts)
    state1 = sum(p[1] for p in parts)
    times = np.concatenate([p[2] for p in parts]) if collect_times else None
    timed_out = sum(p[3] for p in parts)
    return WaitAndStopEnsemble(
        n=n, successes=successes, state1_count=state1,
        waiting_times=times, timed_out=timed_out,
    )


def _targeted_block(args):
    p_state1, target_r, count, config, seed, index = args
    gen = NoiseStream(seed, index).generator()
    n1 = int(np.count_nonzero(gen.random(count) < p_state1))
    n2 = count - n1
    sign = 1.0 if target_r > 0.0 else -1.0
    hits = 0
    for group_count, true_state in ((n1, 1), (n2, 2)):
        walkers, drift = _crossers(gen, abs(target_r), -DRIFT[true_state] * sign, group_count)
        if walkers:
            hits += _walk(gen, abs(target_r), drift, walkers, config).crossed
    return hits


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

    Each run's true bit is 1 with probability p_state1; the walk drifts
    toward the target for one bit value and away for the other, and only
    the away runs bound to arrive are walked (see ``_crossers``).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if target_r == 0.0:
        return n
    args = [
        (p_state1, target_r, size, config, seed, stream_offset + b)
        for b, size in enumerate(_block_sizes(n))
    ]
    parts = _run_blocks(_targeted_block, args, workers)
    return int(sum(parts))


def _total_uncollapse_block(args):
    p2, tau1, count, seed, index = args
    gen = NoiseStream(seed, index).generator()
    bits2 = gen.random(count) < p2
    drift = np.where(bits2, -1.0, 1.0)
    r0 = drift * tau1 + math.sqrt(tau1) * gen.standard_normal(count)
    away = drift * r0 > 0.0
    p_cross = np.where(away, np.exp(-2.0 * np.abs(r0)), 1.0)
    return int(np.count_nonzero(gen.random(count) < p_cross))


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
    args = [
        (p2, tau1, size, seed, stream_offset + b) for b, size in enumerate(_block_sizes(n))
    ]
    parts = _run_blocks(_total_uncollapse_block, args, workers)
    return int(sum(parts))


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
    readout factor diag(e^{+dr/2}, e^{-dr/2}) built from the sampled
    record increment dr, half-step unitary.  The two basis states are
    propagated alongside psi with the same noise, which yields the
    realized measurement operator of the record.  The divergent squared
    white-noise constant drops out because only the ratio of the two
    amplitude decay factors enters; the discarded common factor is the
    tracked rescaling.
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

    sigma_xi = math.sqrt(params.s_i / (2.0 * dt))
    xi = sigma_xi * gen.standard_normal(n_steps)
    gain = params.delta_i / params.s_i * dt

    # columns: psi, image of |1>, image of |2>
    y = np.column_stack([psi, np.eye(2, dtype=complex)])
    log_scale = 0.0
    delta_r = np.empty(n_steps)
    for k in range(n_steps):
        y = u_half @ y
        a2 = abs(y[0, 0]) ** 2
        b2 = abs(y[1, 0]) ** 2
        p1 = a2 / (a2 + b2)
        # one corrector pass: re-estimate the mid-step populations with half
        # the readout factor included, keeping the feedback current accurate
        # to second order in the step
        for _ in range(2):
            current = p1 * params.i1 + (1.0 - p1) * params.i2 + xi[k]
            dr = gain * (current - params.i0)
            w = a2 * math.exp(0.5 * dr)
            p1 = w / (w + b2 * math.exp(-0.5 * dr))
        delta_r[k] = dr
        half = 0.5 * dr
        y[0, :] *= math.exp(half)
        y[1, :] *= math.exp(-half)
        y = u_half @ y
        peak = np.max(np.abs(y))
        if peak > 1e100 or peak < 1e-100:
            y /= peak
            log_scale += math.log(peak)

    r_path = np.concatenate([[0.0], np.cumsum(delta_r)])
    record = TrajectoryRecord(
        r_path=r_path, increments=delta_r, status="running", crossing_time=None
    )
    extraction = KrausExtraction.from_vectors(y[:, 1], y[:, 2], log_scale=log_scale)
    return EvolvingResult(record=record, psi=y[:, 0].copy(), extraction=extraction)


def targeted_measurement(
    true_state: int, target_r: float, config: TrajectoryConfig, stream
) -> tuple[bool, float | None]:
    """Wait-and-stop readout that stops when the record reaches target_r.

    The record starts at 0; hitting the (nonzero) target realizes the
    diagonal operator diag(e^{target/2}, e^{-target/2}) exactly.  Against
    the drift, whether the record ever arrives is drawn once and only an
    arriving record is walked (see ``_crossers``).  Returns (hit, waiting
    time in units of T_M).
    """
    if true_state not in (1, 2):
        raise ValueError("true_state must be 1 or 2")
    if target_r == 0.0:
        return True, 0.0
    gen = _as_generator(stream)
    sign = 1.0 if target_r > 0.0 else -1.0
    # fold onto the standard absorbing walk: x = target - r, drift flips sign
    walkers, drift = _crossers(gen, abs(target_r), -DRIFT[true_state] * sign, 1)
    if not walkers:
        return False, None
    walk = _walk(gen, abs(target_r), drift, 1, config, collect_times=True)
    return bool(walk.crossed), (float(walk.times[0]) if walk.crossed else None)
