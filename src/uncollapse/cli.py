"""Command-line front end: configured runs, sweeps, analytics, selftest.

Configuration is a JSON document (key/value with nesting); flags override
environment variables (UNCOLLAPSE_* prefix), which override the file.
Every run echoes its fully resolved configuration next to the results,
and re-running from that echo reproduces the result files byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, acceptance, charge, evolving, linalg, measurement, multiqubit, phase, stats, trajectory

ENV_PREFIX = "UNCOLLAPSE_"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4

EVOLVING_MAX_D_TAU = 1e-3  # charge-evolving integrates at min(d_tau, this)
EVOLVING_MAX_STEPS = 10**6  # the integrator holds about 200 B per step
KINDS = ("charge-qnd", "charge-evolving", "charge-total", "phase", "multiqubit", "analytics")
STATE_PRESETS = {
    "plus": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "minus-i": np.array([1.0, -1.0j]) / math.sqrt(2.0),
    "one": np.array([1.0, 0.0]),
    "two": np.array([0.0, 1.0]),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "charge-qnd"
    seed: int = 1
    trajectories: int = 100_000
    workers: int = 1
    out: str = "results"
    format: str = "csv"
    d_tau: float = 0.05
    tau_max: float | None = None
    escape_radius: float | None = 6.0
    state: object = "plus"  # preset name, or {"rho": [[...], ...]}
    r0: float = 1.0
    duration_tau: float = 1.0
    detector: dict = field(default_factory=lambda: {"i1": 1.1, "i2": 0.9, "s_i": 0.04})
    epsilon: float = 0.0
    coupling: float = 1.0
    p_t: float = 0.5
    phi: float = 0.0
    gamma: float = 1.0
    n_qubits: int = 2
    r0_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    tau_grid_points: int = 200
    sweep_parameter: str | None = None
    sweep_values: tuple = ()

    def trajectory_config(self) -> trajectory.TrajectoryConfig:
        return trajectory.TrajectoryConfig(
            d_tau=self.d_tau,
            tau_max=self.tau_max,
            escape_radius=self.escape_radius,
            epsilon=self.epsilon,
            coupling=self.coupling,
        )

    def detector_params(self) -> charge.DetectorParams:
        d = self.detector
        try:
            return charge.DetectorParams(i1=float(d["i1"]), i2=float(d["i2"]), s_i=float(d["s_i"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"detector needs i1, i2, s_i: {exc}") from exc

    def initial_state(self) -> measurement.QuantumState:
        """The state a loaded configuration names; ``_check_state`` has read its shape."""
        if self.state == "mixed":
            return measurement.QuantumState.maximally_mixed(2)
        if isinstance(self.state, str):
            return measurement.QuantumState.from_ket(STATE_PRESETS[self.state])
        rho = np.array([[complex(*_pair(z)) for z in row] for row in self.state["rho"]])
        try:
            return measurement.QuantumState(rho=rho)
        except ValueError as exc:
            raise ConfigError(f"state is not a density matrix: {exc}") from exc


def _pair(z) -> tuple[float, float]:
    """A matrix entry, a number or an [re, im] pair, as (re, im)."""
    parts = z if isinstance(z, list) and len(z) == 2 else (z, 0.0)
    for x in parts:
        # the bound also rejects nan, inf and integers past the float range
        if isinstance(x, bool) or not isinstance(x, _NUMBER) or not abs(x) <= sys.float_info.max:
            raise ConfigError(f"state matrix entries must be finite numbers or [re, im] pairs, got {z!r}")
    return float(parts[0]), float(parts[1])


def _check_state(state) -> None:
    """A preset name, or {"rho": [[a, b], [c, d]]} whose entries ``_pair`` reads."""
    if isinstance(state, str):
        if state != "mixed" and state not in STATE_PRESETS:
            raise ConfigError(f"unknown state preset {state!r}")
        return
    rho = state.get("rho") if isinstance(state, dict) and state.keys() == {"rho"} else None
    if not (isinstance(rho, list) and len(rho) == 2 and all(isinstance(row, list) and len(row) == 2 for row in rho)):
        raise ConfigError(f"state must be a preset name or {{'rho': a 2x2 matrix}}, got {state!r}")
    for row in rho:
        for z in row:
            _pair(z)


_NUMBER = (int, float)
# the JSON values each field annotation accepts, and their name in errors;
# bool never counts as a number
_ACCEPTS = {
    "int": (int, "an integer"),
    "float": (_NUMBER, "a number"),
    "float | None": ((*_NUMBER, type(None)), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string"),
    "tuple": (tuple, "a list"),
    "dict": (dict, "an object"),
    "object": (object, "any value"),
}
_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_SWEEPABLE = ("r0", "duration_tau", "p_t", "phi", "gamma", "d_tau", "n_qubits", "trajectories")
_ENV_FIELDS = ("seed", "workers", "out", "format")

# untrusted sizes are bounded at config load, before anything is allocated
_SIZE_BOUNDS = {"trajectories": (1, 10**9), "tau_grid_points": (1, 1_000_000)}


def _cast(name: str):
    """The cast of a sweep value or an environment string to the field's type."""
    return {"int": int, "str": str}.get(_TYPES[name], float)


def _check_size(name: str, value: int) -> None:
    low, high = _SIZE_BOUNDS[name]
    if not low <= value <= high:
        raise ConfigError(f"{name} must be between {low} and {high}, got {value}")


def _check_value(name: str, value, annotation: str) -> None:
    allowed, what = _ACCEPTS[annotation]
    if not isinstance(value, allowed) or (isinstance(value, bool) and allowed is not object):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _check_types(cfg: ExperimentConfig) -> None:
    for name, annotation in _TYPES.items():
        _check_value(name, getattr(cfg, name), annotation)
    for k, value in enumerate(cfg.r0_grid):
        _check_value(f"r0_grid[{k}]", value, "float")
    if cfg.sweep_parameter in _SWEEPABLE:
        for k, value in enumerate(cfg.sweep_values):
            _check_value(f"sweep_values[{k}]", value, _TYPES[cfg.sweep_parameter])
            if cfg.sweep_parameter in _SIZE_BOUNDS:
                _check_size(cfg.sweep_parameter, value)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(data) - set(_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**{
        key: tuple(value) if _TYPES[key] == "tuple" and isinstance(value, list) else value
        for key, value in data.items()
    })
    _check_types(cfg)
    if cfg.kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {cfg.kind!r}")
    for name in _SIZE_BOUNDS:
        _check_size(name, getattr(cfg, name))
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    _check_state(cfg.state)
    _check_point(cfg)
    if cfg.sweep_parameter in _SWEEPABLE:
        # every point is checked before the first one runs
        for index, (raw, point) in enumerate(_sweep_points(cfg)):
            try:
                _check_point(point)
            except ConfigError as exc:
                raise ConfigError(f"sweep_values[{index}] = {raw!r}: {exc}") from exc
    return cfg


def _check_point(cfg: ExperimentConfig) -> None:
    """Checks of one runnable configuration that depend on its values."""
    try:
        cfg.trajectory_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.kind == "multiqubit":
        if not cfg.gamma > 0.0:
            raise ConfigError("gamma must be positive")
        if not 1 <= cfg.n_qubits <= 6:
            raise ConfigError("n_qubits must be between 1 and 6")
    elif cfg.kind == "phase":
        try:
            phase.PhaseMeasurementParams(p_t=cfg.p_t, phi=cfg.phi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif cfg.kind in ("charge-total", "charge-evolving") and not cfg.duration_tau > 0.0:
        raise ConfigError("duration_tau must be positive")
    elif cfg.kind == "charge-evolving":
        steps = cfg.duration_tau / min(cfg.d_tau, EVOLVING_MAX_D_TAU)
        if math.isinf(steps) or round(steps) > EVOLVING_MAX_STEPS:
            raise ConfigError(f"duration_tau needs more than {EVOLVING_MAX_STEPS} integrator steps")
        if round(steps) < 1:
            raise ConfigError("duration_tau is shorter than one integrator step")


def _sweep_points(cfg: ExperimentConfig):
    """Each sweep value with the plain configuration that runs it."""
    cast = _cast(cfg.sweep_parameter)
    for index, raw in enumerate(cfg.sweep_values):
        yield raw, replace(
            cfg,
            **{cfg.sweep_parameter: cast(raw)},
            seed=trajectory._derive(cfg.seed, index),
            sweep_parameter=None,
            sweep_values=(),
        )


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    for name in _ENV_FIELDS:
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                data[name] = _cast(name)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad {ENV_PREFIX}{name.upper()}: {raw!r}") from exc
    for name, value in overrides.items():
        if value is not None:
            data[name] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# experiments (uniform Row output)


def run_charge_qnd(cfg: ExperimentConfig) -> list[stats.Row]:
    state = cfg.initial_state()
    ens = trajectory.wait_and_stop_ensemble(
        state, cfg.r0, cfg.trajectories, cfg.trajectory_config(), cfg.seed,
        collect_times=True, workers=cfg.workers,
    )
    ref = charge.uncollapse_success_probability(state, cfg.r0)
    rows = [stats.interval_row("success_rate", ens.successes, ens.n, ref)]
    if ens.waiting_times is not None and ens.waiting_times.size:
        # the law's standard deviation sqrt(|r0|): at small r0 the mean comes
        # from rare long waits, which a sample's own spread misses
        sd = math.sqrt(abs(cfg.r0))
        rows.append(stats.mean_row("mean_waiting_time", ens.waiting_times, abs(cfg.r0), sd))
    rows.append(stats.tolerance_row("residual_success_bound", ens.residual_success_bound / ens.n, 1e-4))
    return rows


def run_charge_total(cfg: ExperimentConfig) -> list[stats.Row]:
    state = cfg.initial_state()
    hits = trajectory.sample_total_uncollapse(
        state, cfg.duration_tau, cfg.trajectories, cfg.seed, workers=cfg.workers
    )
    ref = float(charge.total_success_probability(cfg.duration_tau))
    return [stats.interval_row("total_success_rate", hits, cfg.trajectories, ref)]


def run_charge_evolving(cfg: ExperimentConfig) -> list[stats.Row]:
    state = cfg.initial_state()
    # an explicit rho carries no purity flag, so purity is read off the matrix
    if abs(state.purity() - 1.0) > measurement.PURITY_TOL:
        raise ConfigError("charge-evolving runs need a pure initial state")
    psi_in = np.linalg.eigh(state.rho).eigenvectors[:, -1]
    params = cfg.detector_params()
    sim_cfg = cfg.trajectory_config()
    sim = trajectory.simulate_evolving_pure(
        psi_in, cfg.duration_tau, params, replace(sim_cfg, d_tau=min(sim_cfg.d_tau, EVOLVING_MAX_D_TAU)),
        trajectory.NoiseStream(cfg.seed, 0),
    )
    plan = evolving.plan_from_kraus(sim.extraction, choice=1)
    psi_m = sim.psi / np.linalg.norm(sim.psi)
    bound = evolving.success_bound(sim.extraction, state)
    walk_cfg = replace(sim_cfg, epsilon=0.0, coupling=0.0)
    hits = evolving.plan_execution_ensemble(
        plan, psi_m, cfg.trajectories, walk_cfg, trajectory._derive(cfg.seed, 1), workers=cfg.workers
    )
    rows = [stats.interval_row("success_rate", hits, cfg.trajectories, bound)]
    gap = abs(evolving.plan_success_probability(plan, psi_m) - bound)
    rows.append(stats.tolerance_row("plan_vs_bound", gap, 1e-10))
    rows.append(stats.Row(label="readout_target", value=plan.target_r, reference=plan.target_r, within=True))
    return rows


def run_phase(cfg: ExperimentConfig) -> list[stats.Row]:
    state = cfg.initial_state()
    params = phase.PhaseMeasurementParams(p_t=cfg.p_t, phi=cfg.phi)
    nulls, successes = phase.protocol_ensemble(state, params, cfg.trajectories, cfg.seed)
    ref = phase.success_probability(state, params)
    rows = []
    if nulls == 0:
        raise measurement.ImpossibleOutcomeError("no null results observed; p_t too strong for this state")
    rows.append(stats.interval_row("success_rate_given_null", successes, nulls, ref))
    rows.append(
        stats.interval_row("joint_success_rate", successes, cfg.trajectories, phase.joint_success(params))
    )
    return rows


def run_multiqubit(cfg: ExperimentConfig) -> list[stats.Row]:
    dim = 2**cfg.n_qubits
    rng = trajectory.NoiseStream(cfg.seed, 0).generator()
    op = measurement.random_invertible_kraus(rng, dim)
    plan = multiqubit.build_plan(op, gamma=cfg.gamma)
    psi_in = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = op.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    ref = multiqubit.success_probability(plan, psi_m)
    trace_form, normalized_form = multiqubit.stepwise_probabilities(plan, psi_m)
    ens = multiqubit.protocol_ensemble(
        plan, psi_m, cfg.trajectories, trajectory.NoiseStream(trajectory._derive(cfg.seed, 2), 0)
    )
    rows = [stats.interval_row("success_rate", ens.successes, ens.n, ref)]
    agreement = float(np.max(np.abs(trace_form - normalized_form)))
    rows.append(stats.tolerance_row("stepwise_agreement", agreement, 1e-12))
    restore = linalg.max_abs(np.outer(ens.restored, ens.restored.conj()) - np.outer(psi_in, psi_in.conj()))
    rows.append(stats.tolerance_row("restoration_error", restore, 1e-9))
    return rows


def run_analytics(cfg: ExperimentConfig) -> tuple[list[stats.Row], list[tuple]]:
    """Plot-ready waiting-time curves, as (r0, tau, pdf, cdf) points, plus their moments."""
    rows = []
    curves = []
    for r0 in cfg.r0_grid:
        mean, std, mode = charge.waiting_time_moments(r0)
        rows.append(stats.Row(label=f"mean r0={r0}", value=mean, reference=mean, within=True))
        rows.append(stats.Row(label=f"std r0={r0}", value=std, reference=std, within=True))
        rows.append(stats.Row(label=f"mode r0={r0}", value=mode, reference=mode, within=True))
        hi = mean + 6.0 * std + 1.0
        taus = np.linspace(hi / cfg.tau_grid_points, hi, cfg.tau_grid_points)
        pdf = charge.waiting_time_pdf(taus, r0)
        cdf = charge.waiting_time_cdf(taus, r0)
        for t, p, c in zip(taus, pdf, cdf):
            curves.append((float(r0), float(t), float(p), float(c)))
    return rows, curves


# ---------------------------------------------------------------------------
# output plumbing


def _write_outputs(cfg: ExperimentConfig, rows: list[stats.Row], curves: list[tuple] | None = None) -> bool:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # a shallow field dict: asdict would deep-copy every value for the same bytes
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    (out / "effective_config.json").write_text(stats.json_text(echo))
    summary = {
        "version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "passed": all(r.within for r in rows),
        "rows": [r.as_record() for r in rows],
    }
    (out / "summary.json").write_text(stats.json_text(summary))
    if cfg.format == "csv":
        (out / "results.csv").write_text(stats.csv_text(stats.ROW_HEADER, (r.csv_cells() for r in rows)))
    if curves is not None:
        (out / "curves.csv").write_text(stats.csv_text(("r0", "tau", "pdf", "cdf"), curves))
    return bool(summary["passed"])


_RUNNERS = {
    "charge-qnd": run_charge_qnd,
    "charge-total": run_charge_total,
    "charge-evolving": run_charge_evolving,
    "phase": run_phase,
    "multiqubit": run_multiqubit,
}


def run_sweep(cfg: ExperimentConfig) -> list[stats.Row]:
    if cfg.sweep_parameter is None:
        raise ConfigError("sweep needs sweep_parameter and sweep_values")
    if cfg.sweep_parameter not in _SWEEPABLE:
        raise ConfigError(
            f"sweep_parameter must be one of {sorted(_SWEEPABLE)}, got {cfg.sweep_parameter!r}"
        )
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"sweep base kind must be one of {sorted(_RUNNERS)}")
    rows: list[stats.Row] = []
    for raw, point in _sweep_points(cfg):
        rows.extend(
            replace(row, label=f"{cfg.sweep_parameter}={raw} {row.label}")
            for row in _RUNNERS[point.kind](point)
        )
    return rows


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncollapse",
        description="Simulate generalized qubit measurements and undo them.",
    )
    parser.add_argument("--version", action="version", version=f"uncollapse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)

    run_p = sub.add_parser("run", help="run one configured experiment")
    common(run_p)
    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    common(sweep_p)
    ana_p = sub.add_parser("analytics", help="emit waiting-time curves and moments")
    common(ana_p)
    self_p = sub.add_parser("selftest", help="run the acceptance suite")
    common(self_p)
    self_p.add_argument("--scale", type=float, default=1.0, help="ensemble-size multiplier")
    self_p.add_argument("--criteria", default=None, help="comma list, e.g. 1,2,9")
    return parser


def _selftest(cfg: ExperimentConfig, scale: float, criteria: str | None) -> int:
    # criterion 2's ensemble, the largest, holds about 4.4e5 * scale walkers
    if not 0.0 < scale <= 1000.0:
        raise ConfigError(f"--scale must lie in (0, 1000], got {scale!r}")
    indices = None
    if criteria:
        try:
            indices = tuple(int(tok) for tok in criteria.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --criteria list: {criteria!r}") from exc
        if any(i < 1 or i > 10 for i in indices):
            raise ConfigError("criteria indices must be in 1..10")
    results = acceptance.run_acceptance(seed=cfg.seed, scale=scale, workers=cfg.workers, indices=indices)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.index}: {r.name} ({r.runtime_s:.1f}s)")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "acceptance.json").write_text(acceptance.render_acceptance_json(results, cfg.seed, scale))
    (out / "acceptance.csv").write_text(acceptance.render_acceptance_csv(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "workers": args.workers,
        "out": args.out,
        "format": args.format,
    }
    try:
        path = args.config if args.config is not None else os.environ.get(ENV_PREFIX + "CONFIG")
        cfg = load_config(path, overrides)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "selftest":
            return _selftest(cfg, args.scale, args.criteria)
        if args.command == "analytics" or args.command == "run" and cfg.kind == "analytics":
            _write_outputs(cfg, *run_analytics(cfg))
        else:
            _write_outputs(cfg, run_sweep(cfg) if args.command == "sweep" else _RUNNERS[cfg.kind](cfg))
        return EXIT_OK
    except (
        measurement.ImpossibleOutcomeError,
        measurement.UncollapseImpossibleError,
        FloatingPointError,
        OverflowError,
        ZeroDivisionError,
    ) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # after the numeric handler: the two impossibility errors are ValueErrors too
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
