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
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import (
    Row,
    _derive,
    _interval_row,
    _mean_row,
    _tolerance_row,
    render_acceptance_csv,
    render_acceptance_json,
    run_acceptance,
)
from .charge import (
    DetectorParams,
    total_success_probability,
    uncollapse_success_probability,
    waiting_time_cdf,
    waiting_time_moments,
    waiting_time_pdf,
)
from .evolving import plan_from_kraus, plan_success_probability, success_bound, plan_execution_ensemble
from .linalg import max_abs
from .measurement import (
    ImpossibleOutcomeError,
    QuantumState,
    UncollapseImpossibleError,
    polar_decompose,
    random_invertible_kraus,
)
from .multiqubit import build_plan, stepwise_probabilities
from .multiqubit import protocol_ensemble as multiqubit_ensemble
from .multiqubit import success_probability as multiqubit_success_probability
from .phase import PhaseMeasurementParams, protocol_ensemble
from .phase import joint_success as phase_joint_success
from .phase import success_probability as phase_success_probability
from .trajectory import (
    NoiseStream,
    TrajectoryConfig,
    sample_total_uncollapse,
    simulate_evolving_pure,
    wait_and_stop_ensemble,
)

ENV_PREFIX = "UNCOLLAPSE_"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4

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

    def trajectory_config(self) -> TrajectoryConfig:
        return TrajectoryConfig(
            d_tau=self.d_tau,
            tau_max=self.tau_max,
            escape_radius=self.escape_radius,
            epsilon=self.epsilon,
            coupling=self.coupling,
        )

    def detector_params(self) -> DetectorParams:
        d = self.detector
        try:
            return DetectorParams(i1=float(d["i1"]), i2=float(d["i2"]), s_i=float(d["s_i"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"detector needs i1, i2, s_i: {exc}") from exc

    def initial_state(self) -> QuantumState:
        if isinstance(self.state, str):
            if self.state == "mixed":
                return QuantumState.maximally_mixed(2)
            if self.state in STATE_PRESETS:
                return QuantumState.from_ket(STATE_PRESETS[self.state])
            raise ConfigError(f"unknown state preset {self.state!r}")
        if isinstance(self.state, dict) and "rho" in self.state:
            rho = np.array([[complex(*_pair(z)) for z in row] for row in self.state["rho"]])
            try:
                return QuantumState(rho=rho)
            except ValueError as exc:
                raise ConfigError(f"invalid explicit state: {exc}") from exc
        raise ConfigError("state must be a preset name or {'rho': [[...]]}")


def _pair(z):
    if isinstance(z, (int, float)):
        return (float(z), 0.0)
    if isinstance(z, (list, tuple)) and len(z) == 2:
        return (float(z[0]), float(z[1]))
    raise ConfigError(f"matrix entries must be numbers or [re, im] pairs, got {z!r}")


_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}
_NUMBER = (int, float)
# the JSON values each numeric field accepts; bool never counts as a number
_NUMBER_TYPES = {
    "seed": int, "trajectories": int, "workers": int, "n_qubits": int, "tau_grid_points": int,
    "d_tau": _NUMBER, "tau_max": (*_NUMBER, type(None)), "escape_radius": (*_NUMBER, type(None)),
    "r0": _NUMBER, "duration_tau": _NUMBER, "epsilon": _NUMBER, "coupling": _NUMBER,
    "p_t": _NUMBER, "phi": _NUMBER, "gamma": _NUMBER,
}
# sweepable fields and the cast of their values; int fields take integers only
_SWEEPABLE = {
    "r0": float,
    "duration_tau": float,
    "p_t": float,
    "phi": float,
    "gamma": float,
    "d_tau": float,
    "n_qubits": int,
    "trajectories": int,
}

_STRING_FIELDS = ("kind", "out", "format", "sweep_parameter")

# untrusted sizes are bounded at config load, before anything is allocated
_SIZE_BOUNDS = {"trajectories": (1, 10**9), "tau_grid_points": (1, 1_000_000)}


def _check_size(name: str, value: int) -> None:
    low, high = _SIZE_BOUNDS[name]
    if not low <= value <= high:
        raise ConfigError(f"{name} must be between {low} and {high}, got {value}")


def _check_number(name: str, value, allowed) -> None:
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be {'an integer' if allowed is int else 'a number'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _check_types(cfg: ExperimentConfig) -> None:
    for name, allowed in _NUMBER_TYPES.items():
        _check_number(name, getattr(cfg, name), allowed)
    for name in _STRING_FIELDS:
        value = getattr(cfg, name)
        if not isinstance(value, str) and not (name == "sweep_parameter" and value is None):
            raise ConfigError(f"{name} must be a string, got {value!r}")
    for name in ("r0_grid", "sweep_values"):
        if not isinstance(getattr(cfg, name), tuple):
            raise ConfigError(f"{name} must be a list, got {getattr(cfg, name)!r}")
    for k, value in enumerate(cfg.r0_grid):
        _check_number(f"r0_grid[{k}]", value, _NUMBER)
    if cfg.sweep_parameter in _SWEEPABLE:
        allowed = int if _SWEEPABLE[cfg.sweep_parameter] is int else _NUMBER
        for k, value in enumerate(cfg.sweep_values):
            _check_number(f"sweep_values[{k}]", value, allowed)
            if cfg.sweep_parameter in _SIZE_BOUNDS:
                _check_size(cfg.sweep_parameter, value)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    coerced = {}
    for key, value in data.items():
        if key in ("r0_grid", "sweep_values") and isinstance(value, list):
            value = tuple(value)
        coerced[key] = value
    cfg = ExperimentConfig(**coerced)
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
    try:
        cfg.trajectory_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.kind == "multiqubit":
        _check_multiqubit(cfg)
    return cfg


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    env_map = {
        "seed": int,
        "workers": int,
        "out": str,
        "format": str,
    }
    for name, cast in env_map.items():
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                data[name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad {ENV_PREFIX}{name.upper()}: {raw!r}") from exc
    for name, value in overrides.items():
        if value is not None:
            data[name] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# experiments (uniform Row output)


def run_charge_qnd(cfg: ExperimentConfig) -> list[Row]:
    state = cfg.initial_state()
    ens = wait_and_stop_ensemble(
        state, cfg.r0, cfg.trajectories, cfg.trajectory_config(), cfg.seed,
        collect_times=True, workers=cfg.workers,
    )
    ref = uncollapse_success_probability(state, cfg.r0)
    rows = [_interval_row("success_rate", ens.successes, ens.n, ref)]
    if ens.waiting_times is not None and ens.waiting_times.size:
        # the law's standard deviation sqrt(|r0|): at small r0 the mean comes
        # from rare long waits, which a sample's own spread misses
        rows.append(_mean_row("mean_waiting_time", ens.waiting_times, abs(cfg.r0), math.sqrt(abs(cfg.r0))))
    rows.append(_tolerance_row("residual_success_bound", ens.residual_success_bound / ens.n, 1e-4))
    return rows


def run_charge_total(cfg: ExperimentConfig) -> list[Row]:
    state = cfg.initial_state()
    hits = sample_total_uncollapse(
        state, cfg.duration_tau, cfg.trajectories, cfg.seed, workers=cfg.workers
    )
    ref = float(total_success_probability(cfg.duration_tau))
    return [_interval_row("total_success_rate", hits, cfg.trajectories, ref)]


def run_charge_evolving(cfg: ExperimentConfig) -> list[Row]:
    state = cfg.initial_state()
    if not state.pure:
        raise ConfigError("charge-evolving runs need a pure initial state")
    psi_in = np.linalg.eigh(state.rho).eigenvectors[:, -1]
    params = cfg.detector_params()
    sim_cfg = cfg.trajectory_config()
    sim = simulate_evolving_pure(
        psi_in, cfg.duration_tau, params, replace(sim_cfg, d_tau=min(sim_cfg.d_tau, 1e-3)),
        NoiseStream(cfg.seed, 0),
    )
    plan = plan_from_kraus(sim.extraction, choice=1)
    psi_m = sim.psi / np.linalg.norm(sim.psi)
    bound = success_bound(sim.extraction, state)
    walk_cfg = replace(sim_cfg, epsilon=0.0, coupling=0.0)
    hits = plan_execution_ensemble(
        plan, psi_m, cfg.trajectories, walk_cfg, _derive(cfg.seed, 1), workers=cfg.workers
    )
    rows = [_interval_row("success_rate", hits, cfg.trajectories, bound)]
    rows.append(_tolerance_row("plan_vs_bound", abs(plan_success_probability(plan, psi_m) - bound), 1e-10))
    rows.append(Row(label="readout_target", value=plan.target_r, reference=plan.target_r, within=True))
    return rows


def run_phase(cfg: ExperimentConfig) -> list[Row]:
    state = cfg.initial_state()
    params = PhaseMeasurementParams(p_t=cfg.p_t, phi=cfg.phi)
    nulls, successes = protocol_ensemble(state, params, cfg.trajectories, cfg.seed)
    ref = phase_success_probability(state, params)
    rows = []
    if nulls == 0:
        raise ImpossibleOutcomeError("no null results observed; p_t too strong for this state")
    rows.append(_interval_row("success_rate_given_null", successes, nulls, ref))
    rows.append(
        _interval_row("joint_success_rate", successes, cfg.trajectories, phase_joint_success(params))
    )
    return rows


def _check_multiqubit(cfg: ExperimentConfig) -> None:
    if not cfg.gamma > 0.0:
        raise ConfigError("gamma must be positive")
    if not 1 <= cfg.n_qubits <= 6:
        raise ConfigError("n_qubits must be between 1 and 6")


def run_multiqubit(cfg: ExperimentConfig) -> list[Row]:
    _check_multiqubit(cfg)
    dim = 2**cfg.n_qubits
    rng = NoiseStream(cfg.seed, 0).generator()
    op = random_invertible_kraus(rng, dim)
    plan = build_plan(op, gamma=cfg.gamma)
    psi_in = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi_in /= np.linalg.norm(psi_in)
    psi_m = op.matrix @ psi_in
    psi_m /= np.linalg.norm(psi_m)
    psi_t = polar_decompose(op).unitary.conj().T @ psi_m
    ref = multiqubit_success_probability(plan, psi_t)
    trace_form, normalized_form = stepwise_probabilities(plan, psi_t)
    ens = multiqubit_ensemble(
        plan, psi_t, cfg.trajectories, NoiseStream(_derive(cfg.seed, 2), 0)
    )
    rows = [_interval_row("success_rate", ens.successes, ens.n, ref)]
    agreement = float(np.max(np.abs(trace_form - normalized_form)))
    rows.append(_tolerance_row("stepwise_agreement", agreement, 1e-12))
    restore = max_abs(np.outer(ens.restored, ens.restored.conj()) - np.outer(psi_in, psi_in.conj()))
    rows.append(_tolerance_row("restoration_error", restore, 1e-9))
    return rows


def run_analytics(cfg: ExperimentConfig) -> tuple[list[Row], list[dict]]:
    """Plot-ready waiting-time curves plus their moments."""
    rows = []
    curves = []
    for r0 in cfg.r0_grid:
        mean, std, mode = waiting_time_moments(r0)
        rows.append(Row(label=f"mean r0={r0}", value=mean, reference=mean, within=True))
        rows.append(Row(label=f"std r0={r0}", value=std, reference=std, within=True))
        rows.append(Row(label=f"mode r0={r0}", value=mode, reference=mode, within=True))
        hi = mean + 6.0 * std + 1.0
        taus = np.linspace(hi / cfg.tau_grid_points, hi, cfg.tau_grid_points)
        pdf = waiting_time_pdf(taus, r0)
        cdf = waiting_time_cdf(taus, r0)
        for t, p, c in zip(taus, pdf, cdf):
            curves.append({"r0": r0, "tau": float(t), "pdf": float(p), "cdf": float(c)})
    return rows, curves


# ---------------------------------------------------------------------------
# output plumbing


def _rows_csv(rows: list[Row]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "value", "ci_low", "ci_high", "reference", "within"])
    writer.writerows(r.csv_cells() for r in rows)
    return buf.getvalue()


def _curves_csv(curves: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r0", "tau", "pdf", "cdf"])
    for c in curves:
        writer.writerow(
            [repr(float(c["r0"])), repr(float(c["tau"])), repr(float(c["pdf"])), repr(float(c["cdf"]))]
        )
    return buf.getvalue()


def _write_outputs(cfg: ExperimentConfig, rows: list[Row], curves: list[dict] | None = None) -> bool:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.json").write_text(
        json.dumps(asdict(cfg), indent=2, sort_keys=True, default=list) + "\n"
    )
    summary = {
        "version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "passed": all(r.within for r in rows),
        "rows": [r.as_record() for r in rows],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.format == "csv":
        (out / "results.csv").write_text(_rows_csv(rows))
    if curves is not None:
        (out / "curves.csv").write_text(_curves_csv(curves))
    return bool(summary["passed"])


_RUNNERS = {
    "charge-qnd": run_charge_qnd,
    "charge-total": run_charge_total,
    "charge-evolving": run_charge_evolving,
    "phase": run_phase,
    "multiqubit": run_multiqubit,
}


def run_sweep(cfg: ExperimentConfig) -> list[Row]:
    if cfg.sweep_parameter is None:
        raise ConfigError("sweep needs sweep_parameter and sweep_values")
    if cfg.sweep_parameter not in _SWEEPABLE:
        raise ConfigError(
            f"sweep_parameter must be one of {sorted(_SWEEPABLE)}, got {cfg.sweep_parameter!r}"
        )
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"sweep base kind must be one of {sorted(_RUNNERS)}")
    cast = _SWEEPABLE[cfg.sweep_parameter]
    rows: list[Row] = []
    for index, raw in enumerate(cfg.sweep_values):
        point = replace(
            cfg,
            **{cfg.sweep_parameter: cast(raw)},
            seed=_derive(cfg.seed, index),
            sweep_parameter=None,
            sweep_values=(),
        )
        rows.extend(
            replace(row, label=f"{cfg.sweep_parameter}={raw} {row.label}")
            for row in _RUNNERS[point.kind](point)
        )
    return rows


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncollapse",
        description="Simulate generalized qubit measurements and undo them.",
    )
    parser.add_argument("--version", action="version", version=f"uncollapse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=os.environ.get(ENV_PREFIX + "CONFIG"))
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
    indices = None
    if criteria:
        try:
            indices = tuple(int(tok) for tok in criteria.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --criteria list: {criteria!r}") from exc
        if any(i < 1 or i > 10 for i in indices):
            raise ConfigError("criteria indices must be in 1..10")
    results = run_acceptance(seed=cfg.seed, scale=scale, workers=cfg.workers, indices=indices)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.index}: {r.name} ({r.runtime_s:.1f}s)")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "acceptance.json").write_text(render_acceptance_json(results, cfg.seed, scale))
    (out / "acceptance.csv").write_text(render_acceptance_csv(results))
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
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "selftest":
            return _selftest(cfg, args.scale, args.criteria)
        if args.command == "analytics":
            rows, curves = run_analytics(cfg)
            _write_outputs(cfg, rows, curves)
            return EXIT_OK
        if args.command == "sweep":
            rows = run_sweep(cfg)
            _write_outputs(cfg, rows)
            return EXIT_OK
        # run
        if cfg.kind == "analytics":
            rows, curves = run_analytics(cfg)
            _write_outputs(cfg, rows, curves)
            return EXIT_OK
        if cfg.kind not in _RUNNERS:
            raise ConfigError(f"kind {cfg.kind!r} is not runnable directly")
        rows = _RUNNERS[cfg.kind](cfg)
        _write_outputs(cfg, rows)
        return EXIT_OK
    except (
        ImpossibleOutcomeError,
        UncollapseImpossibleError,
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
