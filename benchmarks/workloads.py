"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a single closed-loop client: every point starts only
after the previous one has finished.  The workload seed is a benchmark
argument; the program receives only the configs and inputs generated
from it.  ``scale`` shrinks every count for smoke tests and warm-up.

* ``charge-sweep`` - three ``uncollapse sweep`` runs through ``cli.main``
  at two workers: waiting times at fine ``d_tau`` (straggler-bound),
  crossing rates at the CLI default ``d_tau`` (draw-bound), and the
  ``charge-total`` law (pool start-up bound).  Each sweep value is its own
  one-point sweep call.  Trajectories are ensemble members.  Ensemble
  sizes are whole multiples of two walk blocks, so both workers get equal
  work.
* ``evolving-records`` - library calls at one worker in the pattern of
  demo 04: integrate a record, plan its reversal, run single-walker
  reversal attempts, a plan ensemble and the two-readout variant.
  Trajectories are records, attempts and ensemble members.
* ``register`` - ``uncollapse run`` of ``multiqubit`` at N = 2, 4, 6 (16
  random operators each) and of ``phase``, at one worker.  Trajectories
  are multiqubit runs; the closed-form phase ensembles are not counted.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# a statistical row fails its point only this many standard errors away
# from its reference; closer misses at 3 sigma are counted, not failed
FAIL_SIGMAS = 10.0
RESTORE_TOL = 1e-6
PLAN_VS_BOUND_TOL = 1e-10

# charge-sweep: (name, base config, sweep parameter, values)
CHARGE_SWEEPS = (
    ("waiting-time", {"kind": "charge-qnd", "d_tau": 0.005, "state": "mixed", "trajectories": 32768},
     "r0", (0.5, 1, 2)),
    ("rate", {"kind": "charge-qnd", "state": "plus", "trajectories": 65536},
     "r0", (0.25, 0.5, 1, 2, 4)),
    ("total", {"kind": "charge-total", "state": "plus", "trajectories": 131072},
     "duration_tau", (0.5, 1, 2, 4)),
)
CHARGE_WORKERS = 2

# evolving-records
RECORDS = 24
RECORD_DURATION = 3.0
RECORD_D_TAU = 1e-3
ATTEMPTS = 32  # fixed single-walker attempts per record; see CHANGES.md
ENSEMBLE_RUNS = 800
TWO_STEP_AXIS = 1.7
DETECTOR = {"i1": 1.1, "i2": 0.9, "s_i": 0.04}
SINGLE_WALK = {"d_tau": 1e-3, "escape_radius": 7.0}
ENSEMBLE_WALK = {"d_tau": 0.02, "escape_radius": 6.0}
RECORDS_FILE = "records.json"

# register: runs per operator; the cost of a run depends on the step at
# which it fails, so many random operators per size average that out
MULTIQUBIT_RUNS = {2: 750, 4: 250, 6: 50}
OPERATORS_PER_SIZE = 16
PHASE_POINTS = 4
PHASE_RUNS = 400_000
PHASE_STATES = ("plus", "minus-i", "one", "two")


def derive_seed(seed: int, *tags) -> int:
    """Stable 63-bit seed for one input, independent of any program code."""
    text = ":".join(str(t) for t in (seed, *tags)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


# ---------------------------------------------------------------------------
# correctness of result rows


@dataclass
class PointCheck:
    label: str
    failed: bool = False
    flagged: int = 0  # statistical rows outside their 3-sigma interval
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reasons.append(reason)


def check_row(point: PointCheck, row: dict) -> None:
    """Deterministic rows must hold; statistical rows fail only far out."""
    label = row["label"]
    numbers = [row[k] for k in ("value", "reference", "ci_low", "ci_high") if row.get(k) is not None]
    if not all(math.isfinite(v) for v in numbers):
        point.fail(f"{label}: non-finite value")
        return
    if row.get("ci_low") is None:
        if not row["within"]:
            point.fail(f"{label}: {row['value']!r} breaks its bound {row['reference']!r}")
        return
    if not row["within"]:
        point.flagged += 1
    sigma = (row["ci_high"] - row["ci_low"]) / 6.0
    if abs(row["value"] - row["reference"]) > FAIL_SIGMAS * sigma:
        point.fail(f"{label}: {row['value']!r} is over {FAIL_SIGMAS:g} sigma from {row['reference']!r}")


def _interval_row(label: str, successes: int, trials: int, reference: float) -> dict:
    from uncollapse.stats import bernoulli_estimate

    est = bernoulli_estimate(successes, trials)
    return {"label": label, "value": est.rate, "reference": reference,
            "within": est.contains(reference), "ci_low": est.ci_low, "ci_high": est.ci_high}


def _bound_row(label: str, value: float, bound: float) -> dict:
    return {"label": label, "value": value, "reference": bound, "within": value <= bound,
            "ci_low": None, "ci_high": None}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    point_s: list[float]  # time to finish each point, in order
    raw: list  # per point: what the checks read, or the exception
    outputs: dict[str, bytes]  # canonical output bytes, for byte identity

    @property
    def wall_s(self) -> float:
        return sum(self.point_s)


class Workload:
    name: str
    workers = 1

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = scale
        self.workdir.mkdir(parents=True, exist_ok=True)

    def config_files(self) -> list[Path]:
        raise NotImplementedError

    def trajectories_per_pass(self) -> int:
        raise NotImplementedError

    def points_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, workers: int | None = None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> list[PointCheck]:
        raise NotImplementedError

    def attempt_counts(self, result: PassResult) -> tuple[int, int]:
        """Single-walker reversal attempts and successes in a pass."""
        return 0, 0


@dataclass
class Invocation:
    name: str  # the point it computes
    command: str  # "run" or "sweep"
    config: Path
    trajectories: int


class CliWorkload(Workload):
    """Points driven through ``uncollapse.cli.main``, checked via summary.json."""

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir, scale)
        self.invocations = list(self._invocations())

    def _write_config(self, name: str, config: dict) -> Path:
        path = self.workdir / "configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return path

    def config_files(self):
        return [inv.config for inv in self.invocations]

    def trajectories_per_pass(self):
        return sum(inv.trajectories for inv in self.invocations)

    def points_per_pass(self):
        return len(self.invocations)

    def run_pass(self, workers=None):
        from uncollapse import cli

        workers = self.workers if workers is None else workers
        raw, point_s = [], []
        for inv in self.invocations:
            out = self.workdir / "out" / inv.name
            argv = [inv.command, "--config", str(inv.config), "--out", str(out),
                    "--workers", str(workers), "--format", "csv"]
            start = time.perf_counter()
            try:
                raw.append(cli.main(argv))
            except Exception as exc:  # a raising point is a failed point, not a crash
                raw.append(exc)
            point_s.append(time.perf_counter() - start)
        outputs = {}
        for k, (inv, status) in enumerate(zip(self.invocations, raw)):
            out = self.workdir / "out" / inv.name
            if status == 0:
                summary = (out / "summary.json").read_bytes()
                outputs[inv.name] = summary + (out / "results.csv").read_bytes()
                raw[k] = json.loads(summary)
        return PassResult(point_s=point_s, raw=raw, outputs=outputs)

    def check(self, result):
        checks = []
        for inv, summary in zip(self.invocations, result.raw):
            point = PointCheck(inv.name)
            checks.append(point)
            if not isinstance(summary, dict):
                point.fail(f"cli.main returned {summary!r}")
            elif not summary["rows"]:
                point.fail("no result rows")
            else:
                for row in summary["rows"]:
                    check_row(point, row)
        return checks


class ChargeSweep(CliWorkload):
    name = "charge-sweep"
    workers = CHARGE_WORKERS

    def _invocations(self):
        # one sweep call per value, so each point is timed on its own
        for sweep, base, parameter, values in CHARGE_SWEEPS:
            for value in values:
                name = f"{sweep}-{parameter}={value}"
                config = dict(base, trajectories=_scaled(base["trajectories"], self.scale, 64),
                              seed=derive_seed(self.seed, self.name, name),
                              sweep_parameter=parameter, sweep_values=[value])
                yield Invocation(name, "sweep", self._write_config(name, config), config["trajectories"])


class Register(CliWorkload):
    name = "register"

    def _invocations(self):
        for n_qubits, runs in MULTIQUBIT_RUNS.items():
            for j in range(OPERATORS_PER_SIZE):
                name = f"multiqubit-N{n_qubits}-{j}"
                config = {"kind": "multiqubit", "n_qubits": n_qubits, "gamma": 1.0,
                          "trajectories": _scaled(runs, self.scale, 10),
                          "seed": derive_seed(self.seed, self.name, name)}
                yield Invocation(name, "run", self._write_config(name, config), config["trajectories"])
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "phase"))
        for j in range(PHASE_POINTS):
            name = f"phase-{j}"
            config = {"kind": "phase", "state": PHASE_STATES[j % len(PHASE_STATES)],
                      "p_t": round(float(rng.uniform(0.1, 0.9)), 6),
                      "phi": round(float(rng.uniform(-math.pi, math.pi)), 6),
                      "trajectories": _scaled(PHASE_RUNS, self.scale, 1000),
                      "seed": derive_seed(self.seed, self.name, name)}
            yield Invocation(name, "run", self._write_config(name, config), 0)


class EvolvingRecords(Workload):
    name = "evolving-records"

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir, scale)
        self.attempts = _scaled(ATTEMPTS, scale, 2)
        self.runs = _scaled(ENSEMBLE_RUNS, scale, 20)
        rng = np.random.default_rng(derive_seed(seed, self.name))
        records = []
        for k in range(_scaled(RECORDS, scale, 2)):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            records.append({
                "psi_in": [[float(z.real), float(z.imag)] for z in psi],
                "epsilon": float(rng.uniform(-2.0, 2.0)),
                "coupling": float(rng.uniform(0.3, 2.0)),
                "choice": 1 + k % 2,
                "seed": derive_seed(seed, self.name, k),
            })
        self.path = self.workdir / "configs" / RECORDS_FILE
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps({
            "duration_tau": RECORD_DURATION, "d_tau": RECORD_D_TAU, "detector": DETECTOR,
            "single_walk": SINGLE_WALK, "ensemble_walk": ENSEMBLE_WALK,
            "attempts": self.attempts, "ensemble_runs": self.runs, "records": records,
        }, indent=1) + "\n")
        self.inputs = parse_records(self.path)

    def config_files(self):
        return [self.path]

    def trajectories_per_pass(self):
        return len(self.inputs["records"]) * (1 + self.attempts + 2 * self.runs)

    def points_per_pass(self):
        return len(self.inputs["records"])

    def run_pass(self, workers=None):
        from uncollapse import evolving, trajectory

        spec = self.inputs
        raw, point_s = [], []
        for k, rec in enumerate(spec["records"]):
            start = time.perf_counter()
            try:
                sim = trajectory.simulate_evolving_pure(
                    rec["psi_in"], spec["duration_tau"], spec["detector"], rec["config"],
                    trajectory.NoiseStream(rec["seed"], 0))
                plan = evolving.plan_from_kraus(sim.extraction, choice=rec["choice"])
                psi_m = sim.psi / np.linalg.norm(sim.psi)
                attempts = [
                    evolving.execute_plan(plan, psi_m, spec["single_walk"], trajectory.NoiseStream(rec["seed"], 1 + a))
                    for a in range(spec["attempts"])
                ]
                hits = evolving.plan_execution_ensemble(
                    plan, psi_m, spec["ensemble_runs"], spec["ensemble_walk"], derive_seed(rec["seed"], 1))
                m = sim.extraction.matrix
                lam_state = np.linalg.eigh(m.conj().T @ m).eigenvectors[:, 0]
                post = m @ lam_state
                post /= np.linalg.norm(post)
                two = evolving.two_step_ensemble(
                    sim.extraction, post, TWO_STEP_AXIS, spec["ensemble_runs"], spec["ensemble_walk"],
                    derive_seed(rec["seed"], 2))
                raw.append({"sim": sim, "plan": plan, "psi_m": psi_m, "attempts": attempts,
                            "hits": hits, "post": post, "two": two})
            except Exception as exc:  # a raising record is a failed point, not a crash
                raw.append(exc)
            point_s.append(time.perf_counter() - start)
        outputs = {f"record-{k}": _canonical(r) for k, r in enumerate(raw) if not isinstance(r, Exception)}
        return PassResult(point_s=point_s, raw=raw, outputs=outputs)

    def check(self, result):
        from uncollapse import evolving
        from uncollapse.measurement import QuantumState

        spec = self.inputs
        checks = []
        for k, (rec, r) in enumerate(zip(spec["records"], result.raw)):
            point = PointCheck(f"record-{k}")
            checks.append(point)
            if isinstance(r, Exception):
                point.fail(f"raised {type(r).__name__}: {r}")
                continue
            psi_in = rec["psi_in"]
            target = np.outer(psi_in, psi_in.conj())
            p_plan = evolving.plan_success_probability(r["plan"], r["psi_m"])
            bound = evolving.success_bound(r["sim"].extraction, QuantumState.from_ket(psi_in))
            rows = [_bound_row("plan_vs_bound", abs(p_plan - bound), PLAN_VS_BOUND_TOL)]
            successes = [a for a in r["attempts"] if a.success]
            for a in successes:
                rows.append(_bound_row("restoration_error",
                                       float(np.max(np.abs(np.outer(a.restored, a.restored.conj()) - target))),
                                       RESTORE_TOL))
            rows.append(_interval_row("single_walker_success", len(successes), len(r["attempts"]), p_plan))
            rows.append(_interval_row("plan_ensemble_success", r["hits"], spec["ensemble_runs"], p_plan))
            rows.append(_interval_row("two_step_success", r["two"], spec["ensemble_runs"],
                                      two_step_probability(r["sim"].extraction, r["post"])))
            for row in rows:
                check_row(point, row)
        return checks

    def attempt_counts(self, result: PassResult) -> tuple[int, int]:
        runs = [r for r in result.raw if not isinstance(r, Exception)]
        return (sum(len(r["attempts"]) for r in runs),
                sum(a.success for r in runs for a in r["attempts"]))


def parse_records(path: Path) -> dict:
    """Load a records file into the objects the pass calls the library with."""
    from uncollapse.charge import DetectorParams
    from uncollapse.trajectory import TrajectoryConfig

    spec = json.loads(Path(path).read_text())
    spec["detector"] = DetectorParams(**spec["detector"])
    spec["single_walk"] = TrajectoryConfig(**spec["single_walk"])
    spec["ensemble_walk"] = TrajectoryConfig(**spec["ensemble_walk"])
    for rec in spec["records"]:
        rec["psi_in"] = np.array([complex(re, im) for re, im in rec["psi_in"]])
        rec["config"] = TrajectoryConfig(d_tau=spec["d_tau"], epsilon=rec["epsilon"], coupling=rec["coupling"])
    return spec


def load_inputs(path: Path):
    """Parse one generated input file the way a pass consumes it."""
    from uncollapse import cli

    if Path(path).name == RECORDS_FILE:
        return parse_records(path)
    return cli.load_config(str(path), {})


def two_step_probability(extraction, state_m) -> float:
    """Exact success probability of ``two_step_ensemble`` on a state."""
    from uncollapse import evolving

    first, second, stage_populations = evolving.two_step_targets(extraction, TWO_STEP_AXIS)
    p1_first, p1_second = stage_populations(state_m / np.linalg.norm(state_m))

    def stop(p1, target):
        return p1 * evolving.hit_probability(1, target) + (1.0 - p1) * evolving.hit_probability(2, target)

    return stop(p1_first, first) * (stop(p1_second, second) if second != 0.0 else 1.0)


def _canonical(r: dict) -> bytes:
    def vec(v):
        return None if v is None else [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]

    return json.dumps({
        "operator": vec(r["sim"].extraction.matrix),
        "log_scale": r["sim"].extraction.log_scale,
        "target_r": r["plan"].target_r,
        "attempts": [[a.success, vec(a.restored), a.waiting_time] for a in r["attempts"]],
        "hits": r["hits"],
        "two_step_hits": r["two"],
    }, sort_keys=True).encode()


_CLASSES = {cls.name: cls for cls in (ChargeSweep, EvolvingRecords, Register)}
WORKLOADS = tuple(_CLASSES)


def make(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    return _CLASSES[name](seed, Path(workdir), scale)
