"""Tests of the benchmark's own code: tracing arithmetic, the counting noise
source, the row checks, and a tiny-size run of every workload.

Run from the repository root:  python3 -m pytest benchmarks/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy work starts)
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from uncollapse import cli  # noqa: E402,F401  (tracing wraps every layer, the CLI included)
from uncollapse import evolving, trajectory  # noqa: E402
from uncollapse.measurement import QuantumState  # noqa: E402

SMOKE_SCALE = {"charge-sweep": 0.25, "evolving-records": 0.1, "register": 0.05}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("trajectory.a", 1.0, 4.0, parent=0),
        Span("trajectory.b", 3.0, 6.0, parent=0),  # overlaps a: counted once
        Span("stats.c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
        Span("linalg.d", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 3.0, 1.0]
    own = tracing.layer_self_seconds(spans)
    assert own["cli"] == 4.0 and own["trajectory"] == 5.0 and own["stats"] == 3.0 and own["linalg"] == 1.0
    assert own["phase"] == 0.0


def test_step_split_times_each_step_to_the_next_draw():
    tracer = tracing.Tracer()
    tracer.spans.append(Span("trajectory.targeted_ensemble", 0.0, 10.0))
    tracer.steps += [(0, 1.0, 100, 100), (0, 2.0, 50, 100), (0, 4.0, 4, 100)]
    split = tracing.step_split(tracer)
    assert split == {"bulk_steps": 150, "bulk_s": 3.0, "tail_steps": 4, "tail_s": 6.0}


def _ensembles():
    state = QuantumState.from_ket(np.array([0.6, 0.8]))
    cfg = trajectory.TrajectoryConfig(d_tau=0.02, escape_radius=6.0)
    ws = trajectory.wait_and_stop_ensemble(state, 0.7, 20000, cfg, 11, collect_times=True)
    hits = trajectory.targeted_ensemble(0.3, 1.1, 3000, cfg, 12)
    single = [trajectory.targeted_measurement(1 + k % 2, -0.8, cfg, trajectory.NoiseStream(13, k)) for k in range(20)]
    return (ws.successes, ws.waiting_times.tobytes(), ws.residual_success_bound, hits, repr(single))


def test_counting_noise_source_leaves_results_byte_identical():
    plain = _ensembles()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        counted = _ensembles()
    assert counted == plain
    normals = sum(t.normals for t in tracer.draws.values())
    assert normals > 20000 and sum(t.uniforms for t in tracer.draws.values()) > 20000
    # everything is unwrapped again afterwards
    assert trajectory.targeted_ensemble is evolving.targeted_ensemble
    assert isinstance(trajectory.NoiseStream(1).generator(), np.random.Generator)


def test_wrappers_are_installed_where_names_are_looked_up():
    original = evolving.targeted_ensemble
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert evolving.targeted_ensemble is trajectory.targeted_ensemble is not original
    assert evolving.targeted_ensemble is original


def _row(value, reference, half_width=None, within=True):
    ci = {"ci_low": None, "ci_high": None} if half_width is None else {
        "ci_low": value - half_width, "ci_high": value + half_width}
    return {"label": "x", "value": value, "reference": reference, "within": within, **ci}


def test_check_row_fails_only_beyond_the_wide_band():
    point = workloads.PointCheck("p")
    workloads.check_row(point, _row(0.5 + 5 * 0.01, 0.5, half_width=0.03, within=False))  # 5 sigma
    assert not point.failed and point.flagged == 1
    workloads.check_row(point, _row(0.5 + 11 * 0.01, 0.5, half_width=0.03, within=False))  # 11 sigma
    assert point.failed
    deterministic = workloads.PointCheck("q")
    workloads.check_row(deterministic, _row(2e-10, 1e-10, within=False))
    assert deterministic.failed
    nan = workloads.PointCheck("r")
    workloads.check_row(nan, _row(math.nan, 0.5, half_width=0.1))
    assert nan.failed


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.make(name, 5, tmp_path / "a" / name, SMOKE_SCALE[name])
        b = workloads.make(name, 5, tmp_path / "b" / name, SMOKE_SCALE[name])
        c = workloads.make(name, 6, tmp_path / "c" / name, SMOKE_SCALE[name])
        read = [[p.read_bytes() for p in w.config_files()] for w in (a, b, c)]
        assert read[0] == read[1] != read[2]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_timed_run(name, tmp_path):
    report = run.timed_run(name, 3, 0.0, tmp_path, scale=SMOKE_SCALE[name])
    assert report["failed"] == 0 and not report["problems"], report["problems"]
    assert report["attempted"] > 0
    assert set(report["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(v > 0 for v, _ in report["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    report = run.traced_run(name, 3, tmp_path, scale=SMOKE_SCALE[name])
    assert report["failed"] == 0 and not report["problems"], report["problems"]
    metrics = {k: v for k, (v, _) in report["metrics"].items()}
    assert set(metrics) == set(run.metric_units("per_layer"))
    assert all(math.isfinite(v) for v in metrics.values())
    busy = {"charge-sweep": "trajectory.wait_and_stop_s.fine", "evolving-records": "trajectory.integrator_s",
            "register": "multiqubit.runs_per_s.N6"}[name]
    assert metrics[busy] > 0
    if name == "charge-sweep":
        assert metrics["trajectory.walker_steps"] > 0 and metrics["trajectory.parallel_eff"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["traced"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "register", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
