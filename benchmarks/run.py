"""Benchmark of the uncollapse package: one workload per invocation.

    python3 benchmarks/run.py --workload charge-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the workload is repeated for ``--seconds`` of measured
pass time and the end-to-end metrics are reported: ``setup_s`` (median of
fresh interpreters importing ``uncollapse.cli`` and parsing the workload's
configs), ``wall_s`` (time to finish every point of the workload: the sum
over points of each point's median time over the passes), ``traj_per_s``
(trajectories of one pass over ``wall_s``), ``peak_rss_mb`` (peak resident
set of this process plus that of its largest pool child) and
``failed_frac`` (failed over attempted points; it travels as
``failed``/``attempted`` in the last line, as a metric may not read 0).
With ``--trace 1`` one untraced and one traced pass (plus a one-worker
traced pass when the workload uses a pool) give the per-layer metrics;
``--seconds`` is not used.

Every pass is checked (see ``workloads.check_row``) and every pass must
reproduce the first byte for byte; traced and one-worker passes must
reproduce the untraced pass.  The last line of standard output is one
JSON object; the exit code is 0 when every check passed, 1 when one
failed and 2 when the benchmark cannot run at all.  A result file with
the run environment is written under ``benchmarks/.runs/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: two pool workers times the BLAS default of two
# threads would oversubscribe a two-core machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("UNCOLLAPSE_")]:
    del os.environ[_var]  # flags and generated configs alone decide each run

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

WARMUP_SCALE = 0.25
SETUP_PROBES_PER_PASS = 1
MIN_SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
MAX_MEASURE_S = 120.0  # keeps a run inside its time limit whatever --seconds says

# metric names and units come from BENCHMARK.json, the one list of them
SPEC_FILE = ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import uncollapse.cli
import workloads
for path in sys.argv[3:]:
    workloads.load_inputs(path)
"""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(str(index / k)).strip() for k in ("level", "type", "size")})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_seconds(workload, probes: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse the configs."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), *map(str, workload.config_files())]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def import_seconds() -> dict[str, float]:
    """Self import time of scipy, numpy and uncollapse modules, median of probes."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import uncollapse.cli"
    samples = {"scipy": [], "numpy": [], "uncollapse": []}
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", probe],
                              check=True, cwd=ROOT, capture_output=True, text=True)
        totals = dict.fromkeys(samples, 0)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "self" in parts[0]:
                continue
            package = parts[2].strip().split(".", 1)[0]
            if package in totals:
                totals[package] += int(parts[0].split(":", 1)[1])
        for package, micros in totals.items():
            samples[package].append(micros * 1e-6)
    return {f"setup.{p}_s": statistics.median(v) for p, v in samples.items()}


def peak_rss_kib(who) -> int:
    return resource.getrusage(who).ru_maxrss  # KiB on Linux


def _summarize_checks(checks) -> tuple[int, int, int, list[str]]:
    failed = [c for c in checks if c.failed]
    reasons = [f"{c.label}: {r}" for c in failed for r in c.reasons]
    return len(checks), len(failed), sum(c.flagged for c in checks), reasons


def _pick(kind: str, computed: dict) -> tuple[dict, dict]:
    units = metric_units(kind)
    return {k: computed[k] for k in units}, units


def timed_run(name: str, seed: int, seconds: float, workdir: Path, scale: float = 1.0) -> dict:
    workload = workloads.make(name, seed, workdir / "inputs", scale)
    workloads.make(name, seed, workdir / "warmup", WARMUP_SCALE * scale).run_pass()
    passes, walls, checks, problems, setup = [], [], [], [], []
    reference = None
    started = time.perf_counter()
    while True:
        result = workload.run_pass()
        checks.extend(workload.check(result))
        passes.append(result.point_s)
        walls.append(result.wall_s)
        if reference is None:
            reference = result.outputs
        elif result.outputs != reference:
            problems.append(f"pass {len(walls)} outputs differ from pass 1")
        if len(walls) == 1:
            # every pass repeats the same work, so the largest pool child of
            # pass 1 is that of the run; read it before set-up probes are children
            pool_child_kib = peak_rss_kib(resource.RUSAGE_CHILDREN)
        if sum(walls) + result.wall_s > seconds or time.perf_counter() - started > MAX_MEASURE_S:
            break
        # set-up probes are spread over the run, so a slow spell of the
        # machine moves few of them
        setup += setup_seconds(workload, SETUP_PROBES_PER_PASS)
    rss_mb = (peak_rss_kib(resource.RUSAGE_SELF) + pool_child_kib) / 1024.0
    setup += setup_seconds(workload, max(SETUP_PROBES_PER_PASS, MIN_SETUP_PROBES - len(setup)))
    traj = workload.trajectories_per_pass()
    # each point's median over the passes, summed: a slow spell of a shared
    # machine moves a few samples of some points, not the whole figure
    wall = sum(statistics.median(times) for times in zip(*passes))
    attempted, failed, flagged, reasons = _summarize_checks(checks)
    metrics, units = _pick("end_to_end", {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_s": (wall, f"sum over {workload.points_per_pass()} points of the median of {len(passes)} passes"),
        "traj_per_s": (traj / wall, f"{traj} trajectories per pass over wall_s"),
        "peak_rss_mb": (rss_mb, "one sample: this process plus its largest pool child"),
    })
    return {
        "metrics": metrics, "units": units, "attempted": attempted, "failed": failed,
        "problems": problems + reasons, "rows_outside_3sigma": flagged,
        "samples": {"setup_s": setup, "pass_s": walls, "point_s": passes},
    }


def traced_run(name: str, seed: int, workdir: Path, scale: float = 1.0) -> dict:
    workload = workloads.make(name, seed, workdir / "inputs", scale)
    workloads.make(name, seed, workdir / "warmup", WARMUP_SCALE * scale).run_pass()
    base = workload.run_pass()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workload.run_pass()
    passes = {"untraced": base, "traced": traced}
    serial_tracer = None
    if workload.workers > 1:
        serial_tracer = tracing.Tracer()
        with tracing.installed(serial_tracer):
            passes["traced one-worker"] = workload.run_pass(workers=1)
    checks = {label: workload.check(result) for label, result in passes.items()}
    problems = [f"{label} pass outputs differ from the untraced pass"
                for label, result in passes.items() if result.outputs != base.outputs]
    attempted, failed, flagged, reasons = _summarize_checks([c for cs in checks.values() for c in cs])

    values = {k: (v, "traced pass") for k, v in tracing.layer_metrics(tracer, serial_tracer, workload.workers).items()}
    if serial_tracer is not None:
        for k in tracing.SERIAL_METRICS:
            values[k] = (values[k][0], "traced one-worker pass")
    attempts, successes = workload.attempt_counts(traced)
    values["evolving.execute_attempts"] = (float(attempts), "counted by the benchmark in the traced pass")
    values["evolving.execute_success_ratio"] = (successes / attempts if attempts else 0.0,
                                                f"{successes} of {attempts} attempts")
    values["stats.rows_outside_3sigma"] = (float(sum(c.flagged for c in checks["traced"])),
                                           "statistical rows of the traced pass")
    values["trace.overhead_frac"] = (traced.wall_s / base.wall_s - 1.0, "traced pass over untraced pass")
    for k, v in import_seconds().items():
        values[k] = (v, f"median of {IMPORTTIME_PROBES} -X importtime probes")
    spans_path = workdir / "spans.json"
    spans_path.write_text(json.dumps({label: tracing.span_records(t) for label, t in
                                      (("traced", tracer), ("traced one-worker", serial_tracer)) if t}))
    metrics, units = _pick("per_layer", values)
    return {
        "metrics": metrics, "units": units, "attempted": attempted, "failed": failed,
        "problems": problems + reasons, "rows_outside_3sigma": flagged,
        "not_exposed": list(tracing.NOT_EXPOSED), "spans_file": str(spans_path.relative_to(ROOT)),
        "samples": {"untraced_wall_s": base.wall_s, "traced_wall_s": traced.wall_s},
    }


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        code = max(code, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "uncollapse" / "__init__.py", SPEC_FILE):
        if not needed.is_file():
            print(f"benchmark: {needed} is missing", file=sys.stderr)
            return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import uncollapse
    import uncollapse.cli  # noqa: F401  (every workload's setup imports the CLI)

    if Path(uncollapse.__file__).resolve().parent != SRC / "uncollapse":
        print(f"benchmark: imported uncollapse from {uncollapse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.trace:
        report = traced_run(args.workload, args.seed, workdir)
    else:
        report = timed_run(args.workload, args.seed, args.seconds, workdir)
    correct = report["failed"] == 0 and not report["problems"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, one client)")
    for metric, (value, samples) in report["metrics"].items():
        print(f"  {metric:36s} {value:>16.6g} {report['units'][metric]:8s} {samples}")
    failed, attempted = report["failed"], report["attempted"]
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g} {'1':8s} {failed} of {attempted} points")
    print(f"  {'rows outside 3 sigma':36s} {report['rows_outside_3sigma']:>16d} {'count':8s} "
          f"statistical rows, counted not failed")
    if "not_exposed" in report:
        print(f"  not exposed by the API: {', '.join(report['not_exposed'])}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "environment": environment(),
        **{k: v for k, v in report.items() if k not in ("metrics", "units")},
        "metrics": {k: {"value": v, "unit": report["units"][k], "samples": s}
                    for k, (v, s) in report["metrics"].items()},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": report["units"][k]} for k, (v, _) in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
