import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from uncollapse import cli


def run_cli(args):
    return cli.main(args)


def test_run_charge_qnd_and_determinism(tmp_path):
    cfg = {
        "kind": "charge-qnd",
        "seed": 5,
        "trajectories": 20_000,
        "r0": 1.0,
        "state": "plus",
        "out": str(tmp_path / "a"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_OK
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    first = (tmp_path / "a" / "results.csv").read_bytes()
    second = (tmp_path / "b" / "results.csv").read_bytes()
    assert first == second
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["passed"] is True
    for row in summary["rows"]:
        assert "reference" in row and "within" in row


def test_run_reproduces_from_effective_config(tmp_path):
    cfg = {
        "kind": "phase",
        "seed": 12,
        "trajectories": 30_000,
        "p_t": 0.5,
        "state": "plus",
        "out": str(tmp_path / "x"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_OK
    echo = tmp_path / "x" / "effective_config.json"
    assert run_cli(["run", "--config", str(echo), "--out", str(tmp_path / "y")]) == cli.EXIT_OK
    assert (tmp_path / "x" / "results.csv").read_bytes() == (
        tmp_path / "y" / "results.csv"
    ).read_bytes()


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "charge-qnd", "bogus": 1}))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_CONFIG


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_CONFIG


def test_bad_kind_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "nope"}))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_CONFIG


def test_numeric_failure_exit_code(tmp_path):
    cfg = {
        "kind": "phase",
        "seed": 3,
        "trajectories": 100,
        "p_t": 0.99999,
        "state": "two",
        "out": str(tmp_path / "nf"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_NUMERIC


def test_env_override(tmp_path, monkeypatch):
    cfg = {"kind": "charge-total", "trajectories": 5000, "duration_tau": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("UNCOLLAPSE_OUT", str(tmp_path / "env_out"))
    monkeypatch.setenv("UNCOLLAPSE_SEED", "42")
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_OK
    echoed = json.loads((tmp_path / "env_out" / "effective_config.json").read_text())
    assert echoed["seed"] == 42


def test_config_env_read_at_each_call(tmp_path, monkeypatch):
    # the parser is built once per process, so the variable must not be
    # baked into its defaults
    paths = []
    for seed in (3, 4, 5):
        path = tmp_path / f"cfg{seed}.json"
        path.write_text(json.dumps({"kind": "charge-total", "trajectories": 100, "seed": seed}))
        paths.append(path)
    cases = ((paths[0], [], 3), (paths[1], [], 4), (paths[1], ["--config", str(paths[2])], 5))
    for env_path, flag, seed in cases:
        monkeypatch.setenv("UNCOLLAPSE_CONFIG", str(env_path))
        out = tmp_path / f"o{seed}"
        assert run_cli(["run", "--out", str(out), *flag]) == cli.EXIT_OK
        assert json.loads((out / "effective_config.json").read_text())["seed"] == seed


def test_sweep_total_reversibility(tmp_path):
    cfg = {
        "kind": "charge-total",
        "seed": 9,
        "trajectories": 20_000,
        "sweep_parameter": "duration_tau",
        "sweep_values": [0.5, 1.0, 2.0, 4.0],
        "out": str(tmp_path / "sweep"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", str(path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["rows"]) == 4


def test_sweep_phase_joint_success(tmp_path):
    cfg = {
        "kind": "phase",
        "seed": 4,
        "trajectories": 30_000,
        "state": "plus",
        "sweep_parameter": "p_t",
        "sweep_values": [0.2, 0.5, 0.8],
        "out": str(tmp_path / "sweep"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", str(path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    joint = [r for r in summary["rows"] if "joint_success_rate" in r["label"]]
    assert len(joint) == 3
    for row, p_t in zip(joint, (0.2, 0.5, 0.8)):
        assert row["reference"] == pytest.approx(1.0 - p_t)
        assert row["within"] is True


def test_sweep_empty_range(tmp_path):
    cfg = {
        "kind": "charge-total",
        "sweep_parameter": "duration_tau",
        "sweep_values": [],
        "out": str(tmp_path / "sweep"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", str(path)]) == cli.EXIT_OK
    text = (tmp_path / "sweep" / "results.csv").read_text()
    assert text.splitlines() == ["label,value,ci_low,ci_high,reference,within"]


def test_analytics_outputs(tmp_path):
    assert run_cli(["analytics", "--out", str(tmp_path / "ana"), "--seed", "1"]) == cli.EXIT_OK
    curves = (tmp_path / "ana" / "curves.csv").read_text().splitlines()
    assert curves[0] == "r0,tau,pdf,cdf"
    assert len(curves) > 100
    # long-tailed, peaked shape: pdf rises then falls along each r0 slice
    import csv as csvmod

    rows = [r for r in csvmod.DictReader(curves) if float(r["r0"]) == 1.0]
    pdf = [float(r["pdf"]) for r in rows]
    peak = pdf.index(max(pdf))
    assert 0 < peak < len(pdf) - 1
    assert pdf[-1] < max(pdf) / 10.0


def test_selftest_smoke_and_failure_exit(tmp_path):
    code = run_cli(
        [
            "selftest", "--scale", "0.01", "--criteria", "5",
            "--seed", "11", "--out", str(tmp_path / "st"),
        ]
    )
    assert code == cli.EXIT_OK
    assert (tmp_path / "st" / "acceptance.json").exists()
    assert (tmp_path / "st" / "acceptance.csv").exists()
    # statistically guaranteed failure: KS tolerance at tiny sample size
    code = run_cli(
        [
            "selftest", "--scale", "0.004", "--criteria", "2",
            "--seed", "11", "--out", str(tmp_path / "st2"),
        ]
    )
    assert code == cli.EXIT_ACCEPTANCE


def test_selftest_deterministic_across_workers(tmp_path):
    for label, workers in (("w1", "1"), ("w2", "2")):
        code = run_cli(
            [
                "selftest", "--scale", "0.02", "--criteria", "1,3,5",
                "--seed", "11", "--workers", workers, "--out", str(tmp_path / label),
            ]
        )
        assert code == cli.EXIT_OK
    assert (tmp_path / "w1" / "acceptance.json").read_bytes() == (
        tmp_path / "w2" / "acceptance.json"
    ).read_bytes()
    assert (tmp_path / "w1" / "acceptance.csv").read_bytes() == (
        tmp_path / "w2" / "acceptance.csv"
    ).read_bytes()


def test_explicit_state_matrix(tmp_path):
    cfg = {
        "kind": "charge-qnd",
        "seed": 2,
        "trajectories": 5000,
        "state": {"rho": [[0.25, 0.0], [0.0, 0.75]]},
        "out": str(tmp_path / "m"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_OK
    bad = dict(cfg, state={"rho": [[2.0, 0.0], [0.0, -1.0]]})
    path.write_text(json.dumps(bad))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_CONFIG


def test_run_multiqubit_rows_and_determinism(tmp_path):
    cfg = {"kind": "multiqubit", "seed": 4, "trajectories": 20_000, "n_qubits": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for label, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = str(tmp_path / label)
        assert run_cli(["run", "--config", str(path), "--workers", workers, "--out", out]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["passed"] is True
    rows = {row["label"]: row for row in summary["rows"]}
    assert sorted(rows) == ["restoration_error", "stepwise_agreement", "success_rate"]
    assert rows["restoration_error"]["value"] <= 1e-9
    assert rows["restoration_error"]["reference"] == 1e-9
    assert rows["success_rate"]["ci_low"] <= rows["success_rate"]["reference"] <= rows["success_rate"]["ci_high"]
    first = (tmp_path / "a" / "results.csv").read_bytes()
    assert first == (tmp_path / "b" / "results.csv").read_bytes()
    assert first == (tmp_path / "c" / "results.csv").read_bytes()


def test_run_multiqubit_diagonalizes_once(tmp_path, linalg_calls):
    # the Kraus builder's eigh and QR, the operator check's eigvalsh and
    # the plan's eigh; the plan undoes the unitary part with no SVD
    cfg = {"kind": "multiqubit", "seed": 4, "trajectories": 2000, "n_qubits": 6}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert linalg_calls == {"eigh": 2, "eigvalsh": 1, "svd": 0, "qr": 1}


@pytest.mark.parametrize(
    "field, value",
    [("gamma", -1), ("gamma", 0), ("gamma", "fast"), ("n_qubits", 2.5), ("n_qubits", True), ("n_qubits", 7)],
)
def test_multiqubit_bad_config_exits_2(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "multiqubit", "trajectories": 100, field: value}))
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and field in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "charge-qnd", "trajectories": "abc"},
        {"kind": "charge-qnd", "trajectories": 2.5},
        {"kind": "charge-qnd", "trajectories": 100, "workers": "2"},
        {"kind": "charge-qnd", "trajectories": 100, "seed": "x"},
        {"kind": "phase", "trajectories": 100, "p_t": 1.5},
        {"kind": "charge-total", "trajectories": 100, "duration_tau": -1},
        {"kind": "charge-qnd", "trajectories": 100, "r0": float("nan")},
        {"kind": "charge-evolving", "trajectories": 100, "detector": {"i1": 1.0, "i2": 1.0, "s_i": 0.04}},
        # analytics with an empty r0 grid allocates nothing, even were a bound missing
        {"kind": "analytics", "r0_grid": [], "tau_grid_points": 0},
        {"kind": "analytics", "r0_grid": [], "tau_grid_points": -1},
        {"kind": "analytics", "r0_grid": [], "tau_grid_points": 10**11},
        {"kind": "analytics", "r0_grid": [], "trajectories": 10**13},
    ],
    ids=["trajectories-abc", "trajectories-2.5", "workers-str", "seed-str", "p_t-1.5",
         "duration_tau-neg", "r0-nan", "i1-eq-i2", "tau_grid_points-0", "tau_grid_points-neg",
         "tau_grid_points-1e11", "trajectories-1e13"],
)
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))  # NaN is written as the bare token json.loads accepts
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize(
    "command, config",
    [
        ("sweep", {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": [[1]]}),
        ("sweep", {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": [True]}),
        ("sweep", {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": [1.0, "2"]}),
        ("sweep", {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": [float("inf")]}),
        ("sweep", {"kind": "multiqubit", "sweep_parameter": "n_qubits", "sweep_values": [2, 2.5]}),
        ("sweep", {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": 1.0}),
        ("sweep", {"kind": "charge-total", "sweep_parameter": ["duration_tau"], "sweep_values": [1.0]}),
        ("run", {"kind": "analytics", "r0_grid": ["a", 1]}),
        ("run", {"kind": "analytics", "r0_grid": [1.0, float("nan")]}),
        ("run", {"kind": "analytics", "r0_grid": 1.0}),
        ("run", {"kind": ["phase"]}),
        ("run", {"kind": "phase", "out": 5}),
        ("run", {"kind": "phase", "format": None}),
        ("run", {"kind": "charge-qnd", "detector": 5}),
    ],
    ids=["sweep-nested", "sweep-bool", "sweep-str", "sweep-inf", "sweep-int-2.5", "sweep-scalar",
         "parameter-list", "r0_grid-str", "r0_grid-nan", "r0_grid-scalar", "kind-list", "out-int",
         "format-null", "detector-number"],
)
def test_bad_elements_and_strings_exit_2(tmp_path, capsys, command, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trajectories": 100, **config}))
    assert run_cli([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


# wrong JSON values per annotation: a list for scalars, a number for strings,
# lists and objects, and true for numbers
_WRONG_VALUES = {
    "int": ([1], True), "float": ([1.0], True), "float | None": ([1.0], True),
    "str": (["x"], 5), "str | None": (["x"], 5), "tuple": (5,), "dict": (5,),
}


@pytest.mark.parametrize(
    "name, value",
    [(f.name, value) for f in fields(cli.ExperimentConfig) if f.name != "state" for value in _WRONG_VALUES[f.type]],
    ids=lambda v: json.dumps(v) if not isinstance(v, str) else v,
)
def test_every_field_is_type_checked_at_load(tmp_path, capsys, name, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trajectories": 100, "out": str(tmp_path / "o"), name: value}))
    assert run_cli(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and name in error["message"]
    assert not (tmp_path / "o").exists()


def test_default_field_dict_loads():
    default = cli.ExperimentConfig()
    echo = json.loads(json.dumps({f.name: getattr(default, f.name) for f in fields(default)}))
    assert cli.config_from_dict(echo) == default


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-5", "1e9"])
def test_selftest_scale_out_of_range_exits_2(tmp_path, capsys, monkeypatch, scale):
    def refuse(**kwargs):
        raise AssertionError("the acceptance suite ran")

    monkeypatch.setattr(cli.acceptance, "run_acceptance", refuse)
    assert run_cli(["selftest", f"--scale={scale}", "--out", str(tmp_path / "st")]) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and "scale" in error["message"]
    assert not (tmp_path / "st").exists()


def test_selftest_scale_bound_is_inclusive(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli.acceptance, "run_acceptance", lambda **kwargs: seen.append(kwargs["scale"]) or [])
    for scale in ("1e-9", "1000"):
        assert run_cli(["selftest", f"--scale={scale}", "--out", str(tmp_path / scale)]) == cli.EXIT_OK
    assert seen == [1e-9, 1000.0]


def test_size_bounds_are_inclusive():
    for name, (low, high) in (("trajectories", (1, 10**9)), ("tau_grid_points", (1, 10**6))):
        assert getattr(cli.config_from_dict({name: low}), name) == low
        assert getattr(cli.config_from_dict({name: high}), name) == high
        for bad in (low - 1, high + 1):
            with pytest.raises(cli.ConfigError, match=name):
                cli.config_from_dict({name: bad})
    sweep = {"kind": "charge-total", "sweep_parameter": "trajectories"}
    assert cli.config_from_dict({**sweep, "sweep_values": [1, 10**9]}).sweep_values == (1, 10**9)
    with pytest.raises(cli.ConfigError, match="trajectories"):
        cli.config_from_dict({**sweep, "sweep_values": [100, 10**13]})


def test_run_charge_qnd_strong_readout(tmp_path):
    # exp(2 r0) overflows a float; the reference underflows to 0 instead
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "charge-qnd", "r0": 400, "trajectories": 1000}))
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    rows = {row["label"]: row for row in json.loads((tmp_path / "o" / "summary.json").read_text())["rows"]}
    assert rows["success_rate"]["reference"] == 0.0
    assert rows["success_rate"]["value"] == 0.0


def test_run_charge_qnd_weak_readout(tmp_path):
    # r0 squared underflows a float at 1e-170; the stop times are still
    # drawn.  The mean's rare long waits leave a sample's own spread near 0,
    # so its row must test against the law's spread to pass
    for r0 in (1e-170, 1e-6):
        path = tmp_path / "cfg.json"
        out = tmp_path / f"o{r0}"
        path.write_text(json.dumps({"kind": "charge-qnd", "r0": r0, "trajectories": 1000}))
        assert run_cli(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        rows = {row["label"]: row for row in summary["rows"]}
        assert rows["mean_waiting_time"]["within"] is True
        assert summary["passed"] is True
        if r0 == 1e-170:
            assert rows["success_rate"]["value"] == 1.0


def test_integer_values_sweep_a_float_parameter(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({
        "kind": "charge-total", "trajectories": 100, "sweep_parameter": "duration_tau",
        "sweep_values": [1, 2.5], "out": str(tmp_path / "o"),
    }))
    assert run_cli(["sweep", "--config", str(path)]) == cli.EXIT_OK


def test_optional_numbers_accept_null():
    cfg = cli.config_from_dict({"tau_max": None, "escape_radius": None})
    assert cfg.trajectory_config().escape_radius is None
    with pytest.raises(cli.ConfigError):
        cli.config_from_dict({"escape_radius": float("inf")})


def test_multiqubit_bad_sweep_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "multiqubit", "trajectories": 100,
        "sweep_parameter": "gamma", "sweep_values": [1.0, -1.0],
    }))
    assert run_cli(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "multiqubit", "sweep_parameter": "n_qubits", "sweep_values": [2, 3, 7]},
        {"kind": "charge-qnd", "sweep_parameter": "d_tau", "sweep_values": [0.05, 0.2]},
        {"kind": "multiqubit", "sweep_parameter": "gamma", "sweep_values": [1, -1]},
        {"kind": "phase", "sweep_parameter": "p_t", "sweep_values": [0.5, 1.5]},
        {"kind": "charge-total", "sweep_parameter": "duration_tau", "sweep_values": [1, -1]},
        {"kind": "charge-evolving", "sweep_parameter": "duration_tau", "sweep_values": [1, -1]},
        {"kind": "charge-evolving", "sweep_parameter": "duration_tau", "sweep_values": [1, 1e-4]},
    ],
    ids=[
        "n_qubits", "d_tau", "gamma", "p_t", "duration_tau-total", "duration_tau-evolving",
        "duration_tau-evolving-step",
    ],
)
def test_bad_sweep_point_rejected_at_load(tmp_path, config):
    # each point gets the checks of a plain config before any point runs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trajectories": 100, **config}))
    with pytest.raises(cli.ConfigError, match=r"sweep_values\[\d\]"):
        cli.load_config(str(path), {})
    good = dict(config, sweep_values=config["sweep_values"][:-1])
    path.write_text(json.dumps({"trajectories": 100, **good}))
    assert cli.load_config(str(path), {}).sweep_values == tuple(good["sweep_values"])


# a lazily registered submodule keeps its LazyLoader class until its code runs
_MODULES_PROBE = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
def ran():
    return sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
                  if n.startswith("uncollapse.") and type(m) is types.ModuleType)
seen = {}
import uncollapse
seen["import"] = ran()
seen["registered"] = sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("uncollapse."))
import uncollapse.cli
if sys.argv[2] == "run":
    uncollapse.cli.main(["run", "--config", sys.argv[3], "--out", sys.argv[4]])
    seen["run"] = ran()
else:
    uncollapse.cli.load_config(sys.argv[3], {})
    seen["sweep_config"] = ran()
    uncollapse.cli.load_config(sys.argv[4], {})
    seen["phase_config"] = ran()
    seen["numpy_random"] = "numpy.random" in sys.modules
    seen["resolves"] = callable(uncollapse.evolving.plan_from_kraus)
print(json.dumps(seen))
"""


def _modules_run(*args):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, package_root, *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_each_submodule_runs_on_first_use(tmp_path):
    sweep, phase, run = (tmp_path / name for name in ("sweep.json", "phase.json", "run.json"))
    sweep.write_text(json.dumps({
        "kind": "charge-qnd", "trajectories": 100, "sweep_parameter": "r0", "sweep_values": [0.5, 1.0],
    }))
    phase.write_text(json.dumps({"kind": "phase", "trajectories": 100}))
    run.write_text(json.dumps({"kind": "charge-qnd", "trajectories": 100}))
    seen = _modules_run("load", sweep, phase)
    assert seen["import"] == []
    assert seen["registered"] == [
        "acceptance", "charge", "evolving", "linalg", "measurement", "multiqubit", "phase", "stats", "trajectory",
    ]
    assert seen["sweep_config"] == ["cli", "trajectory"]
    assert seen["phase_config"] == ["cli", "phase", "trajectory"]
    assert seen["numpy_random"] is False  # noise streams load it on their first draw
    assert seen["resolves"]
    seen = _modules_run("run", run, tmp_path / "out")
    assert (tmp_path / "out" / "summary.json").is_file()
    assert not {"acceptance", "evolving", "multiqubit", "phase"} & set(seen["run"])


@pytest.mark.parametrize(
    "kind, state",
    [
        ("charge-qnd", {"rho": 5}),
        ("charge-total", {"rho": 5}),
        ("charge-evolving", {"rho": 5}),
        ("phase", {"rho": 5}),
        ("charge-total", {"rho": [[1]]}),
        ("phase", {"rho": [[1]]}),
        ("charge-qnd", {"rho": [[0.5, 0.0], [0.0]]}),
        ("charge-qnd", {"rho": [[True, 0.0], [0.0, 0.0]]}),
        ("multiqubit", {"rho": 5}),
    ],
    ids=["rho-5-qnd", "rho-5-total", "rho-5-evolving", "rho-5-phase", "rho-1x1-total", "rho-1x1-phase",
         "ragged", "true-entry", "rho-5-multiqubit"],
)
def test_malformed_state_exits_2_at_load(tmp_path, capsys, kind, state):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind, "trajectories": 100, "state": state}))
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and "state" in error["message"]
    assert not (tmp_path / "o").exists()


def test_evolving_takes_an_explicit_pure_rho(tmp_path, capsys):
    # purity is read off the matrix: an explicit |1><1| runs as the preset "one"
    outputs = {}
    for name, state in (("rho", {"rho": [[1, 0], [0, 0]]}), ("preset", "one"), ("mixed", "mixed")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "charge-evolving", "trajectories": 100, "state": state}))
        outputs[name] = run_cli(["run", "--config", str(path), "--out", str(tmp_path / name)])
    assert outputs == {"rho": cli.EXIT_OK, "preset": cli.EXIT_OK, "mixed": cli.EXIT_CONFIG}
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"error": "config", "message": "charge-evolving runs need a pure initial state"}
    assert (tmp_path / "rho" / "results.csv").read_bytes() == (tmp_path / "preset" / "results.csv").read_bytes()


def test_evolving_step_bound_checked_before_any_point_runs(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the integrator ran")

    monkeypatch.setattr(cli.trajectory, "simulate_evolving_pure", refuse)
    for command, config in (
        ("run", {"duration_tau": 1e7}),
        ("sweep", {"sweep_parameter": "duration_tau", "sweep_values": [1, 1e7]}),
    ):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"kind": "charge-evolving", "trajectories": 100, **config}))
        assert run_cli([command, "--config", str(path), "--out", str(tmp_path / command)]) == cli.EXIT_CONFIG
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "config" and "duration_tau" in error["message"]
        assert not (tmp_path / command).exists()
    # 1e6 steps at the integrator's d_tau of 1e-3 is the last duration allowed;
    # 1e10 / 1e-300 steps overflow to an infinite count
    assert cli.config_from_dict({"kind": "charge-evolving", "duration_tau": 1000.0}).duration_tau == 1000.0
    for config in ({"duration_tau": 1000.001}, {"duration_tau": 1e10, "d_tau": 1e-300}):
        with pytest.raises(cli.ConfigError, match="duration_tau"):
            cli.config_from_dict({"kind": "charge-evolving", **config})


# values that break each field's JSON type, sign or scale
_PROBE_VALUES = (None, True, "x", [1], {"a": 1}, 0, -1, 1e-300, -1e-300, 1e300, -1e300, float("nan"))
_PROBE_EXTRA = {
    "state": (
        "nope", "mixed", {"rho": 5}, {"rho": [[1]]}, {"rho": [[0.5, 0], [0]]}, {"rho": [[True, 0], [0, 0]]},
        {"rho": [[0.5, [0, 1, 2]], [0, 0.5]]}, {"rho": [[2, 0], [0, -1]]}, {"rho": [[0.5, 0], [0, 0.5]], "x": 1},
        {"rho": [[10**400, 0], [0, 0]]}, {"rho": [[0.5, [0, 1e-300]], [[0, -1e-300], 0.5]]},
    ),
    "detector": (
        {}, {"i1": 1, "i2": 1, "s_i": 0.04}, {"i1": "a", "i2": 0.9, "s_i": 0.04}, {"i1": 1.1, "i2": 0.9, "s_i": 0},
        {"i1": 1e300, "i2": -1e300, "s_i": 1e-300}, {"i1": None, "i2": 0.9, "s_i": 0.04},
    ),
    "r0_grid": ([], [0], [-1], [1e300], [1e-300], [[1]], ["x"]),
    "sweep_values": ([], [[1]], "x", [None]),
}


def _probe_configs():
    names = [f.name for f in fields(cli.ExperimentConfig) if f.name not in ("kind", "out")]
    for kind in cli.KINDS:
        for name in names:
            for value in (*_PROBE_VALUES, *_PROBE_EXTRA.get(name, ())):
                # a long evolving record is bounded by its own test; here it would only cost time
                if kind == "charge-evolving" and name == "duration_tau" and value == 1e300:
                    continue
                yield "run", {"kind": kind, name: value}
        if kind != "analytics":
            for name in cli._SWEEPABLE:
                for value in _PROBE_VALUES:
                    if not (kind == "charge-evolving" and name == "duration_tau" and value == 1e300):
                        yield "sweep", {"kind": kind, "sweep_parameter": name, "sweep_values": [value]}


def test_every_generated_config_keeps_the_exit_contract(tmp_path, capsys):
    # the CLI contract: 0, or 2, 3 or 4 with a JSON error line, never a traceback
    out = str(tmp_path / "o")
    breaches = []
    for command, config in _probe_configs():
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trajectories": 20, "tau_grid_points": 5, "out": out, **config}))
        try:
            code = run_cli([command, "--config", str(path)])
        except Exception as exc:  # noqa: BLE001  (any escape is the breach being probed)
            code = type(exc).__name__
        if code not in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_ACCEPTANCE):
            breaches.append((command, config, code))
        capsys.readouterr()
    assert breaches == []
