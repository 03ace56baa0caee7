import json

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
    ],
    ids=["sweep-nested", "sweep-bool", "sweep-str", "sweep-inf", "sweep-int-2.5", "sweep-scalar",
         "parameter-list", "r0_grid-str", "r0_grid-nan", "r0_grid-scalar", "kind-list", "out-int",
         "format-null"],
)
def test_bad_elements_and_strings_exit_2(tmp_path, capsys, command, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trajectories": 100, **config}))
    assert run_cli([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


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
