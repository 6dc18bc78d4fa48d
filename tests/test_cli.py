import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openjacobi import _kernel
from openjacobi.cli import run


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_json(path):
    return json.loads(path.read_text())


BASE_MODEL = {"a": [1.0, 1.0, 1.0], "gamma": [0.0, 0.0, 0.0], "sigma": 1.0}


def test_simulate_writes_paths_and_summary(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 11,
        "model": BASE_MODEL,
        "sim": {"T": 0.2, "dt": 1e-3, "paths": 2},
    })
    out = tmp_path / "out"
    code = run(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.csv").exists()
    summary = read_json(out / "simulate_summary.json")
    assert summary["results"]["n_paths"] == 2
    assert summary["config"]["seed"] == 11
    assert "created_utc" in summary["meta"]


def test_outputs_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 5,
        "model": BASE_MODEL,
        "sim": {"T": 0.1, "dt": 1e-3, "paths": 1},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "path_0000.csv").read_bytes() == (out_b / "path_0000.csv").read_bytes()
    sa = read_json(out_a / "simulate_summary.json")
    sb = read_json(out_b / "simulate_summary.json")
    sa.pop("meta")
    sb.pop("meta")
    assert sa == sb


def test_threads_do_not_change_growth_backtest(tmp_path):
    payload = {
        "seed": 13,
        "model": {"a": [1.5, 1.5, 1.5], "gamma": [0.0, 0.0, 0.0], "sigma": 1.0},
        "open_market_size": 1,
        "growth": {"n": 5_000, "sim": {"T": 2.0, "dt": 1e-3, "paths": 4}},
    }
    cfg = write_config(tmp_path, payload)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert run(["growth", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert run(["growth", "--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
    r1 = read_json(out1 / "growth_report.json")["results"]
    r4 = read_json(out4 / "growth_report.json")["results"]
    assert r1["backtest"]["per_path_log_wealth"] == r4["backtest"]["per_path_log_wealth"]
    assert r1["robust_growth"]["lambda_hat"] == r4["robust_growth"]["lambda_hat"]


def test_growth_reports_nonexistence_with_exit_zero(tmp_path):
    d, n_top = 5, 2
    gstar = 1.0 / (d - n_top) - 1e-4          # just below the threshold
    cfg = write_config(tmp_path, {
        "seed": 3,
        "model": {"a": [0.0] * d, "gamma": [gstar] * d, "sigma": 1.0},
        "open_market_size": n_top,
    })
    out = tmp_path / "out"
    assert run(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_json(out / "growth_report.json")
    assert report["results"]["exists"] is False
    assert "robust_growth" not in report["results"]


def test_growth_on_hybrid_model_exists_without_robust_rate(tmp_path):
    # the optimum exists, but the robust rate applies to rank-based models only
    cfg = write_config(tmp_path, {
        "seed": 5,
        "model": {"a": [1.5, 1.5, 1.5, 1.5], "gamma": [0.2, -0.1, 0.0, -0.1], "sigma": 1.0},
        "open_market_size": 2,
    })
    out = tmp_path / "out"
    assert run(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_json(out / "growth_report.json")
    assert report["results"]["exists"] is True
    assert "robust_growth" not in report["results"]


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"


def test_missing_seed_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "sim": {"T": 0.1, "dt": 1e-3}})
    assert run(["simulate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "seed" in err["detail"]


def test_invalid_params_exit_two_with_violated_index(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 1,
        "model": {"a": [1.0, -1.0, 0.5], "gamma": [0.0, 0.0, 0.0]},
        "sampler": {"n": 100},
    })
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert err["violated_index"] == 2


@pytest.mark.parametrize("command, payload, error_class", [
    ("growth", {"model": {"a": [2.0, 2.0, 2.0, 2.0]}, "open_market_size": 1,
                "growth": {"method": "dblquad"}}, "ConfigError"),
    ("invariant", {"model": BASE_MODEL, "sampler": {"method": "gibbs"}}, "ConfigError"),
    ("invariant", {"model": BASE_MODEL, "sampler": {"n": 10},
                   "ergodic": {"T": 1.0, "dt": 1e-3, "functions": ["median"]}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": 1.0, "dt": 0.0}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": "long", "dt": 1e-3}}, "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 4}}, "ConfigError"),
    ("limit", {"pd": {"theta": 0.5}, "schedule": {"d_list": [10, 40]},
               "limit": {"growth": {"sigma": 1.0}}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": 1.0, "dt": 1e-3, "x0": [0.7, 0.7, -0.4]}},
     "SimplexError"),
    ("invariant", {"model": {"a": [1.0, 1.0], "gamma": [0.5, 0.0]},
                   "sampler": {"method": "dirichlet"}}, "InvalidModelError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": [10, 40]},
               "limit": {"growth": {"sigma": 1.0, "N": 2}}}, "ConfigError"),
    ("growth", {"model": {"a": [2.0, 2.0, 2.0, 2.0]}, "open_market_size": 4}, "ConfigError"),
    ("limit", {"pd": {"theta": 2.0}, "schedule": {"d_list": [10, 40], "tail": "geometric"}},
     "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2, "paths": 0.5}},
     "ConfigError"),
    ("pd", {"pd": {"theta": 1.0, "n": 0.5}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": 1.0, "dt": 1e-3, "paths": 2.7}},
     "ConfigError"),
    ("growth", {"model": {"a": [1.5, 1.5, 1.5]}, "open_market_size": 1.5,
                "growth": {"method": "quadrature"}}, "ConfigError"),
    ("pd", {"pd": {"theta": 1.0, "n": 100, "max_degree": 2.7}}, "ConfigError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.5]}, "schedule": {"d_list": [10, 40]},
               "limit": {"n": 500, "growth": {"sigma": 1.0, "N": 1.5}}}, "ConfigError"),
    ("pd", {"pd": {"theta": 400.0, "n": 100}}, "ConfigError"),
    ("pd", {"seed": 1.5, "pd": {"theta": 1.0, "n": 100}}, "ConfigError"),
    ("pd", {"seed": True, "pd": {"theta": 1.0, "n": 100}}, "ConfigError"),
    ("pd", {"seed": "abc", "pd": {"theta": 1.0, "n": 100}}, "ConfigError"),
    ("pd", {"seed": [3], "pd": {"theta": 1.0, "n": 100}}, "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2, "paths": True}},
     "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2.5}}, "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "nameset_hits", "names": [2.5]}},
     "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "nameset_hits", "names": "23"}},
     "ConfigError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": [10.5, 40]},
               "limit": {"n": 500}}, "ConfigError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": []},
               "limit": {"n": 500}}, "ConfigError"),
    # a JSON boolean is no real number
    ("pd", {"pd": {"theta": True, "n": 100}}, "ConfigError"),
    ("simulate", {"model": {**BASE_MODEL, "sigma": True}, "sim": {"T": 1.0, "dt": 1e-3}},
     "ConfigError"),
    ("simulate", {"model": {"a": [True, True, True]}, "sim": {"T": 1.0, "dt": 1e-3}},
     "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": True, "dt": 1e-3}}, "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2,
                                                    "eps": [True, 1e-3]}}, "ConfigError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.5]}, "schedule": {"d_list": [10, 40]},
               "limit": {"n": 500, "growth": {"sigma": 1.0, "N": True}}}, "ConfigError"),
    ("invariant", {"model": BASE_MODEL, "sampler": {"n": 10}, "tolerances": {"ergodic_z": True},
                   "ergodic": {"T": 1.0, "dt": 1e-3}}, "ConfigError"),
    ("limit", {"pd": {"theta": 2.0, "tilt": [True]}, "schedule": {"d_list": [10, 40]},
               "limit": {"n": 500}}, "ConfigError"),
    ("limit", {"pd": {"theta": True}, "schedule": {"d_list": [10, 40]}, "limit": {"n": 500}},
     "ConfigError"),
    # nor are the NaN and Infinity that JSON readers accept
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2,
                                                    "T": float("inf"), "paths": 4}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": 0.5, "dt": float("inf")}}, "ConfigError"),
    ("simulate", {"model": BASE_MODEL, "sim": {"T": float("nan"), "dt": 1e-3}}, "ConfigError"),
    ("simulate", {"model": {**BASE_MODEL, "sigma": float("inf")}, "sim": {"T": 0.5, "dt": 1e-3}},
     "ConfigError"),
    ("boundary", {"model": BASE_MODEL, "boundary": {"kind": "rank_hits", "k": 2,
                                                    "eps": [float("-inf")]}}, "ConfigError"),
    ("pd", {"pd": {"theta": 1.0, "n": 100, "max_degree": 1}}, "ConfigError"),
    # statistic indices outside 1..d: index 0 would read the last coordinate
    *[("invariant", {"model": BASE_MODEL, "sampler": {"n": 10},
                     "ergodic": {"T": 0.01, "dt": 1e-3, "paths": 2, "functions": [stat]}},
       "ConfigError") for stat in ("y0", "x0", "rank0_is_1", "y5")],
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": [5, 10]},
               "limit": {"n": 500, "functions": ["y50"]}}, "ConfigError"),
    # one path gives no standard error for its time average
    ("invariant", {"model": BASE_MODEL, "sampler": {"n": 10},
                   "ergodic": {"T": 0.01, "dt": 1e-3, "paths": 1}}, "ConfigError"),
    # one draw gives no standard error for a Monte Carlo mean
    ("limit", {"pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": [10, 40]},
               "limit": {"n": 1, "functions": ["y1"]}}, "ConfigError"),
    ("growth", {"model": {"a": [1.5, 1.5, 1.5], "gamma": [0.0] * 3}, "open_market_size": 1,
                "growth": {"method": "mc", "n": 1}}, "ConfigError"),
    ("pd", {"pd": {"theta": 1.0, "n": 1}}, "ConfigError"),
])
def test_typed_config_and_model_errors_exit_two(tmp_path, capsys, monkeypatch,
                                                command, payload, error_class):
    import openjacobi.cli as cli

    raised = []
    fail = cli._fail

    def recording_fail(kind, exc, code):
        raised.append(exc)
        return fail(kind, exc, code)

    monkeypatch.setattr(cli, "_fail", recording_fail)
    cfg = write_config(tmp_path, {"seed": 4, **payload})
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert type(raised[0]).__name__ == error_class


def test_ergodic_statistics_read_the_last_coordinate(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 4, "model": BASE_MODEL, "sampler": {"n": 200},
        "ergodic": {"T": 0.05, "dt": 1e-3, "paths": 2,
                    "functions": ["x3", "y3", "y3^2", "rank3_is_3"]},
    })
    out = tmp_path / "out"
    assert run(["invariant", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_json(out / "invariant_report.json")["results"]["ergodic"]
    assert [row["function_id"] for row in rows] == ["x3", "y3", "y3^2", "rank3_is_3"]
    assert all(0.0 <= row["time_avg"] <= 1.0 for row in rows)


def test_limit_statistic_reads_pd_weights_beyond_the_stick_table(tmp_path):
    # theta = 0.5 leaves every draw within one 64-stick block, so rank 80 of
    # the limit law is a zero appended to the table
    cfg = write_config(tmp_path, {
        "seed": 3, "pd": {"theta": 0.5, "tilt": [0.0]}, "schedule": {"d_list": [100, 120]},
        "limit": {"n": 200, "functions": ["y80", "y100"]},
    })
    out = tmp_path / "out"
    assert run(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "limit_convergence.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[4] == "0" for row in rows)


def test_growth_quadrature_serves_every_open_market_size(tmp_path):
    # d = 4 with N = 1 < d - 1: the small-cap term comes from the shell recursion
    rates = {}
    for method in ("quadrature", "mc"):
        cfg = write_config(tmp_path, {
            "seed": 4,
            "model": {"a": [-1.0, 0.2, 0.3, 2.1], "gamma": [0.0] * 4},
            "open_market_size": 1,
            "growth": {"method": method, "n": 100_000},
        }, name=f"{method}.json")
        out = tmp_path / method
        assert run(["growth", "--config", str(cfg), "--out", str(out)]) == 0
        rates[method] = read_json(out / "growth_report.json")["results"]["robust_growth"]
    gap = abs(rates["quadrature"]["lambda_hat"] - rates["mc"]["lambda_hat"])
    assert gap < 4.0 * rates["mc"]["stderr"]


def test_unexpected_error_exits_four(tmp_path, capsys, monkeypatch):
    import openjacobi.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli.sde_mod, "run_paths", broken)
    cfg = write_config(tmp_path, {"seed": 4, "model": BASE_MODEL,
                                  "sim": {"T": 0.01, "dt": 1e-3}})
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "internal"
    assert err["detail"] == "ValueError: operands could not be broadcast together"
    assert "broken" in err["traceback"]


COARSE = {"a": [1.0, 1.0], "gamma": [0.0, 0.0], "sigma": 3.0}   # dt = 0.01 under-resolves it


@pytest.mark.parametrize("command, payload, report", [
    pytest.param("simulate", {"seed": 2, "model": BASE_MODEL,
                              "sim": {"T": 10.0, "dt": 0.5, "paths": 4}},
                 "simulate_summary.json", id="simulate"),
    pytest.param("invariant", {"seed": 2, "model": COARSE, "sampler": {"n": 200},
                               "ergodic": {"T": 5.0, "dt": 0.01, "paths": 2}},
                 "invariant_report.json", id="invariant"),
    pytest.param("boundary", {"seed": 2, "model": COARSE, "boundary": {
        "kind": "rank_hits", "k": 2, "T": 5.0, "dt": 0.01, "paths": 20}},
                 "boundary_verdict.json", id="boundary"),
    pytest.param("growth", {"seed": 3, "model": COARSE, "open_market_size": 1, "growth": {
        "n": 5000, "sim": {"T": 20.0, "dt": 0.01, "paths": 6}}},
                 "growth_report.json", id="growth"),
])
def test_under_resolved_simulation_exits_three(tmp_path, capsys, command, payload, report):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "diagnostic"
    assert "under-resolved" in err["detail"]
    # artifacts are still written for post-mortem inspection
    assert (out / report).exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_two(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, {"seed": 2, "model": BASE_MODEL,
                                  "sim": {"T": 0.01, "dt": 1e-3}})
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "--threads" in err["detail"]
    assert not out.exists()


def test_simulate_starts_at_custom_x0(tmp_path):
    cfg = write_config(tmp_path, {"seed": 11, "model": BASE_MODEL,
                                  "sim": {"T": 0.01, "dt": 1e-3, "x0": [0.5, 0.3, 0.2]}})
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "path_0000.csv", delimiter=",", skiprows=1)
    assert rows[0].tolist() == [0.0, 0.5, 0.3, 0.2]


def test_invariant_samples_and_ergodic_report(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 21,
        "model": BASE_MODEL,
        "sampler": {"n": 2_000, "kind": "ranked"},
        "ergodic": {"T": 5.0, "dt": 1e-3, "paths": 2, "functions": ["one", "y1"]},
        "tolerances": {"ergodic_z": 4.0},
    })
    out = tmp_path / "out"
    assert run(["invariant", "--config", str(cfg), "--out", str(out)]) == 0
    samples = np.loadtxt(out / "invariant_samples.csv", delimiter=",", skiprows=1)
    assert samples.shape == (2_000, 3)
    report = read_json(out / "invariant_report.json")
    assert report["results"]["method"] == "spacing"
    ids = {row["function_id"] for row in report["results"]["ergodic"]}
    assert ids == {"one", "y1"}


def test_invariant_with_ergodic_block_draws_once(tmp_path, monkeypatch):
    import openjacobi.cli as cli

    calls = []
    sample_invariant = cli.invariant_mod.sample_invariant

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return sample_invariant(*args, **kwargs)

    monkeypatch.setattr(cli.invariant_mod, "sample_invariant", counting)
    cfg = write_config(tmp_path, {
        "seed": 21, "model": BASE_MODEL, "sampler": {"n": 500},
        "ergodic": {"T": 1.0, "dt": 1e-3, "paths": 2, "functions": ["y1"]},
    })
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("method, model", [
    ("dirichlet", {"a": [0.0] * 3, "gamma": [1.0, 2.0, 0.5]}),
    ("spacing", BASE_MODEL),
    ("mcmc", {"a": [1.0, 0.5, 0.5], "gamma": [0.3, 0.2, 0.1]}),
])
def test_ergodic_block_leaves_ranked_samples_unchanged(tmp_path, method, model):
    # the ergodic check draws named samples; ranking them must reproduce
    # the sampler's ranked rows bit for bit
    base = {"seed": 27, "model": model, "sampler": {"n": 500, "method": method}}
    ergodic = {"ergodic": {"T": 0.5, "dt": 2e-4, "paths": 2, "functions": ["x1"]}}
    written = []
    for name, payload in (("plain", base), ("ergodic", {**base, **ergodic})):
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "invariant_samples.csv").read_bytes())
    assert written[0] == written[1]


def test_boundary_command_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 7,
        "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0], "sigma": 1.0},
        "boundary": {"kind": "rank_hits", "k": 2, "T": 5.0, "paths": 40,
                     "eps": [1e-2, 1e-3]},
    })
    out = tmp_path / "out"
    assert run(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "boundary_frequencies.csv").read_text().splitlines()
    assert lines[0] == "eps,frequency,ci_lo,ci_hi"
    assert len(lines) == 3
    verdict = read_json(out / "boundary_verdict.json")
    assert verdict["results"]["analytic_avoids"] is False


@pytest.mark.parametrize("plain, pushed", [
    ({"kind": "rank_hits", "k": 2}, {"kind": "rank_pushed_only", "k": 2}),
    ({"kind": "nameset_hits", "names": [2]}, {"kind": "nameset_pushed_only", "names": [2]}),
])
def test_boundary_command_pushed_only_dips_are_dips(tmp_path, plain, pushed):
    # the same seed drives the same paths, and a pushed-only dip is a dip
    model = {"a": [1.0, 0.8, 0.7], "gamma": [0.2, 0.0, -0.1], "sigma": 1.0}
    freqs = []
    for name, query in (("plain", plain), ("pushed", pushed)):
        cfg = write_config(tmp_path, {
            "seed": 41, "model": model,
            "boundary": {**query, "T": 2.0, "paths": 8, "eps": [0.2, 0.05, 1e-2]},
        }, name=f"{name}.json")
        out = tmp_path / name
        assert run(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "boundary_frequencies.csv").read_text().splitlines()[1:]
        freqs.append(np.array([float(row.split(",")[1]) for row in rows]))
    assert np.all(freqs[1] <= freqs[0])
    assert freqs[0].max() > 0.0


def test_pd_command_moment_tables(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 17,
        "pd": {"theta": 1.0, "n": 5_000, "max_degree": 4},
    })
    out = tmp_path / "out"
    assert run(["pd", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_json(out / "pd_report.json")
    table = report["results"]["recursion_table"]
    assert table["phi2"] == pytest.approx(0.5)
    assert table["phi2*phi2"] == pytest.approx(7 / 24)
    lines = (out / "pd_moments.csv").read_text().splitlines()
    assert lines[0] == "product,recursion,mc,se"
    assert len(lines) == 1 + 4        # phi2, phi3, phi4, phi2*phi2


def test_pd_command_computes_each_power_sum_once(tmp_path, monkeypatch):
    import openjacobi.cli as cli

    calls = []
    pd_power_sums = cli.pdlimit_mod.pd_power_sums

    def counting(theta, n, seed, max_degree):
        sums, tail_mass = pd_power_sums(theta, n, seed, max_degree)
        calls.append(len(sums))
        return sums, tail_mass

    monkeypatch.setattr(cli.pdlimit_mod, "pd_power_sums", counting)
    cfg = write_config(tmp_path, {"seed": 17, "pd": {"theta": 1.0, "n": 200, "max_degree": 6}})
    assert run(["pd", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [5]     # phi2..phi6 in one call, not one call per part of 10 products


def test_limit_command_convergence_and_growth(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 23,
        "pd": {"theta": 2.0, "tilt": [0.0]},
        "schedule": {"d_list": [10, 40], "tail": "flat"},
        "limit": {"n": 20_000, "functions": ["phi2"],
                  "growth": {"sigma": 1.0, "N": 1}},
    })
    out = tmp_path / "out"
    assert run(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "limit_convergence.csv").read_text().splitlines()
    assert rows[0] == "d,function_id,estimate,se,tilted_limit,gap"
    assert len(rows) == 3
    report = read_json(out / "limit_report.json")
    assert "limit_growth" in report["results"]


def test_limit_with_growth_draws_one_pd_sample(tmp_path, monkeypatch):
    import openjacobi.cli as cli

    calls = []
    pd_sample = cli.pdlimit_mod.pd_sample

    def counting(*args):
        calls.append(args)
        return pd_sample(*args)

    monkeypatch.setattr(cli.pdlimit_mod, "pd_sample", counting)
    cfg = write_config(tmp_path, {
        "seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]}, "schedule": {"d_list": [10, 40]},
        "limit": {"n": 2_000, "growth": {"sigma": 1.0, "N": 1}},
    })
    assert run(["limit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_heavy_tilt_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 29,
        "pd": {"theta": 1.0, "tilt": [-30.0]},
        "schedule": {"d_list": [10]},
        "limit": {"n": 2_000, "functions": ["phi2"]},
    })
    assert run(["limit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "diagnostic"


def no_sticks(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew sticks")

    monkeypatch.setattr("openjacobi.pdlimit.substream", refuse)


@pytest.mark.parametrize("payload", [
    {"pd": {"theta": 330.0, "n": 20}},            # n * P(more than 10 000 sticks) = 2.2
    {"pd": {"theta": 312.0, "n": 100_000}},       # 7e-12 for one draw, 7e-7 for all
    {"pd": {"theta": 312.0}, "schedule": {"d_list": [400]}, "limit": {"n": 100_000}},
])
def test_pd_stick_cap_exits_two_before_drawing(tmp_path, capsys, monkeypatch, payload):
    no_sticks(monkeypatch)
    command = "limit" if "limit" in payload else "pd"
    cfg = write_config(tmp_path, {"seed": 3, **payload})
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "sticks per draw" in err["detail"]


def test_pd_truncation_risk_exits_two_before_drawing(tmp_path, capsys, monkeypatch):
    # under a cap of 20 sticks theta = 0.5 needs more with chance 0.12 per draw
    monkeypatch.setattr("openjacobi.pdlimit.MAX_STICKS", 20)
    no_sticks(monkeypatch)
    cfg = write_config(tmp_path, {"seed": 3, "pd": {"theta": 0.5, "n": 100}})
    assert run(["pd", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "more than 20 sticks per draw" in err["detail"]


def test_pd_truncation_too_short_exits_three(tmp_path, capsys, monkeypatch):
    # with the up-front risk check switched off, some of 100 draws need more than 20
    monkeypatch.setattr("openjacobi.pdlimit.MAX_STICKS", 20)
    monkeypatch.setattr("openjacobi.pdlimit.STICK_CAP_RISK", float("inf"))
    cfg = write_config(tmp_path, {"seed": 3, "pd": {"theta": 0.5, "n": 100}})
    assert run(["pd", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "diagnostic"
    assert "more than 20 sticks" in err["detail"]


HYBRID_MODEL = {"a": [1.0, 0.5, 0.5], "gamma": [0.3, 0.2, 0.1], "sigma": 1.0}


def test_invariant_reports_acceptance_and_rhat(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 19, "model": HYBRID_MODEL,
        "sampler": {"n": 1_000, "kind": "named", "method": "mcmc"},
    })
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / "mcmc")]) == 0
    res = read_json(tmp_path / "mcmc" / "invariant_report.json")["results"]
    assert 0.0 < res["acceptance_rate"] < 1.0
    assert res["ess"] >= 1_000
    assert "rhat" not in res
    cfg = write_config(tmp_path, {"seed": 19, "model": BASE_MODEL, "sampler": {"n": 100}})
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / "spacing")]) == 0
    res = read_json(tmp_path / "spacing" / "invariant_report.json")["results"]
    assert res["method"] == "spacing"
    assert "rhat" not in res


def test_invariant_samples_a_hybrid_beyond_six_names(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 5, "sampler": {"n": 500, "kind": "named"},
        "model": {"a": [1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.5],
                  "gamma": [0.3, -0.1, 0.2, 0.0, -0.2, 0.1, 0.4]},
    })
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    samples = np.loadtxt(tmp_path / "o" / "invariant_samples.csv", delimiter=",", skiprows=1)
    assert samples.shape == (500, 7)
    assert np.allclose(samples.sum(axis=1), 1.0)


# abar_1 = -15 at d = 10: the spacing sampler's y_1 >= 1/d bound accepts
# about 4e-5 of its proposals, below the 1e-3 floor
LOW_ACCEPTANCE_MODEL = {"a": [-19.5] + [0.5] * 9, "gamma": [0.0] * 10, "sigma": 1.0}


def test_growth_mc_exits_three_on_sampler_warnings(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 5, "model": LOW_ACCEPTANCE_MODEL, "open_market_size": 1,
        "growth": {"method": "mc", "n": 20},
    })
    assert run(["growth", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "diagnostic"
    assert "below floor" in err["detail"]
    growth = read_json(tmp_path / "growth_report.json")["results"]["robust_growth"]
    assert growth["warnings"] == [err["detail"]]


def test_spacing_sampler_stall_exits_three(tmp_path, capsys):
    model = {"a": [-34.75] + [0.25] * 19, "gamma": [0.0] * 20, "sigma": 1.0}
    cfg = write_config(tmp_path, {"seed": 5, "model": model, "sampler": {"n": 10}})
    assert run(["invariant", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "diagnostic"
    assert "accepted none" in err["detail"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 1,
        "model": BASE_MODEL,
        "sim": {"T": 0.05, "dt": 1e-3, "paths": 1},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", str(cfg), "--out", str(out_a),
                "--seed", "99"]) == 0
    assert run(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "path_0000.csv").read_bytes() != (out_b / "path_0000.csv").read_bytes()
    assert read_json(out_a / "simulate_summary.json")["config"]["seed"] == 99


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 64 + 1, -1])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, seed, where):
    payload = {"model": BASE_MODEL, "sim": {"T": 0.01, "dt": 1e-3}}
    if where == "config":
        payload["seed"] = seed
    cfg = write_config(tmp_path, payload)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += ["--seed", str(seed)]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "seed" in err["detail"]


def test_largest_seed_runs(tmp_path):
    cfg = write_config(tmp_path, {"seed": 2 ** 64 - 1, "model": BASE_MODEL,
                                  "sim": {"T": 0.01, "dt": 1e-3}})
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


SHORT_BOUNDARY = {"T": 0.5, "paths": 10}


@pytest.mark.parametrize("command, payload, whole", [
    ("pd", {"seed": 7.0}, {"seed": 7}),
    ("pd", {"seed": "7"}, {"seed": 7}),
    ("boundary", {"boundary": {"kind": "rank_hits", "k": 2.0, **SHORT_BOUNDARY}},
     {"boundary": {"kind": "rank_hits", "k": 2, **SHORT_BOUNDARY}}),
    ("boundary", {"boundary": {"kind": "nameset_hits", "names": [2.0], **SHORT_BOUNDARY}},
     {"boundary": {"kind": "nameset_hits", "names": [2], **SHORT_BOUNDARY}}),
    ("limit", {"schedule": {"d_list": [10.0, 40]}}, {"schedule": {"d_list": [10, 40]}}),
])
def test_whole_number_counts_run_as_their_integer(tmp_path, command, payload, whole):
    base = {
        "pd": {"seed": 7, "pd": {"theta": 1.0, "n": 500, "max_degree": 3}},
        "boundary": {"seed": 7, "model": BASE_MODEL},
        "limit": {"seed": 7, "pd": {"theta": 2.0, "tilt": [0.0]}, "limit": {"n": 500}},
    }[command]
    results = []
    for name, part in (("float", payload), ("int", whole)):
        cfg = {**base, **part}
        out = tmp_path / name
        assert run([command, "--config", str(write_config(tmp_path, cfg, f"{name}.json")),
                    "--out", str(out)]) == 0
        files, _ = _outputs(out)
        results.append({key: json.loads(value)["results"] if key.endswith(".json") else value
                        for key, value in files.items()})
    assert results[0] == results[1]


def test_largest_seed_is_echoed_exactly(tmp_path):
    cfg = write_config(tmp_path, {"seed": 2 ** 64 - 1, "pd": {"theta": 1.0, "n": 100}})
    out = tmp_path / "o"
    assert run(["pd", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "pd_report.json")["config"]["seed"] == 2 ** 64 - 1


def _outputs(out):
    """Every output file's bytes; JSON reports without ``meta``, which is
    returned separately."""
    files, meta = {}, {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = read_json(path)
            meta[path.name] = doc.pop("meta")
            files[path.name] = json.dumps(doc, sort_keys=True)
        else:
            files[path.name] = path.read_bytes()
    return files, meta


@pytest.mark.skipif(shutil.which("gcc") is None,
                    reason="no C compiler (gcc on PATH), so the compiled Euler "
                           "kernel cannot be built")
@pytest.mark.parametrize("command, payload", [
    ("growth", {
        "seed": 31,
        "model": {"a": [1.5, 1.5, 1.5], "gamma": [0.0, 0.0, 0.0], "sigma": 1.0},
        "open_market_size": 1,
        "growth": {"n": 2_000, "sim": {"T": 1.0, "dt": 1e-3, "paths": 3}},
    }),
    ("boundary", {
        "seed": 32,
        "model": {"a": [1.0, 0.5], "gamma": [0.0, 0.0], "sigma": 0.11},
        "boundary": {"kind": "rank_hits", "k": 2, "T": 1.0, "paths": 30, "dt": 1e-3},
    }),
])
def test_outputs_identical_across_euler_backends(tmp_path, monkeypatch, command, payload):
    assert _kernel.load() is not None, _kernel.failure
    cfg = write_config(tmp_path, payload)
    fast, slow = tmp_path / "c", tmp_path / "numpy"
    assert run([command, "--config", str(cfg), "--out", str(fast), "--threads", "2"]) == 0
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert run([command, "--config", str(cfg), "--out", str(slow), "--threads", "2"]) == 0
    fast_files, fast_meta = _outputs(fast)
    slow_files, slow_meta = _outputs(slow)
    assert fast_files == slow_files
    assert {m["euler_backend"] for m in fast_meta.values()} == {"c"}
    assert {m["euler_backend"] for m in slow_meta.values()} == {"numpy"}


def test_write_csv_float_rows_match_the_csv_writer(tmp_path):
    # float-only rows take one format string, the others the csv writer;
    # both must give the bytes of formatting every value for the csv writer
    import csv

    from openjacobi._util import write_csv

    rows = [[0.0, -0.0, 1.0], np.array([5e-324, np.nan, -np.inf]),
            [np.float64(0.1), np.float32(0.1), 1e300], ["phi2", 1.5, 2],
            (np.int64(3), 2 ** 60, True), [0.25, "a,b", None], []]
    write_csv(tmp_path / "fast.csv", ["a", "b", "c"], iter(rows))
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        for row in rows:
            writer.writerow([f"{float(v):.17g}" if isinstance(v, (float, np.floating))
                             else int(v) if isinstance(v, np.integer) else v for v in row])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_euler_backend_only_in_reports_that_took_euler_steps(tmp_path):
    cfg = write_config(tmp_path, {"seed": 3, "pd": {"theta": 1.0, "n": 200, "max_degree": 3}})
    assert run(["pd", "--config", str(cfg), "--out", str(tmp_path / "pd")]) == 0
    assert "euler_backend" not in read_json(tmp_path / "pd" / "pd_report.json")["meta"]
    cfg = write_config(tmp_path, {"seed": 3, "model": BASE_MODEL,
                                  "sim": {"T": 0.01, "dt": 1e-3}})
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    meta = read_json(tmp_path / "sim" / "simulate_summary.json")["meta"]
    assert meta["euler_backend"] in ("c", "numpy")


IMPORT_WEIGHT_SCRIPT = """
import json, sys, tempfile
from pathlib import Path

from openjacobi import cli, simplex

configs = {
    "boundary": {"seed": 7, "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0], "sigma": 1.0},
                 "boundary": {"kind": "rank_hits", "k": 2, "T": 0.5, "paths": 4,
                              "eps": [1e-2]}},
    "growth": {"seed": 13, "open_market_size": 1,
               "model": {"a": [1.5, 1.5, 1.5], "gamma": [0.0, 0.0, 0.0], "sigma": 1.0},
               "growth": {"n": 500, "sim": {"T": 0.1, "dt": 1e-3, "paths": 2}}},
}
with tempfile.TemporaryDirectory() as tmp:
    for command, payload in configs.items():
        cfg = Path(tmp) / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        code = cli.run([command, "--config", str(cfg), "--out", str(Path(tmp) / command)])
        assert code == 0, (command, code)
loaded = [m for m in ("scipy.special._ufuncs", "scipy.integrate._quadpack") if m in sys.modules]
assert not loaded, loaded
assert callable(simplex.integrate.quad)        # the benchmark tracer wraps it
"""


def test_boundary_and_mc_growth_run_without_loading_scipy():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_WEIGHT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
