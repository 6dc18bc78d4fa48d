import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import pdtrc

from openjacobi import (
    ModelParams,
    PDConfig,
    convergence_experiment,
    limit_growth_rate,
    make_schedule,
    moment_recursion,
    pd_power_sums,
    pd_sample,
    power_sum,
    robust_growth_rate,
    sample_invariant,
    tilted_estimator,
)
from openjacobi._util import z_score
from openjacobi.pdlimit import (
    HARD_TAIL_FLOOR,
    MAX_STICKS,
    HeavyTiltError,
    TruncationError,
    _poisson_upper_tail,
    require_stick_cap,
)


def mc_z(values, target):
    m = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    return z_score(m, se, target, 0.0)


def no_sticks(monkeypatch):
    """Make any stick draw fail the test."""
    def refuse(*args):
        raise AssertionError("drew sticks")

    monkeypatch.setattr("openjacobi.pdlimit.substream", refuse)


# ---------------------------------------------------------------------------
# configuration validity
# ---------------------------------------------------------------------------

def test_pdconfig_requires_positive_theta():
    with pytest.raises(ValueError):
        PDConfig(theta=0.0)


def test_pdconfig_tilt_tail_condition_is_strict():
    PDConfig(theta=1.0, tilt=(5.0, -0.99))
    with pytest.raises(ValueError):
        PDConfig(theta=1.0, tilt=(5.0, -1.0))     # tail sum equals -theta
    # the first tilt entry is unconstrained
    PDConfig(theta=1.0, tilt=(-25.0,))


def test_pdconfig_expected_stick_count_bound():
    # one draw needs 1 + Poisson(theta * ln 1e13) sticks: at theta = 300 (mean
    # 8980) more than the 10 000 cap has chance 2e-26, at theta = 400 (mean
    # 11 974) it is near certain
    with pytest.raises(ValueError, match="sticks per draw"):
        PDConfig(theta=400.0)
    PDConfig(theta=300.0)


def test_stick_cap_counts_every_draw(monkeypatch):
    # theta = 312 passes for one draw (n * tail 7e-12) but not for 1e5 draws
    # (7e-7 against the 1e-9 accepted), and is refused before any stick is drawn
    no_sticks(monkeypatch)
    PDConfig(theta=312.0)
    require_stick_cap(312.0, 1)
    with pytest.raises(ValueError, match="sticks per draw"):
        require_stick_cap(312.0, 100_000)
    with pytest.raises(ValueError, match="n=100000"):
        pd_sample(theta=312.0, n=100_000, seed=0)


@pytest.mark.parametrize("theta", [1, 250, 300, 309, 312, 314, 320, 334, 340, 360, 1000, 5000])
def test_stick_cap_risk_matches_the_poisson_tail(theta):
    # the refusal boundary lies near theta 309-314; up to theta ~ 369 the
    # tail is summed from MAX_STICKS (through the mean c once theta > 334),
    # beyond that it is 1 without a sum, where a sum from MAX_STICKS would
    # underflow to 0 from theta ~ 480
    c = theta * math.log(1.0 / HARD_TAIL_FLOOR)
    risk, ref = _poisson_upper_tail(MAX_STICKS, c), pdtrc(MAX_STICKS - 1, c)
    if ref == 0.0:
        assert risk == 0.0
    else:
        assert risk == pytest.approx(ref, rel=1e-9)


def test_stick_cap_refuses_large_theta_and_reports_the_risk():
    with pytest.raises(ValueError, match="sticks per draw"):
        require_stick_cap(1000.0, 2)
    with pytest.raises(ValueError, match="probability up to 7.13e-07 over n=100000"):
        require_stick_cap(312.0, 100_000)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_pd_sample_draws_are_ordered_and_account_for_mass():
    sample = pd_sample(theta=1.0, n=2_000, seed=0)
    w = sample.weights
    assert np.all(w >= 0.0)
    assert np.all(np.diff(w, axis=1) <= 0.0)
    total = w.sum(axis=1) + sample.tail_mass
    assert np.abs(total - 1.0).max() < 1e-12
    assert sample.tail_mass.max() < 1e-10


def test_pd_sample_deterministic_in_seed():
    a = pd_sample(theta=0.5, n=100, seed=9)
    b = pd_sample(theta=0.5, n=100, seed=9)
    assert np.array_equal(a.weights, b.weights)


def test_pd_sample_mass_accounting_at_extreme_theta():
    # theta = 1e-3: the first stick takes nearly everything and the leftovers
    # underflow; theta = 300: about 9000 sticks per draw
    for theta, n in ((1e-3, 2_000), (300.0, 20)):
        sample = pd_sample(theta=theta, n=n, seed=5)
        w = sample.weights
        assert not np.isnan(w).any() and not np.isnan(sample.tail_mass).any()
        assert np.all(w >= 0.0)
        assert np.all(np.diff(w, axis=1) <= 0.0)
        total = w.sum(axis=1) + sample.tail_mass
        assert np.abs(total - 1.0).max() < 1e-12, theta
        assert sample.tail_mass.max() < 1e-13


def test_pd_sample_stick_cap_refuses_before_drawing(monkeypatch):
    # under a cap of 20 sticks theta = 0.5 needs 1 + Poisson(15) sticks, more
    # than 20 with chance 0.12 per draw: 100 draws are refused up front
    monkeypatch.setattr("openjacobi.pdlimit.MAX_STICKS", 20)
    no_sticks(monkeypatch)
    with pytest.raises(ValueError, match="more than 20 sticks per draw"):
        pd_sample(theta=0.5, n=100, seed=3)


def test_pd_sample_truncation_too_short_for_tail_floor_is_typed(monkeypatch):
    # with the up-front risk check switched off, some of the 100 draws above
    # still need more than 20 sticks to reach the floor
    monkeypatch.setattr("openjacobi.pdlimit.MAX_STICKS", 20)
    monkeypatch.setattr("openjacobi.pdlimit.STICK_CAP_RISK", math.inf)
    with pytest.raises(TruncationError, match="more than 20 sticks"):
        pd_sample(theta=0.5, n=100, seed=3)


def test_pd_sample_top_share_moment():
    sample = pd_sample(theta=1.0, n=50_000, seed=1)
    # E[Y_1] under PD(1) is the Golomb-Dickman constant
    assert abs(mc_z(sample.weights[:, 0], 0.6243299885435508)) < 3.0
    # E[phi_2] = 1/(1+theta)
    assert abs(mc_z(power_sum(sample.weights, 2), 0.5)) < 3.0


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta, n, seed", [
    (0.5, 1_000, 3), (1.0, 5_000, 1), (2.0, 5_000, 4), (20.0, 2_000, 59), (50.0, 3_000, 5),
])
def test_streamed_power_sums_match_the_ranked_table(theta, n, seed):
    # from one block of sticks (theta = 0.5) to 27 (theta = 50)
    sample = pd_sample(theta, n, seed)
    sums, tail_mass = pd_power_sums(theta, n, seed, max_degree=6)
    assert sums.shape == (5, n)
    for m in range(2, 7):
        np.testing.assert_allclose(sums[m - 2], power_sum(sample.weights, m), rtol=1e-13, atol=0)
    assert np.array_equal(tail_mass, sample.tail_mass)


@pytest.mark.parametrize("chunk", [1, 7, 5_000])
def test_stick_draws_do_not_depend_on_the_row_chunk(monkeypatch, chunk):
    theta, n, seed = 5.0, 3_000, 89            # four blocks of sticks
    sample = pd_sample(theta, n, seed)
    sums, tail_mass = pd_power_sums(theta, n, seed, max_degree=4)
    monkeypatch.setattr("openjacobi.pdlimit.PD_ROW_CHUNK", chunk)
    chunked = pd_sample(theta, n, seed)
    assert np.array_equal(chunked.weights, sample.weights)
    assert np.array_equal(chunked.tail_mass, sample.tail_mass)
    chunked_sums, chunked_tail = pd_power_sums(theta, n, seed, max_degree=4)
    assert np.array_equal(chunked_sums, sums)
    assert np.array_equal(chunked_tail, tail_mass)


def test_streamed_power_sums_need_degree_two():
    with pytest.raises(ValueError, match="max_degree"):
        pd_power_sums(1.0, 10, 0, max_degree=1)


STREAMED_PD_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
from openjacobi.cli import run

with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "pd.json"
    cfg.write_text(json.dumps({"seed": 5, "pd": {"theta": 300.0, "n": 15000}}))
    code = run(["pd", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    rows = (Path(tmp) / "out" / "pd_moments.csv").read_text().splitlines()
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "rows": len(rows), "peak_mb": peak_kb / 1024}))
"""


# VmHWM is this process's own peak; ru_maxrss of an exec'd child would also
# count the pages of the process that forked it
@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_pd_command_keeps_no_stick_table_at_large_theta():
    # about 9000 sticks for each of 15 000 draws: a stick table would take 1.08 GB
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", STREAMED_PD_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["rows"] == 1 + 10               # products of total degree 2..6
    assert result["peak_mb"] < 250.0


def test_power_sum_conventions():
    y = np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.25]])
    assert np.allclose(power_sum(y, 3), [1.0, 3 * 0.25 ** 3])
    assert np.allclose(power_sum(y, 1), 1.0)       # mass convention
    atoms = np.full(4, 0.25)
    assert power_sum(atoms, 2.5) == pytest.approx(4 ** (1 - 2.5))


# ---------------------------------------------------------------------------
# moment recursion
# ---------------------------------------------------------------------------

def test_moment_recursion_base_cases():
    assert moment_recursion(1.0, [2]) == pytest.approx(0.5)
    # one recursion step: 3 (2 + theta) E[phi_3] = 6 E[phi_2]
    assert moment_recursion(1.0, [3]) == pytest.approx(1 / 3)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_moment_recursion_singletons_match_beta_integral(theta, m):
    # independent closed form: E[sum Y^m] = theta * B(m, theta)
    assert moment_recursion(theta, [m]) == pytest.approx(
        theta * beta_fn(m, theta), rel=1e-12
    )


def test_moment_recursion_strictly_decreasing_in_power():
    for theta in (0.5, 1.0, 2.0):
        vals = [moment_recursion(theta, [m]) for m in range(2, 9)]
        assert np.all(np.diff(vals) < 0.0)


def test_moment_recursion_products_match_monte_carlo():
    sample = pd_sample(theta=2.0, n=50_000, seed=2)
    w = sample.weights
    for ms in [(2, 2), (2, 3), (2, 2, 2)]:
        vals = np.ones(w.shape[0])
        for m in ms:
            vals = vals * power_sum(w, m)
        assert abs(mc_z(vals, moment_recursion(2.0, ms))) < 3.0, ms


def test_moment_recursion_rejects_low_powers():
    with pytest.raises(ValueError):
        moment_recursion(1.0, [1, 2])


# ---------------------------------------------------------------------------
# tilted expectations
# ---------------------------------------------------------------------------

def test_tilted_expect_without_tilt_is_plain_mean():
    cfg = PDConfig(theta=1.0, tilt=())
    est = tilted_estimator(cfg, 30_000, 3)(lambda y: power_sum(y, 2))
    assert est.ess == pytest.approx(30_000)
    assert abs(z_score(est.value, est.se, 0.5, 0.0)) < 3.0


def test_tilted_expect_constant_function_is_exact():
    cfg = PDConfig(theta=1.0, tilt=(1.0,))
    est = tilted_estimator(cfg, 5_000, 4)(lambda y: np.ones(y.shape[0]))
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert est.se == pytest.approx(0.0, abs=1e-14)


def test_tilted_expect_split_seed_self_consistency():
    cfg = PDConfig(theta=1.0, tilt=(1.0,))
    a = tilted_estimator(cfg, 40_000, 5)(lambda y: power_sum(y, 2))
    b = tilted_estimator(cfg, 40_000, 6)(lambda y: power_sum(y, 2))
    assert abs(z_score(a.value, a.se, b.value, b.se)) < 3.0


def test_tilted_expect_heavy_tilt_raises():
    cfg = PDConfig(theta=1.0, tilt=(-30.0,))
    with pytest.raises(HeavyTiltError):
        tilted_estimator(cfg, 2_000, 7)(lambda y: power_sum(y, 2))


# ---------------------------------------------------------------------------
# schedules and the convergence experiment
# ---------------------------------------------------------------------------

def test_make_schedule_flat_members_are_valid():
    sched = make_schedule(2.0, (0.5,), d_list=[10, 40, 160])
    assert list(sched) == [10, 40, 160]
    for d, params in sched.items():
        a = params.a
        assert a.size == d
        assert a[0] == 0.5
        assert a[1:].sum() == pytest.approx(2.0)
        assert np.all(np.cumsum(a[::-1])[::-1][1:] > 0.0)
    # largest tail entry shrinks along the ladder
    tails = [np.abs(params.a[1:]).max() for params in sched.values()]
    assert np.all(np.diff(tails) < 0.0)


def test_make_schedule_rejects_boundary_tilt():
    with pytest.raises(ValueError):
        make_schedule(1.0, (0.3, -1.0), d_list=[10])   # tail sum equals -theta


def test_make_schedule_rejects_a_fractional_dimension():
    with pytest.raises(ValueError, match="whole number"):
        make_schedule(2.0, (0.0,), [10.5, 40])


def test_convergence_experiment_plain_pd():
    theta = 2.0
    sched = make_schedule(theta, (), d_list=[10, 40, 320])
    cfg = PDConfig(theta=theta, tilt=())
    report = convergence_experiment(
        sched, tilted_estimator(cfg, 40_000, 8), {"phi2": lambda y: power_sum(y, 2)},
        n=40_000, seed=8,
    )
    rows = sorted(report.rows, key=lambda r: r.d)
    assert rows[0].tilted_limit == pytest.approx(1.0 / (1.0 + theta), abs=3e-3)
    gaps = [r.gap for r in rows]
    assert np.all(np.diff(gaps) < 0.0)
    assert report.passed


def test_degenerate_tilt_concentrates_on_single_atom():
    # tail mass slightly above theta, one unit of theta removed at rank 2:
    # the stationary laws drift toward a single dominant weight as d grows
    theta = 1.0
    means = []
    for d in (20, 80, 320):
        surplus = theta * (1.0 + 1.0 / math.sqrt(d))
        a = np.full(d, surplus / (d - 1))
        a[0] = 0.0
        a[1] -= theta
        params = ModelParams(a=a, gamma=np.zeros(d))
        draws = sample_invariant(params, 20_000, seed=100 + d, kind="ranked").draws
        means.append(draws[:, 0].mean())
    assert np.all(np.diff(means) > 0.0)
    assert means[-1] > 0.9


# ---------------------------------------------------------------------------
# limiting growth rate
# ---------------------------------------------------------------------------

def test_limit_growth_rate_preconditions():
    cfg = PDConfig(theta=1.0, tilt=(0.0,))
    with pytest.raises(ValueError):
        limit_growth_rate(cfg, 1.0, tilted_estimator(cfg, 1000, 9))


def test_limit_growth_rate_untilted_form():
    theta, sigma = 3.0, 1.2
    cfg = PDConfig(theta=theta, tilt=(0.0,))
    est = limit_growth_rate(cfg, sigma, tilted_estimator(cfg, 60_000, 10))
    # direct reduction: (sigma^2/8) theta^2 (E[1/(1 - Y_1)] - 1)
    plain = tilted_estimator(cfg, 60_000, 10)(lambda y: 1.0 / (1.0 - y[:, 0]))
    expected = sigma ** 2 / 8.0 * theta ** 2 * (plain.value - 1.0)
    assert est.value == pytest.approx(expected, rel=1e-12)
    assert est.se > 0.0


def test_limit_growth_rate_without_tilts_is_zero():
    # no open market: unit weights and an empty top-N sum leave theta^2 exactly
    cfg = PDConfig(theta=2.0, tilt=())
    est = limit_growth_rate(cfg, 1.0, tilted_estimator(cfg, 5_000, 12))
    assert est.value == 0.0


def test_finite_d_growth_rates_approach_limit():
    # cross-module consistency: the finite-d robust rate along a flat
    # schedule approaches the tilted-limit value as d grows
    theta, n_top = 3.0, 1
    cfg = PDConfig(theta=theta, tilt=(0.0,))
    limit = limit_growth_rate(cfg, 1.0, tilted_estimator(cfg, 200_000, 11))
    sched = make_schedule(theta, (0.0,), d_list=[12, 48, 192])
    gaps = []
    for params in sched.values():
        report = robust_growth_rate(params, n_top, method="mc",
                                    n=200_000, seed=11)
        gaps.append(abs(report.lambda_hat - limit.value))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.05 * abs(limit.value) + 3.0 * limit.se
