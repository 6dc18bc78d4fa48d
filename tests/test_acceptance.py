"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run at their stated sizes (long horizons, large
sample counts) under pinned master seeds, so the whole suite is
deterministic.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from openjacobi import (
    BoundaryQuery,
    ExpLinearGenerator,
    ModelParams,
    OccupationObserver,
    PDConfig,
    TimeAverageObserver,
    WealthObserver,
    expand_open,
    foc_residual,
    growth_exists,
    growth_optimal_theta,
    make_schedule,
    make_statistic,
    master_formula,
    mc_hit_frequency,
    moment_recursion,
    optimal_rank_holdings,
    pd_sample,
    power_sum,
    ranking_order,
    robust_growth_rate,
    run_paths,
    sample_invariant,
    simulate,
    simulate_given_noise,
    tilted_estimator,
    wealth,
)
from openjacobi._util import path_stream, substream, z_score


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion:2d}: {status} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def rank_jacobi(a, sigma=1.0):
    a = np.asarray(a, dtype=float)
    return ModelParams(a=a, gamma=np.zeros(a.size), sigma=sigma)


# ---------------------------------------------------------------------------
# shared long-horizon runs
# ---------------------------------------------------------------------------

ERGODIC_PARAMS = rank_jacobi([1.0, 1.0, 1.0], sigma=1.0)
GROWTH_PARAMS = rank_jacobi([1.5, 1.5, 1.5], sigma=1.0)


@pytest.fixture(scope="module")
def ergodic_run():
    """Criteria 4 and 8 share one 20-path, T = 2000, dt = 1e-3 batch."""
    funcs = {name: make_statistic(name) for name in ("y1", "y2", "y3", "y1^2")}
    averages = TimeAverageObserver(funcs)
    occupation = OccupationObserver(eps_ladder=(1e-2, 1e-3, 1e-4))
    return run_paths(ERGODIC_PARAMS, np.full(3, 1 / 3), T=2000.0, dt=1e-3,
                     seed=41001, n_paths=20,
                     observers={"time_averages": averages, "occupation": occupation})


@pytest.fixture(scope="module")
def growth_run():
    """Criterion 5: wealth of the growth-optimal strategy over T = 2000."""
    observer = WealthObserver(lambda x: growth_optimal_theta(x, GROWTH_PARAMS, 1),
                              GROWTH_PARAMS.sigma)
    return run_paths(GROWTH_PARAMS, np.full(3, 1 / 3), T=2000.0, dt=1e-3,
                     seed=52001, n_paths=20, observers={"wealth": observer})


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_leverage_arithmetic():
    d, gstar = 500, 1.0
    params = ModelParams(a=np.zeros(d), gamma=np.full(d, gstar), sigma=1.0)
    x = np.concatenate([[0.05], np.full(d - 1, 0.95 / (d - 1))])
    theta = growth_optimal_theta(x, params, d - 1)
    pi = theta[0] * x[0]
    err = abs(pi - (0.05 - 12.0 * gstar))
    report(1, err < 1e-12,
           f"closed-market weight at X_i=0.05, d=500: pi_hat={pi:.15f}, "
           f"|pi_hat-(-11.95)|={err:.2e} < 1e-12")


def test_criterion_2_existence_thresholds():
    checks = []
    # closed-market volatility-stabilized: exists iff gamma* >= 1
    d = 6
    for gstar, expected in [(0.9, False), (0.999999, False), (1.0, True), (2.0, True)]:
        p = ModelParams(a=np.zeros(d), gamma=np.full(d, gstar))
        checks.append(growth_exists(p, d - 1)[0] is expected)
    # open name-based: exists iff gamma* >= 1/(d - N)
    for n_top in (1, 2, 4):
        thr = 1.0 / (d - n_top)
        for bump, expected in [(-1e-9, False), (0.0, True), (1e-9, True)]:
            p = ModelParams(a=np.zeros(d), gamma=np.full(d, thr + bump))
            checks.append(growth_exists(p, n_top)[0] is expected)
    # rank-based tail specifications: spread tail works at every size,
    # concentrated tail fails at every size above N
    n_top, eta, eps = 2, 1.5, 0.5
    spread = np.zeros(d)
    spread[-1] = eta
    conc = np.zeros(d)
    conc[n_top] = eta - eps
    conc[-1] = eps
    for m in range(1, d):
        checks.append(growth_exists(rank_jacobi(spread), m)[0] is True)
    checks.append(growth_exists(rank_jacobi(conc), n_top)[0] is True)
    for m in range(n_top + 1, d):
        checks.append(growth_exists(rank_jacobi(conc), m)[0] is False)
    report(2, all(checks),
           f"{sum(checks)}/{len(checks)} existence verdicts match the "
           "closed-form thresholds exactly")


def test_criterion_3_first_order_condition():
    rng = substream(3003, "acceptance-foc")
    worst = 0.0
    for d, n_top in [(3, 1), (4, 2), (8, 4)]:
        for _ in range(1000):
            params = ModelParams(a=rng.normal(size=d), gamma=rng.normal(size=d),
                                 sigma=rng.uniform(0.5, 2.0))
            x = rng.dirichlet(np.full(d, 1.5))
            order = ranking_order(x)
            worst = max(worst, foc_residual(x[order], order, params, n_top))
    report(3, worst < 1e-10,
           f"max FOC residual over 3000 random states/(d,N) pairs: {worst:.2e} < 1e-10")


def test_criterion_4_ergodic_agreement(ergodic_run):
    averages = ergodic_run.observations["time_averages"]
    sample = sample_invariant(ERGODIC_PARAMS, 100_000, seed=41002, kind="ranked")
    stats = {
        "y1": sample.draws[:, 0],
        "y2": sample.draws[:, 1],
        "y3": sample.draws[:, 2],
        "y1^2": sample.draws[:, 0] ** 2,
    }
    zs = {}
    for name, vals in stats.items():
        t = averages[name]
        t_avg, t_se = t.mean(), t.std(ddof=1) / math.sqrt(t.size)
        i_avg, i_se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        zs[name] = z_score(t_avg, t_se, i_avg, i_se)
    passed = all(abs(z) < 3.0 for z in zs.values()) and not ergodic_run.under_resolved
    detail = ", ".join(f"{k}: z={v:+.2f}" for k, v in zs.items())
    report(4, passed, f"time averages vs exact sampler ({detail}; all |z| < 3)")


def test_criterion_5_growth_rate_reproduction(growth_run):
    lam = robust_growth_rate(GROWTH_PARAMS, 1, method="mc", n=1_000_000, seed=52002)
    horizon = growth_run.horizon
    rates = growth_run.observations["wealth"]["log_wealth"] / horizon
    sim_rate = rates.mean()
    sim_se = rates.std(ddof=1) / math.sqrt(rates.size)
    gap = abs(sim_rate - lam.lambda_hat)
    tol = max(0.05 * abs(lam.lambda_hat), 3.0 * math.hypot(sim_se, lam.stderr))
    guarded = int(growth_run.observations["wealth"]["n_guarded"].sum())
    passed = gap < tol and guarded == 0 and not growth_run.under_resolved
    report(5, passed,
           f"simulated rate {sim_rate:.4f} vs lambda_hat {lam.lambda_hat:.4f} "
           f"(gap {gap:.4f} < tol {tol:.4f}; guarded steps {guarded})")


def test_criterion_6_master_formula_dt_refinement():
    params = rank_jacobi([1.0, 1.0, 1.0])
    gen = ExpLinearGenerator(substream(606, "acceptance-c6").normal(size=3))
    x0 = np.full(3, 1 / 3)
    n_paths, n_fine = 32, 40_000
    sup_coarse, sup_fine = [], []
    for i in range(n_paths):
        z_fine = path_stream(60601, i).standard_normal((n_fine, 3))
        z_coarse = z_fine.reshape(n_fine // 4, 4, 3).sum(axis=1) / 2.0
        fine = simulate_given_noise(params, x0, 2.5e-4, z_fine)
        coarse = simulate_given_noise(params, x0, 1e-3, z_coarse)
        sup_fine.append(master_formula(gen, fine).sup_gap)
        sup_coarse.append(master_formula(gen, coarse).sup_gap)
    ratio = np.mean(sup_coarse) / np.mean(sup_fine)
    report(6, 1.6 < ratio < 2.8,
           f"pathwise identity sup-gap ratio dt=1e-3 vs 2.5e-4: {ratio:.2f} "
           f"in [1.6, 2.8] over {n_paths} coupled paths")


def test_criterion_7_boundary_grid():
    # a_1 and sigma are free in the criterion; sigma sets the time scale of
    # finite-horizon dips and is calibrated so the asymptotic verdicts show
    # through at T = 50
    grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    freqs = []
    for a2 in grid:
        params = ModelParams(a=[1.0, a2], gamma=[0.0, 0.0], sigma=0.11)
        table = mc_hit_frequency(
            params, BoundaryQuery(kind="rank_hits", k=2),
            T=50.0, eps=(1e-2, 1e-3, 1e-4), n_paths=500, dt=1e-3, seed=70007,
        )
        freqs.append(float(table.frequency[1]))        # the 1e-3 rung
    decreasing = all(freqs[i] >= freqs[i + 1] for i in range(len(freqs) - 1))
    positive = all(f > 0.0 for f in freqs[:3])
    small = all(f < 0.02 for f in freqs[4:])
    detail = ", ".join(f"a2={a}: {f:.3f}" for a, f in zip(grid, freqs))
    report(7, decreasing and positive and small,
           f"dip-below-1e-3 frequencies ({detail}); decreasing={decreasing}, "
           f"positive below 1={positive}, <2% at 1.25+={small}")


def test_criterion_8_collision_occupation_scaling(ergodic_run):
    occ = ergodic_run.observations["occupation"]
    # eps ladder is stored descending: 1e-2, 1e-3, 1e-4
    fractions = occ["gap_fraction"].mean(axis=2)       # (eps, gap index)
    ratios = fractions[:-1] / fractions[1:]            # per decade, per gap
    passed = bool(np.all((ratios > 5.0) & (ratios < 20.0)))
    detail = "; ".join(
        f"gap{k + 1} decade ratios {ratios[0, k]:.1f}, {ratios[1, k]:.1f}"
        for k in range(ratios.shape[1])
    )
    report(8, passed, f"near-tie occupation scales linearly in eps ({detail}; "
                      "all in [5, 20])")


def test_criterion_9_poisson_dirichlet_moments():
    multisets = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (2, 4),
                 (3, 3), (2, 2, 2)]
    worst = 0.0
    closed_ok = True
    for theta in (0.5, 1.0, 2.0):
        sample = pd_sample(theta, n=100_000, seed=int(90009 + 10 * theta))
        w = sample.weights
        phi2 = power_sum(w, 2)
        z2 = z_score(phi2.mean(), phi2.std(ddof=1) / math.sqrt(phi2.size),
                     1.0 / (1.0 + theta), 0.0)
        closed_ok = closed_ok and abs(z2) < 3.0
        for ms in multisets:
            vals = np.ones(w.shape[0])
            for m in ms:
                vals = vals * power_sum(w, m)
            z = z_score(vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size),
                        moment_recursion(theta, ms), 0.0)
            worst = max(worst, abs(z))
    report(9, closed_ok and worst < 3.0,
           f"E[phi_2]=1/(1+theta) at three thetas and recursion vs MC for "
           f"{len(multisets)} power-sum products (worst |z|={worst:.2f} < 3)")


def test_criterion_10_large_d_convergence():
    theta = 2.0
    cfg = PDConfig(theta=theta, tilt=(0.0,))
    schedule = make_schedule(theta, (0.0,), d_list=[20, 100, 500])
    limit = tilted_estimator(cfg, 100_000, 100010)(lambda y: power_sum(y, 2))
    gaps = []
    zs = []
    for d, params in schedule.items():
        draws = sample_invariant(params, 100_000,
                                 seed=100010 + d, kind="ranked").draws
        phi2 = power_sum(draws, 2)
        est = phi2.mean()
        se = phi2.std(ddof=1) / math.sqrt(phi2.size)
        gaps.append(abs(est - 1.0 / (1.0 + theta)))
        zs.append(z_score(est, se, limit.value, limit.se))
    decreasing = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    final_ok = abs(zs[-1]) < 3.0
    report(10, decreasing and final_ok,
           f"|E[phi_2] - 1/3| over d=(20,100,500): "
           f"({gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.4f}) decreasing; "
           f"final combined-SE z={zs[-1]:+.2f} (<3)")


def test_criterion_11_invariant_algebra():
    rng = substream(110011, "acceptance-c11")
    # open-market expansion vs direct closed form
    worst_theta = 0.0
    for _ in range(300):
        d = rng.integers(3, 9)
        n_top = rng.integers(1, d)
        params = ModelParams(a=rng.normal(size=d), gamma=rng.normal(size=d),
                             sigma=rng.uniform(0.5, 2.0))
        x = rng.dirichlet(np.full(d, 1.5))
        order = ranking_order(x)
        h = optimal_rank_holdings(x[order], order, params, n_top)
        worst_theta = max(worst_theta, np.abs(
            expand_open(h, x) - growth_optimal_theta(x, params, n_top)
        ).max())
    # self-financing identity along a wealth run, and the market portfolio
    params = GROWTH_PARAMS
    path = simulate(params, np.full(3, 1 / 3), T=2.0, dt=1e-3, seed=110012)
    theta = growth_optimal_theta(path.states, params, 1)
    worst_sf = np.abs((theta * path.states).sum(axis=1) - 1.0).max()
    market = wealth(path, np.ones_like)
    worst_market = np.abs(market.log_wealth).max()
    passed = worst_theta < 1e-12 and worst_sf < 1e-12 and worst_market < 1e-12
    report(11, passed,
           f"expansion vs direct formula {worst_theta:.1e}, self-financing "
           f"{worst_sf:.1e}, market-portfolio wealth {worst_market:.1e} "
           "(all < 1e-12)")
