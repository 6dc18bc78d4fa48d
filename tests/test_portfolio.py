import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from openjacobi import (
    ExpLinearGenerator,
    ModelParams,
    diffusion_c,
    drift,
    expand_open,
    foc_residual,
    generated_theta,
    growth_exists,
    growth_optimal_theta,
    master_formula,
    monomial_integral,
    optimal_rank_holdings,
    rank_avoids_zero,
    ranking_order,
    robust_growth_rate,
    shift_self_financing,
    simulate,
    simulate_given_noise,
    validate_params,
    wealth,
)
from openjacobi.portfolio import (
    SELF_FINANCING_TOL,
    GrowthConditionError,
    SelfFinancingError,
    WealthObserver,
    guarded_holdings,
)
from openjacobi._util import path_stream
from openjacobi.sde import SimPath, ranked_minima
from openjacobi.simplex import ranked_weights

from helpers import (
    RankPowerGradient,
    optimal_share_field,
    ordered_simplex_integral,
    wealth_increments,
)


def rank_jacobi(a, sigma=1.0):
    a = np.asarray(a, dtype=float)
    return ModelParams(a=a, gamma=np.zeros(a.size), sigma=sigma)


def random_hybrid(rng, d):
    return ModelParams(a=rng.normal(size=d), gamma=rng.normal(size=d),
                       sigma=rng.uniform(0.5, 2.0))


def ranked_state(rng, d, alpha=1.5):
    x = rng.dirichlet(np.full(d, alpha))
    order = ranking_order(x)
    return x[order], order


# ---------------------------------------------------------------------------
# open-market expansion
# ---------------------------------------------------------------------------

def test_expand_open_market_portfolio_of_top_ranks():
    x = np.array([0.1, 0.5, 0.4])
    n_top = 2
    y_top = np.sort(x)[::-1][:n_top]
    h = np.full(n_top, 1.0 / y_top.sum())
    theta = expand_open(h, x)
    # the top-two assets (names 2 and 3) hold 1/(top mass), the rest nothing
    assert theta[1] == pytest.approx(1.0 / 0.9)
    assert theta[2] == pytest.approx(1.0 / 0.9)
    assert theta[0] == pytest.approx(0.0)


def test_expand_open_zero_holdings_give_market_portfolio():
    # no direct top-rank investment leaves everything in the market portfolio
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.dirichlet(np.ones(4))
        theta = expand_open(np.zeros(2), x)
        assert np.allclose(theta, 1.0, atol=1e-12)


def test_expand_open_unit_holdings_substitution_pattern():
    x = np.array([0.1, 0.5, 0.4])
    theta = expand_open(np.ones(2), x)
    top_mass = 0.9
    order = ranking_order(x)
    assert np.allclose(theta[order[:2]], 2.0 - top_mass)
    assert theta[order[2]] == pytest.approx(1.0 - top_mass)


def test_expand_open_self_financing_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = rng.integers(3, 8)
        n_top = rng.integers(1, d)
        x = rng.dirichlet(np.ones(d))
        h = rng.normal(size=n_top)
        theta = expand_open(h, x)
        assert (theta * x).sum() == pytest.approx(1.0, abs=1e-12)


def test_shift_self_financing():
    rng = np.random.default_rng(2)
    x = rng.dirichlet(np.ones(4))
    theta = shift_self_financing(rng.normal(size=4), x)
    assert (theta * x).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal share field / direct holdings
# ---------------------------------------------------------------------------

def test_share_field_solves_drift_equation():
    rng = np.random.default_rng(3)
    p = random_hybrid(rng, 3)
    worst = 0.0
    for _ in range(100):
        x = rng.dirichlet(np.ones(3))
        ell = optimal_share_field(x, p)
        worst = max(worst, np.abs(diffusion_c(x, p.sigma) @ ell - drift(x, p)).max())
    assert worst < 1e-10


def test_share_field_symmetric_gamma_form():
    g = 1.3
    p = ModelParams(a=np.zeros(4), gamma=np.full(4, g))
    rng = np.random.default_rng(4)
    x = rng.dirichlet(np.ones(4))
    assert np.allclose(optimal_share_field(x, p), g / (2.0 * x))


def test_share_field_at_uniform_state():
    p = ModelParams(a=[0.5, 0.3, 0.1], gamma=[0.2, 0.4, 0.6])
    d = 3
    x = np.full(d, 1.0 / d)
    # lexicographic ties: name i sits at rank i
    expected = d * (p.gamma + p.a) / 2.0
    assert np.allclose(optimal_share_field(x, p), expected)


def test_share_field_boundary_raises():
    p = rank_jacobi([1.0, 1.0])
    with pytest.raises(ValueError):
        optimal_share_field(np.array([1.0, 0.0]), p)


def test_optimal_holdings_solve_first_order_condition():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        p = random_hybrid(rng, 4)
        y, order = ranked_state(rng, 4)
        worst = max(worst, foc_residual(y, order, p, 2))
    assert worst < 1e-10


def test_optimal_holdings_atlas_form():
    # all direct growth in the small caps: uniform short tilt -eta/(2 tail)
    eta = 1.5
    p = rank_jacobi([0.0, 0.0, 0.5, 1.0])
    rng = np.random.default_rng(6)
    y, order = ranked_state(rng, 4)
    h = optimal_rank_holdings(y, order, p, 2)
    assert np.allclose(h, -eta / (2.0 * y[2:].sum()))


def test_optimal_holdings_symmetric_uniform_state_is_zero():
    c = 0.8
    p = rank_jacobi([c, c, c, c])
    y = np.full(4, 0.25)
    h = optimal_rank_holdings(y, np.arange(4), p, 2)
    assert np.allclose(h, 0.0, atol=1e-14)


def test_optimal_holdings_zero_denominator_raises():
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        optimal_rank_holdings(np.array([1.0, 0.0, 0.0]), np.arange(3), p, 1)


# ---------------------------------------------------------------------------
# growth-optimal strategy
# ---------------------------------------------------------------------------

def test_growth_optimal_expansion_equals_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = rng.integers(3, 8)
        n_top = rng.integers(1, d)
        p = random_hybrid(rng, d)
        x = rng.dirichlet(np.full(d, 1.5))
        order = ranking_order(x)
        y = x[order]
        expanded = expand_open(optimal_rank_holdings(y, order, p, n_top), x)
        direct = growth_optimal_theta(x, p, n_top)
        assert np.abs(expanded - direct).max() < 1e-12


def test_growth_optimal_closed_market_leverage_example():
    # d = 500 volatility-stabilized market: a weight of 5% is shorted twelve
    # times the investor's wealth
    d, g = 500, 1.0
    p = ModelParams(a=np.zeros(d), gamma=np.full(d, g))
    x = np.concatenate([[0.05], np.full(d - 1, 0.95 / (d - 1))])
    theta = growth_optimal_theta(x, p, d - 1)
    pi = theta[0] * x[0]
    assert pi == pytest.approx(0.05 - 12.0 * g, abs=1e-12)


def test_growth_optimal_atlas_constant_top_holdings():
    eta = 1.4
    p = rank_jacobi([0.0, 0.0, eta / 2, eta / 2])
    rng = np.random.default_rng(8)
    x = rng.dirichlet(np.ones(4))
    theta = growth_optimal_theta(x, p, 2)
    order = ranking_order(x)
    assert np.allclose(theta[order[:2]], 1.0 - eta / 2.0)


def test_growth_optimal_name_based_form_and_long_only():
    d, n_top = 4, 1
    rng = np.random.default_rng(9)

    def theta_for(gstar, x):
        p = ModelParams(a=np.zeros(d), gamma=np.full(d, gstar))
        return growth_optimal_theta(x, p, n_top)

    # closed form 1 - d g/2 + g/(2 X_(k)) in the top ranks
    gstar = 0.5                      # inside [1/(d-N), 2/(d-1)] = [1/3, 2/3]
    x = rng.dirichlet(np.ones(d))
    theta = theta_for(gstar, x)
    order = ranking_order(x)
    expected_top = 1.0 - d * gstar / 2.0 + gstar / (2.0 * x[order[0]])
    assert theta[order[0]] == pytest.approx(expected_top, abs=1e-12)
    # long-only inside the interval over many random states
    for _ in range(200):
        x = rng.dirichlet(np.ones(d))
        assert theta_for(gstar, x).min() > -1e-12
    # a state with a dominant top weight breaks long-only above 2/(d-1)
    x_big = np.array([0.9, 0.05, 0.03, 0.02])
    assert theta_for(0.8, x_big).min() < 0.0


def test_growth_exists_thresholds():
    d = 5
    for gstar, expected in [(0.99, False), (1.0, True), (1.5, True)]:
        p = ModelParams(a=np.zeros(d), gamma=np.full(d, gstar))
        exists, _ = growth_exists(p, d - 1)      # closed market
        assert exists is expected
    for n_top in (1, 2, 3):
        threshold = 1.0 / (d - n_top)
        for bump, expected in [(-1e-9, False), (1e-9, True)]:
            p = ModelParams(a=np.zeros(d), gamma=np.full(d, threshold + bump))
            exists, _ = growth_exists(p, n_top)
            assert exists is expected


def test_growth_exists_reports_margins_minus_one():
    p = ModelParams(a=np.zeros(5), gamma=np.full(5, 0.5))
    exists, report = growth_exists(p, 2)
    # margins for k = 2, 3 are 4*0.5 - 1 and 3*0.5 - 1
    assert np.allclose(report["margins"], [1.0, 0.5])
    assert exists


_quarters = st.integers(-6, 8).map(lambda q: q / 4.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(2, 8))
def test_growth_exists_is_rank_non_attainment(data, d):
    # quarter-grid entries make tail margins of exactly 1 (and 0) common
    a = data.draw(hnp.arrays(float, d, elements=_quarters))
    gamma = data.draw(hnp.arrays(float, d, elements=_quarters))
    p = ModelParams(a=a, gamma=gamma)
    report = validate_params(p)
    for n_top in range(1, d):
        exists, detail = growth_exists(p, n_top)
        assert exists == (report.valid and rank_avoids_zero(p, n_top + 1))
        assert np.array_equal(detail["margins"], report.margins[:n_top] - 1.0)


def test_growth_exists_atlas_tail_specifications():
    d, n_top, eta, eps = 6, 2, 1.5, 0.5
    spread = np.zeros(d)
    spread[-1] = eta                             # all tail growth at the bottom
    concentrated = np.zeros(d)
    concentrated[n_top] = eta - eps              # most growth right below the cut
    concentrated[-1] = eps
    for m in range(1, d):
        exists, _ = growth_exists(rank_jacobi(spread), m)
        assert exists
    exists, _ = growth_exists(rank_jacobi(concentrated), n_top)
    assert exists
    for m in range(n_top + 1, d):
        exists, _ = growth_exists(rank_jacobi(concentrated), m)
        assert not exists


# ---------------------------------------------------------------------------
# wealth accounting
# ---------------------------------------------------------------------------

def test_market_portfolio_wealth_is_identically_one():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=2.0, dt=1e-3, seed=20)
    ledger = wealth(path, np.ones_like)
    assert np.abs(ledger.log_wealth).max() < 1e-12


def test_buy_and_hold_tracks_single_asset():
    p = rank_jacobi([1.5, 1.5, 1.5])
    path = simulate(p, np.full(3, 1 / 3), T=2.0, dt=1e-3, seed=21)
    ledger = wealth(path, lambda x: np.stack(
        [1.0 / x[..., 0], np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1
    ))
    target = math.log(path.states[-1, 0] / path.states[0, 0])
    assert ledger.log_wealth[-1] == pytest.approx(target, abs=0.3)


def test_wealth_ledger_drift_mart_split_consistent():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=1.0, dt=1e-3, seed=22)
    ledger = wealth(path, lambda x: growth_optimal_theta(x, p, 1))
    recon = ledger.drift_part + ledger.mart_part
    assert np.abs(recon - ledger.log_wealth).max() < 1e-10
    assert ledger.log_wealth[0] == 0.0


@pytest.mark.parametrize("a, gamma, n_top", [
    ((1.5, 1.5, 1.5), (0.0, 0.0, 0.0), 1),
    ((1.2, 0.8, 0.6), (0.3, -0.1, -0.2), 2),
])
def test_wealth_ledger_martingale_part_is_the_noise_term(a, gamma, n_top):
    # on an unclipped path each step moves by b dt + sigma sqrt(dt) (sqrt(x) z - x <sqrt(x), z>),
    # so the martingale part must pick up exactly theta . (the noise term); a wrong
    # drift compensator misses it by about |theta . b| dt, here 1e-4
    p = ModelParams(a=np.array(a), gamma=np.array(gamma), sigma=1.0)
    dt = 1e-4
    z = np.random.default_rng(27).standard_normal((5000, 3))
    path = simulate_given_noise(p, np.full(3, 1.0 / 3.0), dt, z)
    assert path.n_projected == 0
    x = path.states[:-1]
    noise = p.sigma * math.sqrt(dt) * (np.sqrt(x) * z - x * (np.sqrt(x) * z).sum(-1, keepdims=True))
    for strategy in (lambda x: growth_optimal_theta(x, p, n_top), np.ones_like):
        ledger = wealth(path, strategy)
        expected = (ledger.theta[:-1] * noise).sum(-1)
        assert np.abs(np.diff(ledger.mart_part) - expected).max() < 1e-12


def test_wealth_rejects_non_self_financing():
    p = rank_jacobi([1.0, 1.0])
    path = simulate(p, [0.5, 0.5], T=0.05, dt=1e-3, seed=23)
    with pytest.raises(SelfFinancingError):
        wealth(path, lambda x: np.full_like(x, 2.0))


def test_market_shift_leaves_increments_unchanged():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=0.5, dt=1e-3, seed=24)
    rng = np.random.default_rng(25)
    raw = rng.normal(size=(path.states.shape[0] - 1, 3))
    shifted = shift_self_financing(raw, path.states[:-1])
    inc_raw = wealth_increments(raw, path.states, path.dt, p.sigma)
    inc_shift = wealth_increments(shifted, path.states, path.dt, p.sigma)
    assert np.abs(inc_raw - inc_shift).max() < 1e-12


def test_growth_rate_invariant_under_name_relabeling():
    p = rank_jacobi([1.5, 1.0, 0.5])
    path = simulate(p, [0.5, 0.3, 0.2], T=1.0, dt=1e-3, seed=26)
    perm = [2, 0, 1]
    permuted = SimPath(times=path.times, states=path.states[:, perm],
                       params=p, path_index=0, dt=path.dt,
                       n_projected=path.n_projected)
    strategy = partial(growth_optimal_theta, params=p, n_top=1)
    a = wealth(path, strategy)
    b = wealth(permuted, strategy)
    assert abs(a.log_wealth[-1] - b.log_wealth[-1]) < 1e-12


def test_wealth_guard_counts_boundary_steps():
    p = rank_jacobi([1.0, 1.0])
    states = np.array([[0.6, 0.4], [1.0, 0.0], [0.7, 0.3], [0.5, 0.5]])
    path = SimPath(times=np.arange(4) * 0.01, states=states, params=p,
                   path_index=0, dt=0.01, n_projected=0)
    ledger = wealth(path, lambda x: growth_optimal_theta(x, p, 1))
    assert ledger.n_guarded == 1
    assert np.all(np.isfinite(ledger.log_wealth))


def stored_path(states, params, dt=0.01):
    states = np.asarray(states, dtype=float)
    return SimPath(times=np.arange(states.shape[0]) * dt, states=states, params=params,
                   path_index=0, dt=dt, n_projected=0)


def observe(path, strategy, blocks=1):
    """Feed a stored path through a WealthObserver in ``blocks`` pieces."""
    obs = WealthObserver(strategy, path.params.sigma)
    obs.start(path.states[:1], path.dt)
    edges = np.linspace(0, path.times.size - 1, blocks + 1).round().astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            states = path.states[lo:hi + 1, None, :]
            obs.update(states, ranked_minima(states[1:]))
    return obs.result()


def test_wealth_guard_ignores_terminal_state():
    p = rank_jacobi([1.0, 1.0])
    path = stored_path([[0.6, 0.4], [0.7, 0.3], [0.5, 0.5], [1.0, 0.0]], p)
    strategy = partial(growth_optimal_theta, params=p, n_top=1)
    ledger = wealth(path, strategy)
    streamed = observe(path, strategy)
    assert ledger.n_guarded == 0
    assert streamed["n_guarded"][0] == 0
    assert ledger.log_wealth[-1] == pytest.approx(streamed["log_wealth"][0], abs=1e-14)


# d = 3, N = 2: a rank-2 weight under INTERIOR_FLOOR (the mass below is too),
# or only the small-cap mass under it; both are positive, so the holdings
# there are finite but blow up.
_FLOOR_BAND = {
    "top": [1.0 - 2e-12, 1e-12, 1e-12],
    "small_cap": [0.6, 0.4 - 1e-12, 1e-12],
}


@pytest.mark.parametrize("where", sorted(_FLOOR_BAND))
def test_wealth_guards_states_in_the_floor_band(where):
    p = rank_jacobi([1.5, 1.2, 1.0])
    state = _FLOOR_BAND[where]
    path = stored_path([[0.5, 0.3, 0.2], state, [0.4, 0.35, 0.25], [0.5, 0.3, 0.2]], p)
    for strategy in (partial(growth_optimal_theta, params=p, n_top=2),
                     partial(generated_theta, generator=RankPowerGradient(p, 2))):
        ledger = wealth(path, strategy)
        streamed = observe(path, strategy)
        assert ledger.n_guarded == 1
        assert streamed["n_guarded"][0] == 1
        assert np.all(np.isfinite(ledger.log_wealth))
        assert np.isfinite(streamed["log_wealth"][0])
    with pytest.raises(ValueError, match="undefined"):
        growth_optimal_theta(np.array(state), p, 2)


def _strategies(d, gamma):
    params = ModelParams(a=np.linspace(1.5, 0.5, d), gamma=gamma[:d])
    rank_params = ModelParams(a=params.a, gamma=np.zeros(d))
    volatile = ModelParams(a=params.a, gamma=gamma[:d], sigma=1.7)
    coeffs = np.linspace(-2.0, 3.0, d)
    return [
        (params, np.ones_like),
        # h = 0.1 / (rank-2 weight) is infinite at the boundary, so the
        # non-finite rows are guarded too
        (params, lambda x: expand_open(0.1 / ranked_weights(x)[..., 1:2], x)),
        (params, partial(growth_optimal_theta, params=params, n_top=d - 1)),
        (params, partial(growth_optimal_theta, params=params, n_top=1)),
        (params, partial(generated_theta, generator=ExpLinearGenerator(np.zeros(d)))),
        (params, partial(generated_theta, generator=ExpLinearGenerator(coeffs))),
        (rank_params, partial(generated_theta, generator=RankPowerGradient(rank_params, 1))),
        # sigma != 1, so an observer that dropped its sigma would part from the ledger
        (volatile, partial(growth_optimal_theta, params=volatile, n_top=1)),
    ]


# Rows of small integers, normalized: zeros put states on the boundary and
# equal entries make ties.
_paths = st.integers(2, 4).flatmap(lambda d: hnp.arrays(
    float, st.tuples(st.integers(2, 10), st.just(d)),
    elements=st.integers(0, 4).map(float),
)).filter(lambda w: np.all(w.sum(axis=-1) > 0))


@settings(max_examples=60, deadline=None)
@given(w=_paths, gamma=hnp.arrays(float, 4, elements=st.floats(0.0, 1.0)),
       blocks=st.integers(1, 3))
def test_ledger_and_observer_share_the_wealth_core(w, gamma, blocks):
    states = w / w.sum(axis=-1, keepdims=True)
    for params, strategy in _strategies(states.shape[1], gamma):
        theta, _ = guarded_holdings(strategy, states, np.ones(states.shape[1]))
        assert np.all(np.abs((theta * states).sum(axis=-1) - 1.0) <= SELF_FINANCING_TOL)
        path = stored_path(states, params)
        ledger = wealth(path, strategy)
        streamed = observe(path, strategy, blocks)
        assert ledger.n_guarded == streamed["n_guarded"][0]
        assert ledger.log_wealth[-1] == pytest.approx(streamed["log_wealth"][0],
                                                      rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# functional generation
# ---------------------------------------------------------------------------

def test_constant_generator_reproduces_market_portfolio():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=0.2, dt=1e-3, seed=28)
    result = master_formula(ExpLinearGenerator(np.zeros(3)), path)
    assert np.allclose(result.ledger.theta, 1.0)
    assert np.abs(result.ledger.log_wealth).max() < 1e-12
    assert result.sup_gap < 1e-12


def test_exp_linear_strategy_form():
    gen = ExpLinearGenerator([0.5, -0.2, 0.3])
    x = np.array([0.5, 0.3, 0.2])
    theta = generated_theta(x, gen)
    c = gen.coeffs
    assert np.allclose(theta, c + 1.0 - c @ x)


def test_exp_linear_identity_gap_shrinks_with_dt():
    p = rank_jacobi([1.5, 1.0, 0.5])
    gen = ExpLinearGenerator([0.8, -0.4, 0.1])
    sups = {dt: [] for dt in (1e-3, 2.5e-4)}
    for path_idx in range(6):
        z_fine = path_stream(99, path_idx).standard_normal((8000, 3))
        z_coarse = z_fine.reshape(2000, 4, 3).sum(axis=1) / 2.0
        fine = simulate_given_noise(p, [0.5, 0.3, 0.2], 2.5e-4, z_fine)
        coarse = simulate_given_noise(p, [0.5, 0.3, 0.2], 1e-3, z_coarse)
        sups[2.5e-4].append(master_formula(gen, fine).sup_gap)
        sups[1e-3].append(master_formula(gen, coarse).sup_gap)
    ratio = np.mean(sups[1e-3]) / np.mean(sups[2.5e-4])
    assert 1.3 < ratio < 3.2


def test_rank_power_generator_matches_growth_optimal_strategy():
    p = rank_jacobi([1.5, 1.0, 0.5, 0.5])
    gen = RankPowerGradient(p, 2)
    rng = np.random.default_rng(30)
    for _ in range(50):
        x = rng.dirichlet(np.ones(4))
        assert np.abs(
            generated_theta(x, gen) - growth_optimal_theta(x, p, 2)
        ).max() < 1e-12


# ---------------------------------------------------------------------------
# robust growth rate
# ---------------------------------------------------------------------------

def test_robust_growth_rate_quadrature_matches_mc():
    p = rank_jacobi([1.5, 1.5, 1.5])
    quad = robust_growth_rate(p, 1, method="quadrature")
    mc = robust_growth_rate(p, 1, method="mc", n=100_000, seed=5)
    assert quad.stderr == 0.0
    assert abs(mc.lambda_hat - quad.lambda_hat) < 4.0 * mc.stderr
    assert np.allclose(mc.condition_margins, [2.0])


def test_robust_growth_rate_atlas_reduction():
    eta = 1.5
    p = rank_jacobi([0.0, 0.75, 0.75])
    quad = robust_growth_rate(p, 1, method="quadrature")
    qa = monomial_integral(p.a)

    def inv_tail(y):
        return float(np.prod(y ** (p.a - 1.0))) / (y[1] + y[2])

    e_inv = ordered_simplex_integral(inv_tail, 3, rel_tol=1e-7) / qa
    expected = (eta ** 2 * e_inv - eta ** 2) / 8.0
    assert quad.lambda_hat == pytest.approx(expected, rel=1e-5)


def test_robust_growth_rate_closed_market_quadrature_route():
    p = rank_jacobi([1.6, 1.3, 1.2])
    quad = robust_growth_rate(p, 2, method="quadrature")
    mc = robust_growth_rate(p, 2, method="mc", n=100_000, seed=6)
    assert abs(mc.lambda_hat - quad.lambda_hat) < 4.0 * mc.stderr


# lambda_hat at N = 1 from the dblquad oracle of tests/helpers.py at rel_tol
# 1e-10, frozen; the last two have a_bar_1 <= 1
FROZEN_D3_RATES = [
    ((1.5, 1.5, 1.5), 0.956903194528556),
    ((0.0, 0.75, 0.75), 0.9200101336448245),
    ((1.6, 1.3, 1.2), 0.8398357584684235),
    ((-0.5, 0.75, 0.75), 1.0147861119990735),
    ((-1.0, 1.2, 0.3), 1.266252752212035),
]


@pytest.mark.parametrize("a, frozen", FROZEN_D3_RATES)
def test_robust_growth_rate_quadrature_matches_frozen_oracle(a, frozen):
    quad = robust_growth_rate(rank_jacobi(a), 1, method="quadrature")
    assert quad.lambda_hat == pytest.approx(frozen, rel=1e-8)


@pytest.mark.parametrize("a", [
    (0.5, 0.3, 0.2, 2.1),
    (-1.5, 0.2, 0.2, 0.2, 2.2),
    (-2.0, 0.1, 0.1, 0.1, 0.1, 2.1),         # a_bar_1 <= 1
])
def test_robust_growth_rate_quadrature_matches_mc_every_open_market_size(a):
    # a_d > 2 keeps the growth integrand square-integrable for every N
    p = rank_jacobi(a)
    for n_top in range(1, p.d):
        quad = robust_growth_rate(p, n_top, method="quadrature")
        mc = robust_growth_rate(p, n_top, method="mc", n=100_000, seed=40 + n_top)
        assert abs(mc.lambda_hat - quad.lambda_hat) < 4.0 * mc.stderr


def test_robust_growth_rate_mc_matches_quadrature_at_d6_equal_weights():
    # the plain y_1 <= 1 spacing envelope accepted 1.6e-5 of its proposals
    # here; the tilted one about 0.6.  For N = 5 the integrand's variance is
    # infinite (a_6 < 2), so its standard error is only indicative.
    p = rank_jacobi([1.5] * 6)
    for n_top in (1, 5):
        quad = robust_growth_rate(p, n_top, method="quadrature")
        mc = robust_growth_rate(p, n_top, method="mc", n=100_000, seed=60 + n_top)
        assert not mc.warnings
        assert abs(mc.lambda_hat - quad.lambda_hat) < 4.0 * mc.stderr


def test_robust_growth_rate_quadrature_d6_small_open_market_is_fast():
    p = rank_jacobi([2.0, 1.0, 0.8, 0.7, 0.6, 0.5])
    start = time.perf_counter()
    quad = robust_growth_rate(p, 1, method="quadrature")
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(quad.lambda_hat)


def test_robust_growth_rate_quadrature_uses_no_nested_quadrature(monkeypatch):
    from scipy import integrate

    def forbidden(*args, **kwargs):
        raise AssertionError("nested scipy quadrature called")

    monkeypatch.setattr(integrate, "quad", forbidden)
    monkeypatch.setattr(integrate, "dblquad", forbidden)
    for a in ([1.5, 1.5, 1.5], [1.5, 1.5, 1.5, 1.5]):
        quad = robust_growth_rate(rank_jacobi(a), 1, method="quadrature")
        assert math.isfinite(quad.lambda_hat)


@pytest.mark.parametrize("n_top", [0, 3])
def test_open_market_size_outside_one_to_d_minus_one_is_rejected(monkeypatch, n_top):
    p = rank_jacobi([1.5, 1.5, 1.5])

    def forbidden(*args, **kwargs):
        raise AssertionError("sampled before checking N")

    monkeypatch.setattr("openjacobi.portfolio.sample_invariant", forbidden)
    for method in ("mc", "quadrature"):
        with pytest.raises(ValueError, match="1 <= N < d"):
            robust_growth_rate(p, n_top, method=method, n=1_000)


def test_robust_growth_rate_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        robust_growth_rate(rank_jacobi([1.5, 1.5, 1.5]), 1, method="bogus")


def test_robust_growth_rate_requires_strict_margins():
    p = rank_jacobi([1.0, 1.0, 1.0])      # tail sum at k = 3 is exactly 1
    with pytest.raises(GrowthConditionError):
        robust_growth_rate(p, 2)
    hybrid = ModelParams(a=[1.5, 1.5, 1.5], gamma=[0.1, 0.1, 0.1])
    with pytest.raises(GrowthConditionError):
        robust_growth_rate(hybrid, 1)


def test_simulated_growth_matches_robust_rate_small():
    # scaled-down version of the long-horizon reproduction experiment
    p = rank_jacobi([1.5, 1.5, 1.5])
    target = robust_growth_rate(p, 1, method="quadrature").lambda_hat
    n_paths = 6
    rates = []
    for i in range(n_paths):
        path = simulate(p, np.full(3, 1 / 3), T=150.0, dt=1e-3, seed=700 + i)
        ledger = wealth(path, lambda x: growth_optimal_theta(x, p, 1))
        rates.append(ledger.log_wealth[-1] / ledger.times[-1])
    rates = np.asarray(rates)
    se = rates.std(ddof=1) / math.sqrt(n_paths)
    assert abs(rates.mean() - target) < max(4.0 * se, 0.1 * abs(target))


def test_invariant_sampler_reused_for_growth_is_seed_stable():
    p = rank_jacobi([1.5, 1.5, 1.5])
    a = robust_growth_rate(p, 1, method="mc", n=20_000, seed=9)
    b = robust_growth_rate(p, 1, method="mc", n=20_000, seed=9)
    assert a.lambda_hat == b.lambda_hat
