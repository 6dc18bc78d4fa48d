import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from openjacobi import (
    InvalidModelError,
    ModelParams,
    density_p,
    density_q,
    ergodic_compare,
    make_statistic,
    monomial_integral,
    normalizer,
    sample_invariant,
)
from openjacobi._util import z_score
from openjacobi import invariant, sde
from openjacobi.invariant import HYBRID_NORMALIZER_MAX_DIM, NAME_SET_MAX_DIM, SamplerStallError
from openjacobi.simplex import ranked_weights, ranking_order, tail_sums

from helpers import ordered_simplex_integral


def rank_jacobi(a, sigma=1.0):
    a = np.asarray(a, dtype=float)
    return ModelParams(a=a, gamma=np.zeros(a.size), sigma=sigma)


def moment_z(values, target, target_se=0.0):
    m = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    return z_score(m, se, target, target_se)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_p_reduces_to_dirichlet_when_rank_free():
    p = ModelParams(a=np.zeros(3), gamma=[2.0, 1.5, 0.7])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.dirichlet(np.ones(3))
        expected = np.prod(x ** (p.gamma - 1.0))
        assert density_p(x, p) == pytest.approx(expected, rel=1e-12)


def test_density_p_rank_only_is_permutation_invariant():
    p = rank_jacobi([1.2, 0.9, 0.4])
    x = np.array([0.5, 0.2, 0.3])
    base = density_p(x, p)
    for perm in itertools.permutations(range(3)):
        assert density_p(x[list(perm)], p) == pytest.approx(base, rel=1e-12)


def test_density_p_flat_case_and_unit_normalizer():
    p = rank_jacobi([1.0, 1.0])
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.dirichlet(np.ones(2))
        assert density_p(x, p) == pytest.approx(1.0)
    assert normalizer(p) == pytest.approx(1.0, rel=1e-9)


def test_density_p_boundary_singularity_reported_as_inf():
    p = rank_jacobi([1.0, 0.5])   # exponent at the bottom rank is negative
    assert density_p([1.0, 0.0], p) == math.inf


def test_densities_vanish_at_a_zero_coordinate_with_positive_exponent():
    # 0 to the power b_k - 1 > 0 is 0, not a singularity
    dirichlet = ModelParams(a=np.zeros(3), gamma=[2.0, 2.0, 2.0])
    assert density_p([0.5, 0.5, 0.0], dirichlet) == 0.0
    assert density_q([0.5, 0.5, 0.0], rank_jacobi([1.5, 1.5, 1.5])) == 0.0


def test_density_q_rank_based_closed_form():
    a = np.array([1.5, 1.0, 0.8])
    p = rank_jacobi(a)
    qa = monomial_integral(a)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = -np.sort(-rng.dirichlet(np.ones(3)))
        expected = np.prod(y ** (a - 1.0)) / qa
        assert density_q(y, p) / normalizer(p) == pytest.approx(expected, rel=1e-8)


def test_density_q_flat_d2_value():
    # a = (1, 1): ranked density is the constant 1 / Q_a = 2
    p = rank_jacobi([1.0, 1.0])
    assert monomial_integral(p.a) == pytest.approx(0.5, rel=1e-10)
    assert density_q([0.7, 0.3], p) / normalizer(p) == pytest.approx(2.0, rel=1e-9)


def test_density_q_name_based_matches_permutation_sum():
    rng = np.random.default_rng(3)
    d7 = ModelParams(a=np.linspace(1.5, 0.5, 7), gamma=np.linspace(0.4, -0.2, 7)[::-1])
    edge = np.array([0.6, 0.4, 0.0])
    cases = [
        (ModelParams(a=np.zeros(3), gamma=[2.0, 1.2, 0.6]), -np.sort(-rng.dirichlet(np.ones(3)))),
        (d7, -np.sort(-rng.dirichlet(np.ones(7)))),
        # y_3 = 0 with every exponent at rank 3 positive (0), one negative
        # (+inf, though a zero factor sits on other assignments) and one
        # exactly zero (0^0 = 1)
        (ModelParams(a=[1.2, 1.0, 0.5], gamma=[0.8, 0.7, 0.6]), edge),
        (ModelParams(a=[1.2, 0.8, 1.0], gamma=[0.3, 0.0, -0.2]), edge),
        (ModelParams(a=[1.2, 0.8, 1.0], gamma=[0.3, 0.0, 0.2]), edge),
        # every term near 1e160 though (1e-160)^-2 alone overflows
        (ModelParams(a=[1.0, -1.0, 2.0], gamma=[0.1, 0.0, 0.0]),
         np.array([1.0 - 2e-160, 1e-160, 1e-160])),
    ]
    for p, y in cases:
        # each term's factors summed in logs; xlogy keeps 0^0 = 1
        brute = sum(
            np.exp(special.xlogy(p.a + p.gamma[list(perm)] - 1.0, y).sum())
            for perm in itertools.permutations(range(p.d))
        )
        assert density_q(y, p) == pytest.approx(brute, rel=1e-12)
    assert [density_q(edge, p) for p, _ in cases[2:4]] == [0.0, math.inf]
    assert 0.0 < density_q(edge, cases[4][0]) < math.inf
    assert 1e159 < density_q(cases[5][1], cases[5][0]) < 1e161


@pytest.mark.parametrize("params", [
    rank_jacobi([1.3, 0.9]),
    ModelParams(a=[0.4, 0.2, 0.1], gamma=[0.8, 0.5, 0.3]),
])
def test_density_q_integrates_to_one(params):
    z = normalizer(params)
    total = ordered_simplex_integral(
        lambda y: density_q(y, params) / z, params.d, rel_tol=1e-7
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_normalizer_uniform_dirichlet_is_one():
    p = ModelParams(a=np.zeros(2), gamma=[1.0, 1.0])
    assert normalizer(p) == pytest.approx(1.0, rel=1e-10)


def test_normalizer_invalid_params_raise_with_index():
    p = ModelParams(a=[1.0, -1.0, 0.2], gamma=np.zeros(3))
    with pytest.raises(InvalidModelError) as err:
        normalizer(p)
    assert err.value.violated_index == 2


@pytest.mark.parametrize("d", range(3, 11))
def test_hybrid_normalizer_with_constant_a_is_a_dirichlet_integral(d):
    # with a = c the permutation sum tiles the simplex with the ordered cells
    # of the Dirichlet(c + gamma) integrand; distinct gamma makes the cells
    # differ, and c = 0 is the rank-free Dirichlet law itself
    gamma = np.linspace(0.1, 0.9, d)
    for c in (0.7, 0.0):
        oracle = math.exp(special.gammaln(c + gamma).sum() - special.gammaln(d * c + gamma.sum()))
        p = ModelParams(a=np.full(d, c), gamma=gamma)
        assert normalizer(p) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("d", range(5, 11))
def test_hybrid_normalizer_and_density_q_finish_up_to_max_dim(d):
    p = ModelParams(a=np.linspace(1.5, 0.5, d), gamma=np.linspace(0.4, -0.2, d)[::-1])
    start = time.perf_counter()
    z = normalizer(p)
    assert time.perf_counter() - start < 5.0
    assert math.isfinite(z) and z > 0.0
    y = np.linspace(2.0, 1.0, d)
    q = density_q(y / y.sum(), p) / z
    assert math.isfinite(q) and q > 0.0


def test_hybrid_normalizer_and_density_q_refuse_past_max_dim(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a name-set table was built")

    def model(d):
        return ModelParams(a=np.linspace(1.5, 0.5, d), gamma=np.linspace(0.4, -0.2, d)[::-1])

    monkeypatch.setattr(invariant, "_name_set_sums", no_tables)
    monkeypatch.setattr(invariant, "_shell_recursion", no_tables)
    limit = HYBRID_NORMALIZER_MAX_DIM
    with pytest.raises(InvalidModelError, match=f"hybrid normalizer is limited to d <= {limit}"):
        normalizer(model(limit + 1))
    d = NAME_SET_MAX_DIM + 1
    y = np.linspace(2.0, 1.0, d)
    with pytest.raises(InvalidModelError, match=f"hybrid density is limited to d <= {NAME_SET_MAX_DIM}"):
        density_q(y / y.sum(), model(d))


# ---------------------------------------------------------------------------
# samplers against quadrature oracles
# ---------------------------------------------------------------------------

def test_dirichlet_sampler_symmetric_mean():
    p = ModelParams(a=np.zeros(2), gamma=[2.0, 2.0])
    res = sample_invariant(p, 40_000, seed=7, kind="named")
    assert res.method == "dirichlet"
    assert abs(moment_z(res.draws[:, 0], 0.5)) < 3.0


def test_spacing_sampler_top_weight_matches_quadrature():
    a = np.array([1.0, 1.0, 1.0])
    p = rank_jacobi(a)
    res = sample_invariant(p, 40_000, seed=11, kind="ranked")
    assert res.method == "spacing"
    target = monomial_integral(a + np.array([1, 0, 0])) / monomial_integral(a)
    assert abs(moment_z(res.draws[:, 0], target)) < 3.0
    assert np.all(np.diff(res.draws, axis=1) <= 1e-15)
    assert np.allclose(res.draws.sum(axis=1), 1.0, atol=1e-12)


def test_spacing_sampler_bottom_weight_matches_quadrature():
    a = np.array([2.0, 1.0])
    p = rank_jacobi(a)
    res = sample_invariant(p, 40_000, seed=13, kind="ranked")
    target = monomial_integral([2.0, 2.0]) / monomial_integral([2.0, 1.0])
    assert abs(moment_z(res.draws[:, 1], target)) < 3.0


def test_spacing_named_draws_are_exchangeable():
    p = rank_jacobi([1.0, 1.0, 1.0])
    res = sample_invariant(p, 30_000, seed=17, kind="named")
    for i in range(3):
        assert abs(moment_z(res.draws[:, i], 1.0 / 3.0)) < 3.5
    assert np.allclose(res.draws.sum(axis=1), 1.0, atol=1e-12)


# tail sums abar_1..abar_d of valid rank models with abar_1 > 0, d = 2..50
_positive_tails = st.lists(st.floats(0.05, 20.0), min_size=2, max_size=50)


@settings(max_examples=60, deadline=None)
@given(abar=_positive_tails, seed=st.integers(0, 2 ** 32 - 1))
def test_spacing_envelope_bounds_every_proposal(abar, seed):
    abar = np.array(abar)
    a = abar - np.append(abar[1:], 0.0)
    assert np.allclose(tail_sums(a), abar)
    w = invariant._envelope_weights(abar)
    assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0)
    assert invariant._envelope_gain(abar, w) >= 0.0
    rates, log_acceptance = invariant._spacing_envelope(abar)
    assert np.all(rates > 0.0)
    y, cum = invariant._spacing_proposal(rates, 2_000, np.random.default_rng(seed))
    # the AM-GM bound holds exactly; 1e-9 absorbs rounding in the logs
    assert log_acceptance(y, cum).max() <= 1e-9


def test_entropy_equals_scipy_entr_bit_for_bit():
    rng = np.random.default_rng(23)
    vectors = [rng.dirichlet(np.full(d, alpha))
               for d in range(2, 21) for alpha in (0.05, 0.5, 1.0, 5.0) for _ in range(25)]
    for w in vectors[:200]:                    # exact zeros mixed in
        w = w.copy()
        w[rng.random(w.size) < 0.3] = 0.0
        vectors.append(w)
    vectors += [np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.zeros(4)]
    for w in vectors:
        assert invariant._entropy(w) == special.entr(w).sum(), w


@pytest.mark.parametrize("a, n", [
    ([1.5, 1.5, 1.5], 20_000),
    ([1.5, 1.5, 1.5], 10),                 # one chunk; every acceptance counts
    ([2.0, 1.0, 0.5, 0.5, 0.5, 0.5], 20_000),
    ([1.5] * 6, 20_000),
])
def test_spacing_acceptance_is_the_y1_bound_times_exp_gain(a, n):
    # with z_k ~ Exp(abar_k) and acceptance y_1^abar_1 the rate is
    # Q(a) prod_(k>=2) abar_k; the tilted envelope multiplies it by exp(L(w))
    p = rank_jacobi(a)
    abar = tail_sums(p.a)
    gain = invariant._envelope_gain(abar, invariant._envelope_weights(abar))
    expected = monomial_integral(p.a) * np.prod(abar[1:]) * math.exp(gain)
    res = sample_invariant(p, n, seed=41, kind="ranked")
    proposed = max(1024, round(n / res.acceptance_rate))
    se = math.sqrt(expected * (1.0 - expected) / proposed)
    assert abs(res.acceptance_rate - expected) < 4.0 * se
    assert res.acceptance_rate > 0.5 and not res.warnings


def test_spacing_sampler_stall_is_typed():
    # abar_1 = -30 at d = 20: acceptance far below 1e-20
    p = rank_jacobi([-34.75] + [0.25] * 19)
    with pytest.raises(SamplerStallError, match="accepted none"):
        invariant._sample_spacing(p, 10, np.random.default_rng(0), "ranked")


def test_ranked_dirichlet_pushforward_matches_q_moments():
    # a = 0 route: sorting Dirichlet draws must reproduce ranked-density moments
    p = ModelParams(a=np.zeros(3), gamma=[1.5, 1.0, 0.8])
    res = sample_invariant(p, 50_000, seed=19, kind="ranked")
    z = normalizer(p)
    target = ordered_simplex_integral(
        lambda y: y[0] * density_q(y, p) / z, 3, rel_tol=1e-6
    )
    assert abs(moment_z(res.draws[:, 0], target)) < 3.0


def test_mcmc_agrees_with_spacing_on_rank_models():
    p = rank_jacobi([1.5, 1.0, 0.5])
    exact = sample_invariant(p, 40_000, seed=23, kind="ranked")
    chain = sample_invariant(p, 4_000, seed=29, kind="ranked", method="mcmc")
    assert chain.ess is not None and chain.ess >= 4_000
    for k, power in [(0, 1), (1, 1), (0, 2), (1, 2)]:
        ref = exact.draws[:, k] ** power
        got = chain.draws[:, k] ** power
        se_chain = got.std(ddof=1) / math.sqrt(chain.ess)
        z = z_score(got.mean(), se_chain, ref.mean(),
                    ref.std(ddof=1) / math.sqrt(ref.size))
        assert abs(z) < 4.0, (k, power, z)


def test_mcmc_hybrid_matches_quadrature_oracle():
    p = ModelParams(a=[0.5, 0.5], gamma=[1.0, 0.5])
    res = sample_invariant(p, 4_000, seed=31, kind="ranked")
    assert res.method == "spacing"
    z = normalizer(p)
    target = ordered_simplex_integral(
        lambda y: y[0] * density_q(y, p) / z, 2, rel_tol=1e-8
    )
    se = res.draws[:, 0].std(ddof=1) / math.sqrt(res.ess)
    assert abs(z_score(res.draws[:, 0].mean(), se, target, 0.0)) < 4.0


def test_mcmc_hybrid_named_mean_matches_monomial_ratio():
    # exact oracle: E[X_1] as a ratio of ordered-simplex monomial integrals
    a = np.array([0.5, 0.5])
    gamma = np.array([1.0, 0.5])
    p = ModelParams(a=a, gamma=gamma)
    res = sample_invariant(p, 4_000, seed=37, kind="named")
    num = (
        monomial_integral(a + gamma + np.array([1.0, 0.0]))
        + monomial_integral(a + gamma[::-1] + np.array([0.0, 1.0]))
    )
    den = monomial_integral(a + gamma) + monomial_integral(a + gamma[::-1])
    target = num / den
    se = res.draws[:, 0].std(ddof=1) / math.sqrt(res.ess)
    assert abs(z_score(res.draws[:, 0].mean(), se, target, 0.0)) < 4.0


def test_hybrid_spacing_reports_pooled_acceptance_and_no_rhat():
    p = ModelParams(a=[1.0, 0.5, 0.5], gamma=[0.3, 0.2, 0.1])
    res = sample_invariant(p, 2_000, seed=53, kind="named")
    assert res.method == "spacing" and res.n == 2_000 and not res.warnings
    assert 0.0 < res.acceptance_rate <= 1.0
    assert res.ess == 2_000 and not hasattr(res, "rhat")
    again = sample_invariant(p, 2_000, seed=53, kind="named")
    assert np.array_equal(res.draws, again.draws)


@pytest.mark.parametrize("a, gamma, seed", [
    ([1.2, 0.8, 0.6], [0.3, -0.1, -0.2], 83),
    ([1.0, 0.8, 0.6, 0.5], [0.4, -0.2, 0.1, -0.3], 89),
], ids=["d3", "d4"])
def test_hybrid_spacing_name_at_rank_frequencies_match_assignment_weights(a, gamma, seed):
    # exact oracle: sigma has probability Q(a + gamma_sigma) / Z, so name i
    # sits at rank k with the summed weight of the assignments that put it there
    p = ModelParams(a=a, gamma=gamma)
    n = 20_000
    res = sample_invariant(p, n, seed=seed, kind="named")
    perms = np.array(list(itertools.permutations(range(p.d))))
    q = np.array([monomial_integral(p.a + p.gamma[perm]) for perm in perms])
    q /= q.sum()
    order = ranking_order(res.draws)
    for k in range(p.d):
        for i in range(p.d):
            exact = q[perms[:, k] == i].sum()
            freq = (order[:, k] == i).mean()
            assert abs(freq - exact) < 3.0 * math.sqrt(exact * (1.0 - exact) / n), (k, i)
    exact_y1 = sum(w * monomial_integral(p.a + p.gamma[perm] + np.eye(p.d)[0])
                   / monomial_integral(p.a + p.gamma[perm]) for w, perm in zip(q, perms))
    assert abs(moment_z(res.draws.max(axis=1), exact_y1)) < 3.0
    # independent in file order: neighbours share their assignment with
    # probability sum q^2; the indicators are 1-dependent, hence the variance
    same = np.all(order[1:] == order[:-1], axis=1)
    p2, p3 = (q ** 2).sum(), (q ** 3).sum()
    var = (n - 1) * p2 * (1.0 - p2) + 2.0 * (n - 2) * (p3 - p2 * p2)
    assert abs(same.sum() - (n - 1) * p2) < 3.0 * math.sqrt(var)


def test_mcmc_is_an_alias_of_the_spacing_route():
    p = ModelParams(a=[1.2, 0.8, 0.6], gamma=[0.3, -0.1, -0.2])
    default = sample_invariant(p, 500, seed=19, kind="named")
    spacing = sample_invariant(p, 500, seed=19, kind="named", method="spacing")
    alias = sample_invariant(p, 500, seed=19, kind="named", method="mcmc", burn_in=200)
    assert alias.method == spacing.method == default.method == "spacing"
    assert np.array_equal(alias.draws, default.draws)
    assert np.array_equal(spacing.draws, default.draws)
    with pytest.raises(TypeError, match="thin"):
        sample_invariant(p, 10, seed=1, method="mcmc", thin=5)
    with pytest.raises(ValueError, match="unknown sampler method"):
        sample_invariant(p, 10, seed=1, method="mixture")


@st.composite
def _hybrid_models(draw, max_d=4):
    d = draw(st.integers(2, max_d))
    a = draw(st.lists(st.floats(-0.5, 2.0), min_size=d, max_size=d))
    gamma = draw(st.lists(st.floats(-0.5, 1.0), min_size=d, max_size=d))
    p = ModelParams(a=a, gamma=gamma)
    assume(not p.is_rank_based and np.any(p.a != 0.0) and np.all(p.tail_margins() > 0.1))
    return p


@settings(max_examples=30, deadline=None)
@given(p=_hybrid_models(), seed=st.integers(0, 2 ** 32 - 1))
def test_hybrid_spacing_draws_lie_on_the_simplex_and_rank_to_the_ranked_draws(p, seed):
    named = sample_invariant(p, 50, seed, kind="named")
    ranked = sample_invariant(p, 50, seed, kind="ranked")
    assert named.method == ranked.method == "spacing"
    assert np.all(named.draws >= 0.0)
    assert np.allclose(named.draws.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(ranked_weights(named.draws), ranked.draws)


@settings(max_examples=60, deadline=None)
@given(p=_hybrid_models(max_d=8), seed=st.integers(0, 2 ** 32 - 1))
def test_spacing_bounds_every_hybrid_proposal(p, seed):
    # exactness rests on this: names only raise the spacing rates, and the
    # envelope's factor stays at most 1 on the tilted proposals; 1e-9
    # absorbs rounding in the logs
    g = ranked_weights(p.gamma)
    rates, log_acceptance = invariant._spacing_envelope(tail_sums(p.a + g))
    tilt, weight = invariant._name_sets(p.gamma, rates)
    assert np.all(rates > 0.0) and tilt.min() >= -1e-12
    rng = np.random.default_rng(seed)
    sigma, step_rates = invariant._draw_names(rates, tilt, weight, 2_000, rng)
    assert np.array_equal(np.sort(sigma, axis=1), np.broadcast_to(np.arange(p.d), sigma.shape))
    y, cum = invariant._spacing_proposal(step_rates, 2_000, rng)
    assert log_acceptance(y, cum).max() <= 1e-9


def test_name_draws_follow_the_name_set_weights():
    # each assignment sigma has probability prod_(j>=2) r_j / (r_j + T(S_j)) / V(all)
    p = ModelParams(a=[1.0, 0.8, 0.6, 0.5], gamma=[0.4, -0.2, 0.1, -0.3])
    rates, _ = invariant._spacing_envelope(tail_sums(p.a + ranked_weights(p.gamma)))
    tilt, weight = invariant._name_sets(p.gamma, rates)
    perms = list(itertools.permutations(range(p.d)))
    exact = []
    for perm in perms:
        below = np.cumsum([1 << i for i in perm[::-1]])[::-1][1:]   # names at ranks j..d
        exact.append(np.prod(rates / (rates + tilt[below])))
    exact = np.array(exact)
    assert exact.sum() == pytest.approx(weight[-1], rel=1e-12)
    exact /= exact.sum()
    n = 50_000
    sigma, _ = invariant._draw_names(rates, tilt, weight, n, np.random.default_rng(7))
    index = {perm: i for i, perm in enumerate(perms)}
    freq = np.bincount([index[tuple(row)] for row in sigma.tolist()], minlength=len(perms)) / n
    assert np.all(np.abs(freq - exact) < 4.0 * np.sqrt(exact * (1.0 - exact) / n))


@pytest.mark.parametrize("c, gamma, seed", [
    (0.7, np.linspace(0.9, -0.3, 8), 131),
    (0.7, np.linspace(0.9, -0.3, 10), 137),
    (5.0, 5.0 * np.arange(5.0, -1.0, -1.0), 139),
], ids=["d8", "d10", "d6-concentrated"])
def test_constant_a_hybrid_is_dirichlet_of_c_plus_gamma(c, gamma, seed):
    # with a = c, prod_k y_k^(c + gamma_sigma(k) - 1) is prod_i x_i^(c + gamma_i - 1):
    # the named law is Dirichlet(c + gamma), here beyond the permutation sums'
    # d or with a and gamma scaled up together, where uniform names would
    # rarely be accepted
    d = gamma.size
    p = ModelParams(a=np.full(d, c), gamma=gamma)
    n = 20_000
    res = sample_invariant(p, n, seed=seed, kind="named")
    assert res.method == "spacing" and not res.warnings
    alpha = c + gamma
    for i in range(d):
        assert abs(moment_z(res.draws[:, i], alpha[i] / alpha.sum())) < 4.0, i
    top = ranked_weights(np.random.default_rng(seed).dirichlet(alpha, size=n))[:, 0]
    z = moment_z(res.draws.max(axis=1), top.mean(), top.std(ddof=1) / math.sqrt(n))
    assert abs(z) < 4.0


def test_sampler_input_validation():
    p = rank_jacobi([1.0, 1.0])
    with pytest.raises(ValueError):
        sample_invariant(p, 0, seed=1)
    with pytest.raises(ValueError):
        sample_invariant(p, 10, seed=1, kind="middle")
    with pytest.raises(ValueError):
        sample_invariant(p, 10, seed=1, method="dirichlet")   # a != 0 required
    d = invariant.NAME_SET_MAX_DIM + 1                        # beyond the name-set tables
    with pytest.raises(InvalidModelError, match="hybrid sampling"):
        sample_invariant(ModelParams(a=np.ones(d), gamma=np.linspace(0.2, -0.2, d)), 10, seed=1)


@pytest.mark.parametrize("params", [
    ModelParams(a=[0.0, 0.0, 0.0], gamma=[1.0, 2.0, 0.5]),
    rank_jacobi([1.0, 1.0, 1.0]),
    ModelParams(a=[1.0, 0.5, 0.5], gamma=[0.3, 0.2, 0.1]),
], ids=["dirichlet", "spacing", "hybrid"])
def test_sampler_options_reach_every_route(params):
    with pytest.raises(TypeError, match="burn_in"):
        sample_invariant(params, 10, seed=1, burn_in=5)


def test_spacing_stall_comes_within_its_budget():
    budget = invariant.SPACING_MAX_PROPOSALS
    stalled = rank_jacobi([-34.75] + [0.25] * 19)
    with pytest.raises(SamplerStallError, match="accepted none") as err:
        sample_invariant(stalled, 10, seed=0)
    proposed = int(re.search(r"none of (\d+) proposals", str(err.value)).group(1))
    assert budget < proposed <= budget + invariant.SPACING_CHUNK


# ---------------------------------------------------------------------------
# statistics registry and the ergodic experiment
# ---------------------------------------------------------------------------

def test_make_statistic_forms():
    x = np.array([[0.2, 0.5, 0.3]])
    assert make_statistic("one")(x)[0] == 1.0
    assert make_statistic("x2")(x)[0] == 0.5
    assert make_statistic("y1")(x)[0] == 0.5
    assert make_statistic("y1^2")(x)[0] == 0.25
    assert make_statistic("phi2")(x)[0] == pytest.approx(0.38)
    assert make_statistic("rank1_is_2")(x)[0] == 1.0
    assert make_statistic("rank1_is_1")(x)[0] == 0.0
    with pytest.raises(ValueError):
        make_statistic("nope")


@pytest.mark.parametrize("spec", ["x0", "y0", "y0^2", "rank0_is_1", "rank1_is_0"])
def test_make_statistic_rejects_index_zero(spec):
    # index 0 would read the last coordinate
    with pytest.raises(ValueError, match="1..3"):
        make_statistic(spec, 3)
    with pytest.raises(ValueError, match="indices"):
        make_statistic(spec)


@pytest.mark.parametrize("spec", ["x4", "y4", "y4^2", "rank4_is_1", "rank1_is_4"])
def test_make_statistic_rejects_index_beyond_the_dimension(spec):
    with pytest.raises(ValueError, match="1..3"):
        make_statistic(spec, 3)
    make_statistic(spec, 4)


def test_make_statistic_accepts_the_last_index():
    x = np.array([[0.2, 0.5, 0.3]])
    assert make_statistic("y3", 3)(x)[0] == 0.2
    assert make_statistic("rank3_is_1", 3)(x)[0] == 1.0


def test_ergodic_compare_needs_two_paths():
    # one path gives an infinite standard error, so z = 0 passed any function
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="n_paths >= 2"):
        ergodic_compare(p, {"y1": "y1"}, sample_invariant(p, 100, 41, kind="named"),
                        T=0.2, dt=1e-3, n_paths=1, seed=41)


def test_ergodic_compare_constant_function_is_exact():
    p = rank_jacobi([1.0, 1.0, 1.0])
    report = ergodic_compare(p, {"one": "one"}, sample_invariant(p, 100, 41, kind="named"),
                             T=1.0, dt=1e-3, n_paths=3, seed=41)
    entry = report.entries[0]
    assert entry.time_avg == 1.0
    assert entry.invariant_avg == 1.0
    assert entry.z_score == 0.0
    assert entry.passed


def test_ergodic_compare_constant_function_is_exact_over_several_blocks():
    # 10000 steps make five blocks; each adds dt * B to the elapsed time
    p = rank_jacobi([1.0, 1.0, 1.0])
    T, dt = 10.0, 1e-3
    assert -(-round(T / dt) // sde.BLOCK_STEPS) >= 3
    report = ergodic_compare(p, {"one": "one"}, sample_invariant(p, 100, 43, kind="named"),
                             T=T, dt=dt, n_paths=2, seed=43)
    assert report.entries[0].time_avg == 1.0
    assert report.entries[0].z_score == 0.0


def test_ergodic_compare_rejects_ranked_draws():
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="named"):
        ergodic_compare(p, {"x1": "x1"}, sample_invariant(p, 100, 41), T=1.0, dt=1e-3,
                        n_paths=1, seed=41)


def test_ergodic_compare_rank_jacobi_top_weight():
    p = rank_jacobi([1.0, 1.0, 1.0])
    report = ergodic_compare(
        p, {"y1": "y1", "x1": "x1"}, sample_invariant(p, 50_000, 43, kind="named"),
        T=60.0, dt=1e-3, n_paths=6, seed=43,
    )
    assert not report.under_resolved
    assert report.passed, [e.z_score for e in report.entries]
    assert {e.function_id for e in report.entries} == {"y1", "x1"}


def test_rank_occupancy_is_uniform_for_symmetric_name_model():
    # a = 0, symmetric gamma: each name occupies the top rank a third of the
    # time in the long run
    p = ModelParams(a=np.zeros(3), gamma=np.full(3, 2.0))
    report = ergodic_compare(
        p, {f"rank1_is_{i}": f"rank1_is_{i}" for i in (1, 2, 3)},
        sample_invariant(p, 30_000, 47, kind="named"),
        T=80.0, dt=1e-3, n_paths=4, seed=47,
    )
    for entry in report.entries:
        assert abs(entry.time_avg - 1.0 / 3.0) < 0.03
        assert entry.passed, (entry.function_id, entry.z_score)
