import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from openjacobi import (
    DivergentIntegralError,
    ModelParams,
    QuadratureError,
    SimplexError,
    as_ranked,
    as_simplex,
    diffusion_c,
    growth_exists,
    monomial_integral,
    monomial_integral_finite,
    ranking_order,
    ranks_of_names,
    validate_params,
)
from openjacobi.sde import drift
from openjacobi.simplex import (
    RENORM_TOL,
    SUM_TOL,
    ranked_weights,
    small_cap_integral,
    to_names,
)

from helpers import (
    diffusion_kappa,
    lambda_sum,
    name_of,
    ordered_simplex_integral,
    rank_of,
    tail_sum,
)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_as_simplex_renormalizes_small_deviation():
    x = as_simplex([0.5, 0.3, 0.2 + 5e-10])
    assert abs(x.sum() - 1.0) <= 1e-12


def test_as_simplex_rejects_large_deviation():
    with pytest.raises(SimplexError):
        as_simplex([0.5, 0.3, 0.3])


def test_as_simplex_rejects_out_of_range_entries():
    with pytest.raises(SimplexError):
        as_simplex([1.2, -0.2])
    with pytest.raises(SimplexError):
        as_simplex([0.5])


@settings(max_examples=200, deadline=None)
@given(w=hnp.arrays(float, st.integers(2, 8), elements=st.floats(0.0, 1.0))
       .filter(lambda w: w.sum() > 0.0),
       scale=st.floats(-0.5, 0.5))
def test_as_simplex_round_trips(w, scale):
    x = w / w.sum()
    v = as_simplex(x)
    assert not np.shares_memory(v, x)
    assert abs(v.sum() - 1.0) <= SUM_TOL
    assert np.all((v >= 0.0) & (v <= 1.0))
    np.testing.assert_allclose(v, x, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(as_simplex(v), v, rtol=1e-14, atol=0.0)
    # a sum off by less than RENORM_TOL is renormalized back onto the point
    np.testing.assert_allclose(as_simplex(x * (1.0 + scale * RENORM_TOL)), x,
                               rtol=1e-14, atol=0.0)
    # one off by more is rejected
    with pytest.raises(SimplexError):
        as_simplex(x * (1.0 + 4.0 * RENORM_TOL))
    ranked = ranked_weights(v)
    np.testing.assert_allclose(as_ranked(ranked), ranked, rtol=1e-14, atol=0.0)


def test_as_ranked_requires_monotone():
    as_ranked([0.5, 0.3, 0.2])
    with pytest.raises(SimplexError):
        as_ranked([0.3, 0.5, 0.2])


# ---------------------------------------------------------------------------
# ranks and names
# ---------------------------------------------------------------------------

def test_rank_of_examples():
    assert rank_of([0.2, 0.5, 0.3], 1) == 3
    assert rank_of([0.4, 0.4, 0.2], 2) == 2      # lexicographic tie-break
    assert rank_of([1 / 3, 1 / 3, 1 / 3], 3) == 3


def test_name_of_examples():
    assert name_of([0.2, 0.5, 0.3], 1) == 2
    assert name_of([0.4, 0.4, 0.2], 1) == 1


def test_rank_name_round_trip_including_ties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = rng.integers(2, 9)
        x = rng.dirichlet(np.ones(d))
        if rng.random() < 0.5 and d >= 3:       # force a tie
            x[1] = x[0]
            x /= x.sum()
        for i in range(1, d + 1):
            assert name_of(x, rank_of(x, i)) == i


def test_rank_indices_out_of_range():
    with pytest.raises(IndexError):
        rank_of([0.5, 0.5], 3)
    with pytest.raises(IndexError):
        name_of([0.5, 0.5], 0)


def test_order_and_ranks_are_inverse_batched():
    rng = np.random.default_rng(3)
    x = rng.dirichlet(np.ones(5), size=(4, 7))
    order = ranking_order(x)
    ranks = ranks_of_names(x)
    assert np.array_equal(np.take_along_axis(ranks, order, axis=-1),
                          np.broadcast_to(np.arange(5), order.shape))


# Small integer weights make ties common; rows are normalized onto the simplex.
_tied_weights = hnp.arrays(
    float,
    st.tuples(st.integers(1, 4), st.integers(2, 6)),
    elements=st.integers(0, 3).map(float),
).filter(lambda w: np.all(w.sum(axis=-1) > 0))


@settings(max_examples=200, deadline=None)
@given(w=_tied_weights)
def test_ranking_round_trips_with_ties(w):
    x = w / w.sum(axis=-1, keepdims=True)
    d = x.shape[-1]
    order = ranking_order(x)
    ranks = ranks_of_names(x)
    assert np.array_equal(np.take_along_axis(ranks, order, axis=-1),
                          np.broadcast_to(np.arange(d), x.shape))
    y = ranked_weights(x)
    assert np.array_equal(y, np.take_along_axis(x, order, axis=-1))
    assert np.array_equal(to_names(y, order), x)
    # a larger weight, or an equal weight and a smaller name, ranks ahead
    for i in range(d):
        for j in range(i + 1, d):
            ahead = x[..., i] >= x[..., j]
            assert np.array_equal(ranks[..., i] < ranks[..., j], ahead)


@settings(max_examples=100, deadline=None)
@given(w=_tied_weights,
       a=hnp.arrays(float, 6, elements=st.floats(-3, 3)),
       gamma=hnp.arrays(float, 6, elements=st.floats(-3, 3)),
       sigma=st.floats(0.1, 3.0))
def test_drift_sums_to_zero_on_the_simplex(w, a, gamma, sigma):
    x = w / w.sum(axis=-1, keepdims=True)
    d = x.shape[-1]
    params = ModelParams(a=a[:d], gamma=gamma[:d], sigma=sigma)
    scale = sigma * sigma * (np.abs(a[:d]).sum() + np.abs(gamma[:d]).sum() + 1.0)
    assert np.all(np.abs(drift(x, params).sum(axis=-1)) <= 1e-13 * scale)


# ---------------------------------------------------------------------------
# tail sums / index sets
# ---------------------------------------------------------------------------

def test_tail_sum_examples():
    assert tail_sum([1.0, 2.0, 3.0], 2) == 5.0
    assert tail_sum([0.0, -1 / 3, 1 / 2], 2) == pytest.approx(1 / 6, abs=1e-15)
    x = as_simplex([0.2, 0.5, 0.3])
    assert tail_sum(x, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(IndexError):
        tail_sum([1.0, 2.0], 3)


def test_lambda_sum_examples():
    x = [0.2, 0.5, 0.3]
    assert lambda_sum(x, []) == 0.0
    assert lambda_sum(x, [1, 2, 3]) == pytest.approx(1.0)
    assert lambda_sum(x, [1, 3]) == pytest.approx(0.5)
    with pytest.raises(IndexError):
        lambda_sum(x, [4])


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_validate_params_mixed_example():
    p = ModelParams(a=[0.0, -1 / 3, 1 / 2], gamma=[1 / 2, 1 / 3, 1 / 4])
    report = validate_params(p)
    assert report.valid
    assert np.allclose(report.margins, [0.75, 0.75])
    assert report.first_violation is None


def test_validate_params_symmetric_gamma():
    for g, valid in [(0.4, True), (0.0, False), (-0.1, False)]:
        p = ModelParams(a=np.zeros(4), gamma=np.full(4, g) if g else np.zeros(4))
        assert validate_params(p).valid is valid


@pytest.mark.parametrize("n_top", [0, 4])
def test_open_market_size_outside_one_to_d_minus_one_raises(n_top):
    p = ModelParams(a=np.full(4, 1.5), gamma=np.zeros(4))
    with pytest.raises(ValueError, match="1 <= N < d"):
        growth_exists(p, n_top)
    with pytest.raises(ValueError, match="1 <= N < d"):
        small_cap_integral(p.a, n_top)


# ---------------------------------------------------------------------------
# diffusion matrices
# ---------------------------------------------------------------------------

def test_diffusion_c_formula_entries():
    c = diffusion_c([0.5, 0.3, 0.2], sigma=1.0)
    assert c[0, 0] == pytest.approx(0.25)
    assert c[0, 1] == pytest.approx(-0.15)
    assert np.allclose(c, c.T)


def test_diffusion_c_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.dirichlet(np.ones(4))
        c = diffusion_c(x, sigma=1.3)
        assert np.abs(c.sum(axis=1)).max() < 1e-14
        assert np.linalg.eigvalsh(c).min() > -1e-12


def test_diffusion_c_vertex_is_zero():
    c = diffusion_c([1.0, 0.0, 0.0], sigma=2.0)
    assert np.abs(c).max() == 0.0


def test_diffusion_kappa_mirrors_c():
    y = [0.5, 0.3, 0.2]
    assert np.allclose(diffusion_kappa(y, 1.7), diffusion_c(y, 1.7))
    assert np.abs(diffusion_kappa(y, 1.7).sum(axis=1)).max() < 1e-14


# ---------------------------------------------------------------------------
# monomial integrals over the ordered simplex
# ---------------------------------------------------------------------------

def test_monomial_integral_finite_examples():
    assert monomial_integral_finite([1.0, 1.0, 1.0])
    assert not monomial_integral_finite([5.0, -1.0, 0.5])
    assert monomial_integral_finite([-1e6, -1.0, 1.5])   # tails 1/2 and 3/2


def test_monomial_integral_frozen_values():
    assert monomial_integral([1.0, 1.0]) == pytest.approx(0.5, rel=1e-10)
    assert monomial_integral([1.0, 2.0]) == pytest.approx(0.125, rel=1e-10)
    # ordered cell of the d = 3 simplex has measure (1/2) / 3!
    assert monomial_integral([1.0, 1.0, 1.0]) == pytest.approx(1 / 12, rel=1e-10)


@pytest.mark.parametrize("d,beta", [(2, 1.5), (3, 1.5), (3, 0.7), (4, 1.0), (4, 2.0),
                                    (5, 0.7), (5, 1.5), (6, 0.4), (6, 1.3)])
def test_monomial_integral_symmetric_oracle(d, beta):
    # symmetric case: the full-simplex Dirichlet integral split over d! cells
    oracle = special.gamma(beta) ** d / (math.factorial(d) * special.gamma(d * beta))
    assert monomial_integral([beta] * d) == pytest.approx(oracle, rel=1e-8)


def test_monomial_integral_asymmetric_d2_oracle():
    # direct reduction to an incomplete beta integral over [0, 1/2]
    b1, b2 = 2.3, 0.6
    oracle = special.betainc(b2, b1, 0.5) * special.beta(b2, b1)
    assert monomial_integral([b1, b2]) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("b", [
    [0.5, 0.6], [2.0, 0.1], [1.0, 0.5, 0.7], [3.0, -1.0, 2.0],
    [0.4, 0.4, 0.4, 0.4], [2.0, -0.5, 1.0, 0.6],
])
def test_monomial_integral_converges_when_finite(b):
    assert monomial_integral_finite(b)
    coarse = monomial_integral(b, rel_tol=1e-4)
    fine = monomial_integral(b, rel_tol=1e-7)
    assert fine == pytest.approx(coarse, rel=1e-3)


@pytest.mark.parametrize("b", [
    [1.0, 0.0], [1.0, -0.2], [1.0, 1.0, -1.0], [0.3, -0.2, 0.1],
    [1.0, 1.0, 1.0, -1.0],
])
def test_monomial_integral_divergence_detected_analytically(b):
    assert not monomial_integral_finite(b)
    with pytest.raises(DivergentIntegralError):
        monomial_integral(b)


# Q(b), frozen from the nested adaptive Gauss-Kronrod quadrature that
# preceded the shell recursion, run at rel_tol=1e-10.  The one exception is
# (2, -0.5, 1, 0.6), where that quadrature stalled at 1e-10; its value is
# frozen at rel_tol=1e-9.
FROZEN_INTEGRALS = {
    (2.3, 0.6): 0.8452037653267399,
    (-0.5, 1.5): 0.4292036732051034,
    (1.2, 0.8, 1.5): 0.02996693775636799,
    (3.0, -1.0, 2.0): 0.0963264454454267,
    (0.4, 0.4, 0.4, 0.4): 1.1289062076905816,
    (2.0, -0.5, 1.0, 0.6): 0.2050748202886197,
}


@pytest.mark.parametrize("b", sorted(FROZEN_INTEGRALS))
def test_monomial_integral_beta_grid_frozen(b):
    assert monomial_integral(b, rel_tol=1e-10) == pytest.approx(FROZEN_INTEGRALS[b], rel=1e-9)


def test_monomial_integral_d6_takes_under_a_second():
    start = time.perf_counter()
    monomial_integral([0.4, 1.3, 0.7, 2.0, 0.9, 1.1], rel_tol=1e-12)
    assert time.perf_counter() - start < 1.0


def test_monomial_integral_raises_when_rel_tol_cannot_be_met():
    # settles at 1e-10, but its 128- and 256-point rules still differ by
    # about 1.45e-7 on a value near 140.8, too much for 1e-15
    b = [20.0, 0.05, 0.05]
    assert monomial_integral(b, rel_tol=1e-10) > 0.0
    with pytest.raises(QuadratureError, match="stalled") as info:
        monomial_integral(b, rel_tol=1e-15)
    error = float(str(info.value).split("estimated error ")[1].split()[0])
    assert error > 0.0


@pytest.mark.parametrize("a", [
    [1.5, 1.3, 1.2, 1.1],
    [2.0, 1.0, 0.8, 0.7, 0.6, 1.2],
    [-3.5, 0.6, 0.6, 0.6, 0.6, 1.1],      # the shifts below have a_bar_1 = 1: one split
    [-4.5, 0.6, 0.6, 0.6, 0.6, 1.1],      # the shifts below have a_bar_1 = 0: two splits
])
def test_small_cap_integral_identities(a):
    # T / T = 1 gives Q(a) = sum_(k>N) I(a + e_k, N); with N = d - 1 the
    # integrand is the monomial of a - e_d
    b = np.array(a)
    d = b.size
    e = np.eye(d)
    for n_top in range(1, d):
        tails = sum(small_cap_integral(b + e[k], n_top, rel_tol=1e-10) for k in range(n_top, d))
        assert tails == pytest.approx(monomial_integral(b, rel_tol=1e-10), rel=1e-11)
    assert small_cap_integral(b, d - 1, rel_tol=1e-10) == pytest.approx(
        monomial_integral(b - e[-1], rel_tol=1e-10), rel=1e-11
    )


def test_small_cap_integral_divergence_is_decided_up_front():
    with pytest.raises(DivergentIntegralError):
        small_cap_integral([2.0, 0.5, 0.5, 0.5], 2)     # a_bar_3 = 1
    with pytest.raises(DivergentIntegralError):
        small_cap_integral([2.0, 1.5, 0.5, -0.2], 1)    # a_bar_4 < 0
    with pytest.raises(ValueError):
        small_cap_integral([1.5, 1.5, 1.5], 3)


def test_ordered_simplex_integral_measures():
    assert ordered_simplex_integral(lambda y: 1.0, 2) == pytest.approx(0.5, rel=1e-9)
    assert ordered_simplex_integral(lambda y: 1.0, 3) == pytest.approx(1 / 12, rel=1e-8)


def test_ordered_simplex_integral_matches_monomial_route():
    b = np.array([1.5, 1.2, 0.8])

    def fn(y):
        return float(np.prod(y ** (b - 1.0)))

    assert ordered_simplex_integral(fn, 3) == pytest.approx(
        monomial_integral(b), rel=1e-6
    )
