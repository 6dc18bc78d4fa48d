"""Helpers that only the tests use: scalar rank/name lookups, tail and
index-set sums, direct-algebra references for closed forms, covariations
and occupation fractions along stored paths, and a nested scipy quadrature
over the ordered simplex (d <= 3) that serves as an oracle independent of
the ordered-simplex recursion."""

from types import SimpleNamespace

import numpy as np
from scipy import integrate

from openjacobi.portfolio import INTERIOR_FLOOR, _increments
from openjacobi.sde import OccupationObserver, SimPath, ranked_minima
from openjacobi.simplex import (
    ModelParams,
    diffusion_c,
    ranked_weights,
    ranking_order,
    ranks_of_names,
)


def rank_of(x, i: int) -> int:
    """Rank (1-based) held by name ``i`` (1-based)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 1 <= i <= d:
        raise IndexError(f"name {i} out of range 1..{d}")
    return int(ranks_of_names(x)[i - 1]) + 1


def name_of(x, k: int) -> int:
    """Name (1-based) occupying rank ``k`` (1-based)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 1 <= k <= d:
        raise IndexError(f"rank {k} out of range 1..{d}")
    return int(ranking_order(x)[k - 1]) + 1


def tail_sum(v, k: int) -> float:
    """Sum of entries from position ``k`` (1-based) to the end."""
    v = np.asarray(v, dtype=float)
    if not 1 <= k <= v.shape[-1]:
        raise IndexError(f"index {k} out of range 1..{v.shape[-1]}")
    return float(v[k - 1:].sum())


def lambda_sum(x, names) -> float:
    """Sum of the weights of the given 1-based names; the empty set gives 0."""
    x = np.asarray(x, dtype=float)
    idx = _index_set(names, x.shape[-1])
    if idx.size == 0:
        return 0.0
    return float(x[idx - 1].sum())


def _index_set(names, d: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in names)), dtype=int)
    if idx.size and (idx[0] < 1 or idx[-1] > d):
        raise IndexError(f"index set entries must lie in 1..{d}")
    return idx


def diffusion_kappa(y, sigma: float = 1.0) -> np.ndarray:
    """Ranked diffusion matrix; the identical algebra on the ranked vector."""
    return diffusion_c(np.asarray(y, dtype=float), sigma)


def ordered_simplex_integral(fn, d: int, rel_tol: float = 1e-8) -> float:
    """Integral of a scalar function over the full ordered simplex, d <= 3.

    ``fn`` receives the full d-vector (y_1, ..., y_d).  Used for invariant
    densities and growth-rate integrands that are not pure monomials.
    """
    if d == 2:
        val, _ = integrate.quad(lambda y1: fn(np.array([y1, 1.0 - y1])),
                                0.5, 1.0, epsabs=0.0, epsrel=rel_tol, limit=200)
        return val
    if d == 3:
        def inner(y2, y1):
            return fn(np.array([y1, y2, 1.0 - y1 - y2]))

        val, _ = integrate.dblquad(
            inner, 1.0 / 3.0, 1.0,
            lambda y1: (1.0 - y1) / 2.0,
            lambda y1: min(y1, 1.0 - y1),
            epsabs=0.0, epsrel=rel_tol,
        )
        return val
    raise ValueError("full-simplex quadrature is limited to d <= 3")


def optimal_share_field(x, params: ModelParams) -> np.ndarray:
    """Share field solving c(x) v = drift(x): v_i = (gamma_i + a_rank(i)) / (2 x_i).

    After a market-portfolio shift this is the closed-market growth-optimal
    strategy.  Undefined on the boundary: zero weights raise.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("share field is undefined at zero weights")
    return (params.gamma + params.a[ranks_of_names(x)]) / (2.0 * x)


class RankPowerGradient:
    """The rank-power generator G = tail^(abar/2) prod_{k<=N} y_k^(a_k/2) of a
    rank-based model, as far as ``generated_theta`` reads it: the named
    gradient of log G, a_k / (2 x_i) for the name i at rank k <= N and
    abar / (2 tail) below, with tail = y_(N+1) + ... + y_d and abar its
    a-sum.  Rows with a top-N ranked weight or the tail under
    ``INTERIOR_FLOOR`` are nan.  Its generated strategy is the
    growth-optimal one, reached here without the open-market split."""

    def __init__(self, params: ModelParams, n_top: int):
        self.a = params.a
        self.n_top = n_top

    def grad_log(self, x):
        x = np.asarray(x, dtype=float)
        n = self.n_top
        ranks = ranks_of_names(x)
        y = ranked_weights(x)
        tail = y[..., n:].sum(axis=-1, keepdims=True)
        grad = np.where(ranks < n, self.a[ranks] / (2.0 * x), self.a[n:].sum() / (2.0 * tail))
        grad[(y[..., :n] < INTERIOR_FLOOR).any(axis=-1) | (tail[..., 0] < INTERIOR_FLOOR)] = np.nan
        return grad


def wealth_increments(theta_left, states, dt, sigma):
    """d log V per step from left-evaluated holdings along stored states."""
    return _increments(theta_left, states, dt, sigma)[0]


def realized_covariation(path: SimPath, i: int, j: int) -> np.ndarray:
    """Cumulative sum of increment products dX_i dX_j (names 1-based).

    The terminal value approximates the integrated model covariation
    integral of c_ij(X_t) dt along the same path.
    """
    d = path.states.shape[1]
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError("names out of range")
    dx = np.diff(path.states, axis=0)
    return np.cumsum(dx[:, i - 1] * dx[:, j - 1])


def model_covariation_integral(path: SimPath, i: int, j: int) -> np.ndarray:
    """Cumulative left-endpoint integral of c_ij(X_t) dt along the path."""
    x = path.states[:-1]
    sig2 = path.params.sigma ** 2
    xi = x[:, i - 1]
    xj = x[:, j - 1]
    rate = sig2 * (xi * ((i == j) - xj))
    return np.cumsum(rate) * path.dt


def occupation_stats(path: SimPath, eps: float) -> SimpleNamespace:
    """Fractions of grid times with near-collisions or near-boundary states
    along a stored path: ``OccupationObserver`` at one eps, fed the path as
    one block."""
    counter = OccupationObserver((eps,))
    counter.start(path.states[:1], path.dt)
    states = path.states[:, None, :]
    counter.update(states, ranked_minima(states[1:]))
    occ = counter.result()
    return SimpleNamespace(
        gap_fractions=occ["gap_fraction"][0, :, 0],
        min_weight_fraction=float(occ["min_weight_fraction"][0, 0]),
        triple_fraction=float(occ["triple_fraction"][0, 0]),
    )
