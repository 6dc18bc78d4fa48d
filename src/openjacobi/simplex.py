"""Simplex-valued state primitives.

Vectors of market weights live on the standard simplex (nonnegative entries
summing to one); their decreasing rearrangements live on the ordered
simplex.  This module provides validated constructors for both, rank/name
bookkeeping with a deterministic lexicographic tie-break, tail and power
sums, model-parameter validation, the Wright-Fisher-type diffusion matrix,
and monomial integrals over the ordered simplex (the normalizing-constant
machinery used by the invariant-density code) together with the open
market's small-cap integral.  Each integral is one backward recursion over a
single scalar per dimension, each level a Chebyshev table filled by a Gauss
rule, so its cost grows linearly in d.

Measure convention: all integrals over the simplex and the ordered simplex
are taken with respect to the pushforward of Lebesgue measure on R^{d-1}
under (x_1, ..., x_{d-1}) -> (x_1, ..., x_{d-1}, 1 - sum x_i).  This is the
plain Dirichlet-integral convention; it omits the sqrt(d) Jacobian of the
geometric surface measure, so comparisons against geometric-surface-measure
references must rescale accordingly.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev


class _OnFirstUse:
    """A module bound by name and imported on its first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# No code here calls scipy, which the package does not depend on.
# ``integrate`` stays bound, unloaded, because bench/tracing.py wraps
# ``simplex.integrate`` to count quad calls.  It goes when bench/ drops
# CountingIntegrate.
integrate = _OnFirstUse("scipy.integrate")

SUM_TOL = 1e-12          # accepted deviation of sum(x) from 1 after construction
RENORM_TOL = 1e-9        # inputs whose sum is off by at most this get renormalized


class SimplexError(ValueError):
    """Input cannot be interpreted as a point on the (ordered) simplex."""


class InvalidModelError(ValueError):
    """Model parameters violate the tail-margin positivity condition, or
    lie outside what the requested computation supports."""

    def __init__(self, message: str, violated_index: int | None = None):
        super().__init__(message)
        self.violated_index = violated_index


class DivergentIntegralError(ArithmeticError):
    """Monomial integral over the ordered simplex is infinite."""


class QuadratureError(ArithmeticError):
    """An ordered-simplex recursion did not settle to the requested tolerance."""


# ---------------------------------------------------------------------------
# validated constructors
# ---------------------------------------------------------------------------

def as_simplex(x) -> np.ndarray:
    """Validate (and possibly renormalize) a point of the standard simplex.

    Entries must lie in [0, 1] up to tiny arithmetic noise; sums within
    ``RENORM_TOL`` of 1 are renormalized, anything worse is rejected.
    Returns a fresh float array whose sum is 1 within ``SUM_TOL``.
    """
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise SimplexError("simplex points are 1-d with at least two entries")
    if not np.all(np.isfinite(v)):
        raise SimplexError("simplex entries must be finite")
    if v.min() < -SUM_TOL or v.max() > 1.0 + RENORM_TOL:
        raise SimplexError(f"entries outside [0, 1]: min={v.min()}, max={v.max()}")
    np.clip(v, 0.0, None, out=v)
    s = v.sum()
    if abs(s - 1.0) > RENORM_TOL:
        raise SimplexError(f"entries sum to {s}, too far from 1 to renormalize")
    if s != 1.0:
        v /= s
    if abs(v.sum() - 1.0) > SUM_TOL:
        raise SimplexError("renormalization failed to reach unit sum")
    return v


def as_ranked(y) -> np.ndarray:
    """Validate a point of the ordered simplex (non-increasing entries)."""
    v = as_simplex(y)
    if np.any(np.diff(v) > SUM_TOL):
        raise SimplexError("entries are not non-increasing")
    return v


# ---------------------------------------------------------------------------
# ranks and names
# ---------------------------------------------------------------------------

def ranking_order(x) -> np.ndarray:
    """0-based names listed by rank: ``order[k]`` names the (k+1)-th largest.

    Works on a single vector or a batch with shape (..., d).  Ties are broken
    lexicographically: among equal values the smaller name gets the better
    rank.  Comparison is exact (no epsilon); simulated states essentially
    never tie, and constructed ties resolve deterministically.
    """
    x = np.asarray(x, dtype=float)
    return np.argsort(-x, axis=-1, kind="stable")


def ranks_of_names(x) -> np.ndarray:
    """0-based rank occupied by each name; inverse permutation of order."""
    order = ranking_order(x)
    return to_names(np.broadcast_to(np.arange(order.shape[-1]), order.shape), order)


def ranked_weights(x) -> np.ndarray:
    """Decreasing rearrangement along the last axis: the ranked weights.

    Equals ``take_along_axis(x, ranking_order(x))``; a plain sort gives the
    same values because tied entries are equal.
    """
    x = np.asarray(x, dtype=float)
    return -np.sort(-x, axis=-1)


def to_names(by_rank, order) -> np.ndarray:
    """Scatter rank-indexed values to names: ``out[..., order[..., k]] =
    by_rank[..., k]``, with ``order`` as returned by ``ranking_order``."""
    by_rank = np.asarray(by_rank)
    out = np.empty(by_rank.shape, dtype=by_rank.dtype)
    np.put_along_axis(out, order, by_rank, axis=-1)
    return out


# ---------------------------------------------------------------------------
# tail sums and power sums
# ---------------------------------------------------------------------------

def tail_sums(v) -> np.ndarray:
    """All tail sums: ``out[k-1] = v_k + ... + v_d`` for k = 1..d."""
    v = np.asarray(v, dtype=float)
    return np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]


def power_sum(y, m: float) -> np.ndarray:
    """Symmetric power sum sum_k y_k^m over the last axis; m = 1 returns 1
    identically (the mass convention, immune to truncation)."""
    y = np.asarray(y, dtype=float)
    if m == 1:
        return np.ones(y.shape[:-1])
    return (y ** m).sum(axis=-1)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Parameters of a hybrid Jacobi market-weight model.

    ``a`` is the rank-indexed drift vector, ``gamma`` the name-indexed drift
    vector and ``sigma`` the common volatility scale.  The model is
    well-posed iff every tail margin a_bar_k + gamma_bar_(k) (k = 2..d) is
    strictly positive, where gamma_bar_(k) sums the d-k+1 smallest entries
    of gamma.
    """

    a: np.ndarray
    gamma: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", np.array(self.a, dtype=float))
        object.__setattr__(self, "gamma", np.array(self.gamma, dtype=float))
        if self.a.ndim != 1 or self.gamma.shape != self.a.shape:
            raise ValueError("a and gamma must be 1-d vectors of equal length")
        if self.d < 2:
            raise ValueError("need at least two assets")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def d(self) -> int:
        return self.a.size

    @property
    def is_rank_based(self) -> bool:
        return bool(np.all(self.gamma == 0.0))

    @property
    def total_mass(self) -> float:
        """a_bar_1 + gamma_bar_1, the mean-reversion coefficient."""
        return float(self.a.sum() + self.gamma.sum())

    def tail_margins(self) -> np.ndarray:
        """a_bar_k + gamma_bar_(k) for k = 2..d (length d-1)."""
        abar = tail_sums(self.a)
        gbar = tail_sums(ranked_weights(self.gamma))
        return abar[1:] + gbar[1:]


@dataclass(frozen=True)
class ParamReport:
    """Well-posedness report; ``margins[k-2]`` is a_bar_k + gamma_bar_(k)."""

    valid: bool
    margins: np.ndarray
    first_violation: int | None          # 1-based k of the first failing margin


def _check_open_size(n_top: int, d: int) -> None:
    """Raise ``ValueError`` unless the open market size N lies in 1..d-1."""
    if not 1 <= n_top < d:
        raise ValueError("need 1 <= N < d")


def validate_params(params: ModelParams) -> ParamReport:
    """Check the positivity of every tail margin and report it.

    Growth existence for an open market of size N is a separate question,
    answered by ``portfolio.growth_exists``.
    """
    margins = params.tail_margins()
    bad = np.flatnonzero(margins <= 0.0)
    return ParamReport(
        valid=bool(bad.size == 0),
        margins=margins,
        first_violation=int(bad[0]) + 2 if bad.size else None,
    )


def require_valid(params: ModelParams) -> None:
    """Raise ``InvalidModelError`` unless every tail margin is positive."""
    report = validate_params(params)
    if not report.valid:
        raise InvalidModelError(
            f"invalid model: tail margin at k={report.first_violation} is nonpositive",
            violated_index=report.first_violation,
        )


# ---------------------------------------------------------------------------
# diffusion matrices
# ---------------------------------------------------------------------------

def diffusion_c(x, sigma: float = 1.0) -> np.ndarray:
    """Named diffusion matrix sigma^2 * x_i (delta_ij - x_j); rows sum to 0."""
    x = np.asarray(x, dtype=float)
    return sigma * sigma * (np.diag(x) - np.outer(x, x))


def _name_set_sums(values):
    """The sum of ``values`` over each set S of indices, indexed by bitmask
    (bit i for index i), and the size |S| of each set."""
    total = np.zeros(1)
    for x in values:                                 # masks with bit i: the upper half
        total = np.concatenate([total, total + x])
    return total, np.bitwise_count(np.arange(total.size))


# ---------------------------------------------------------------------------
# monomial integrals over the ordered simplex
# ---------------------------------------------------------------------------

def monomial_integral_finite(exponents) -> bool:
    """True iff the monomial prod y_k^{b_k - 1} integrates over the full
    ordered simplex, i.e. iff every tail sum b_bar_k (k >= 2) is positive."""
    b = np.asarray(exponents, dtype=float)
    return bool(np.all(tail_sums(b)[1:] > 0.0))


_SHELL_RULE_SIZES = (8, 16, 32, 64, 128, 256)
SHELL_SLICE_ELEMENTS = 1 << 20   # rule points (sets x n x n) of one slice of a level


def monomial_integral(exponents, rel_tol: float = 1e-8) -> float:
    """Integral of prod_k y_k^{b_k - 1} over the ordered simplex
    {y_1 >= ... >= y_d >= 0, sum y_k = 1}.

    ``_shell_recursion`` integrates one scalar variable per dimension.  The
    rule size doubles until two successive sizes agree to within
    50 * rel_tol relative; ``QuadratureError`` reports a value that does
    not settle by the largest size.  Divergence is decided analytically up
    front, never by watching the quadrature fail.
    """
    b = np.asarray(exponents, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("exponent vector must be 1-d and nonempty")
    if not monomial_integral_finite(b):
        bad = np.flatnonzero(tail_sums(b)[1:] <= 0.0)[0] + 2
        raise DivergentIntegralError(
            f"tail sum of exponents from position {bad} is nonpositive; integral diverges"
        )
    if b.size == 1:
        # degenerate one-point simplex {y_1 = 1}; pushforward of Lebesgue
        # on R^0 is a unit point mass
        return 1.0
    tails = tail_sums(b)
    return _settle(lambda n: _shell_recursion(tails, n), rel_tol, 1.0)


def small_cap_integral(exponents, n_top: int, rel_tol: float = 1e-8) -> float:
    """Integral of prod_k y_k^{a_k - 1} / T over the ordered simplex, where
    T = y_(N+1) + ... + y_d is the mass below rank N = ``n_top``.

    Finite iff a_bar_k > 1 for k = 2..N+1 and a_bar_k > 0 beyond.  With
    B = a_bar_1 > 1 and A = a_bar_(N+1), the Laplace form of 1/T on the cone
    gives I = (B - 1)/(A - 1) int F_a(u) max(1, u_(N+1))^(1 - A) du, where
    F_a is the integrand of ``_shell_recursion`` and the junction ratio
    u_(N+1) = y_(N+1)/y_N runs over [0, inf) instead of [0, 1].  For
    B <= 1, sum y = 1 gives I(a) = Q(a) + sum_(k<=N) I(a + e_k), each term
    raising B by one.  With N = d-1, T = y_d and I is the monomial
    integral of a - e_d.
    """
    a = np.asarray(exponents, dtype=float)
    d = a.size
    _check_open_size(n_top, d)
    tails = tail_sums(a)
    if np.any(tails[1:n_top + 1] <= 1.0) or np.any(tails[n_top + 1:] <= 0.0):
        raise DivergentIntegralError(
            "small-cap integral diverges: need a_bar_k > 1 for k = 2..N+1 "
            "and a_bar_k > 0 beyond"
        )
    e = np.eye(d)
    if n_top == d - 1:
        return monomial_integral(a - e[-1], rel_tol=rel_tol)
    if tails[0] <= 1.0:
        return monomial_integral(a, rel_tol=rel_tol) + sum(
            small_cap_integral(a + e[k], n_top, rel_tol) for k in range(n_top))
    scale = (tails[0] - 1.0) / (tails[n_top] - 1.0)
    return _settle(lambda n: _shell_recursion(tails, n, n_top), rel_tol, scale)


def _settle(recursion, rel_tol: float, scale: float) -> float:
    """``scale * recursion(n)`` once two successive rule sizes n agree to
    within 50 * rel_tol relative; ``QuadratureError`` if they never do."""
    value = math.nan                 # no comparison with nan holds
    for n in _SHELL_RULE_SIZES:
        previous = value
        with np.errstate(over="ignore", invalid="ignore"):
            value = recursion(n)
        if not math.isfinite(value):
            raise QuadratureError("ordered-simplex recursion returned a non-finite value")
        if abs(value - previous) <= 50 * rel_tol * abs(value):
            return scale * value
    raise QuadratureError(
        f"quadrature stalled: estimated error {scale * abs(value - previous):.3g} "
        f"on value {scale * value:.6g}"
    )


def _shell_recursion(tails, n: int, junction: int = 0, gamma=None) -> float:
    """Q(b), the monomial integral over the ordered simplex, from the tail
    sums of b, with rules of size n; with ``gamma``, the sum of
    Q(b + gamma_sigma) over all d! assignments sigma of names to ranks.

    With u_k = y_k / y_{k-1} and sigma_k = y_k / (y_1 + ... + y_k), so that
    sigma_1 = 1 and sigma_k = u_k s / (1 + u_k s) for s = sigma_{k-1},

        Q = int_[0,1]^(d-1) prod_(k>=2) u_k^(bbar_k - 1)
            (1 + u_k sigma_(k-1))^(-bbar_1) du.

    Integrating u_d, ..., u_2 in turn leaves one function of one scalar
    per level: H_d = 1, H_(k-1)(s) = int_0^1 u^(bbar_k - 1)
    (1 + u s)^(-bbar_1) H_k(u s / (1 + u s)) du, and Q = H_1(1).  H_k lives
    on [0, 1/k], where it is analytic, so it is tabulated at n Chebyshev
    points after division by the envelope (1 + (d - k) s)^(-bbar_1), which
    carries its steep decay for large exponents.  The u-rule is
    Gauss-Jacobi for the weight u^(bbar_k - 1), integrable exactly when
    ``monomial_integral_finite`` holds.

    Under sigma, bbar_k = b_bar_k + gamma(S_k), S_k the names at ranks
    k..d, and the recursion is linear in H_k, so each name set S (bitmask
    as in ``_name_set_sums``) gets one table: H_j[S], S the names at ranks
    j+1..d, integrates the sum of H_(j+1)[S - {i}] over i in S with
    exponent b_bar_(j+1) + gamma(S), and the sum over sigma is that of
    H_1[S] over the d sets of d - 1 names.  Without ``gamma`` each level
    has one set, the only case that takes a junction.  A level's sets go
    SHELL_SLICE_ELEMENTS rule points at a time; with ``gamma`` the time
    grows like 2^d n^3 and the tables' memory like 2^d n.

    A junction N >= 1 instead integrates F_b(u) max(1, u_(N+1))^(1 - bbar_(N+1))
    with u_(N+1) over [0, inf), as ``small_cap_integral`` needs.  H_j for
    j > N is unchanged but lives on [0, 1/(j - N)].  On u_(N+1) >= 1 the
    weight is 1, and x = u s / (1 + u s) over [s / (1 + s), 1) takes a
    Gauss-Jacobi rule for (1 - x)^(bbar_1 - 2).  H_N(s) grows like 1/s as
    s -> 0, so the levels j <= N tabulate G_j = s H_j, which obeys the same
    recursion with bbar_(j+1) and bbar_1 each lowered by one.
    """
    d = tails.size
    if gamma is None:                # set m is the ranks d-m+1..d, its subset m - 1
        set_sums, size = np.zeros(d), np.arange(d)
        subsets = lambda sets: sets[:, None] - 1
    else:                            # S ^ bit with bit outside S is one level up, still 0
        set_sums, size = _name_set_sums(gamma)
        subsets = lambda sets: sets[:, None] ^ (1 << np.arange(d))
    coef = np.zeros((size.size, n))  # per set, H / envelope in Chebyshev coefficients
    result = 0.0
    for j in range(d - 1, 0, -1):    # integrate u_(j+1) out, giving H_j
        total = tails[0] + set_sums[-1] - (j < junction)
        t_hi = hi if j < d - 1 else None
        if j == 1:
            s = np.ones(1)
        else:
            hi = 1.0 / (j - junction if j > junction else j)
            s = hi * (_chebyshev(n)[0] + 1.0) / 2.0
        m = d - j
        level = np.flatnonzero(size == m)
        step = max(1, SHELL_SLICE_ELEMENTS // (n * n))
        for sets in (level[i:i + step] for i in range(0, level.size, step)):
            c = tails[j] + set_sums[sets] - (j < junction)
            u, weights = (_jacobi(n, c.item()) if c.size == 1
                          else np.stack([_jacobi(n, x) for x in c], axis=1))
            us = u[..., None, :] * s[:, None]
            # (1 + u s)^(-bbar_1) times the envelope of H_(j+1) at u s / (1 + u s)
            # is (1 + m u s)^(-bbar_1); dividing by H_j's envelope at s leaves
            vals = weights[..., None, :] * np.exp(
                -total * (np.log1p(m * us) - np.log1p(m * s[:, None])))
            x_next = us / (1.0 + us)
            if j == junction:
                # G_N's envelope is (1 + m s)^(1 - bbar_1); x = (s + t) / (1 + s)
                # on u >= 1, so H_(N+1)'s envelope there is (1 + m s + (m - 1) t)^(-bbar_1)
                # times (1 + s)^bbar_1
                t, w = _jacobi(n, total - 1.0)
                t = 1.0 - t
                s_col = s[:, None]
                far = w * (1.0 + s_col) * (1.0 + (m - 1) * t / (1.0 + m * s_col)) ** -total
                vals = np.concatenate([vals * s_col, far], axis=-1) / (1.0 + m * s_col)
                x_next = np.concatenate([x_next, (s_col + t) / (1.0 + s_col)], axis=-1)
            if t_hi is not None:
                below = coef[subsets(sets)].sum(axis=-2)
                z = np.clip((2.0 * x_next - t_hi) / t_hi, -1.0, 1.0)
                vals *= chebyshev.chebval(z, below.T.reshape(below.T.shape + (1,) * (z.ndim - 1)),
                                          tensor=False)
            h = vals.sum(axis=-1)
            if j == 1:
                result += float(h.sum())
            else:
                coef[sets] = np.reshape(h, (sets.size, n)) @ _chebyshev(n)[1].T
    return result * float(d) ** -(total - (junction == 1))


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int):
    """Chebyshev points of the first kind and the matrix taking values at
    them to Chebyshev coefficients of the interpolant."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    to_coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    to_coef[0] /= 2.0
    points = np.cos(theta)
    points.flags.writeable = to_coef.flags.writeable = False
    return points, to_coef


@functools.lru_cache(maxsize=1024)
def _jacobi(n: int, c: float):
    """Gauss-Jacobi rule on [0, 1] for the weight u^(c - 1), c > 0.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    polynomials orthogonal for u^(c - 1) on [0, 1], the Jacobi polynomials
    with alpha = 0, beta = c - 1 moved from x to u = (1 + x) / 2.  In u the
    matrix is positive definite, and eigvalsh finds its smallest eigenvalues,
    the nodes near 0 where small c puts most of the mass, far more accurately
    than 1 + x (n = 256, c = 0.05: the smallest node to 2e-11 relative,
    against 2e-9 through x).  The weights are the Christoffel numbers
    1 / (c sum_(k<n) p_k(u)^2), with p_k orthonormal for the probability
    measure (p_0 = 1) from the three-term recurrence; a sum that overflows
    gives weight 0.  The squared first eigenvector components would give
    the weights only to about 1e-16 of the largest one, and the steep
    integrands of large exponents need the small weights to full relative
    accuracy.
    """
    beta = c - 1.0
    k = np.arange(n, dtype=float)
    s = 2.0 * k + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (1.0 + beta * beta / (s * (s + 2.0))) / 2.0
    mid[0] = c / (c + 1.0)
    k, s = k[1:], s[1:]
    off = k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    u = np.linalg.eigvalsh(np.diag(mid) + np.diag(off, -1))
    below = np.concatenate(([0.0], off))
    p_prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 1):
            p_prev, p = p, ((u - mid[j]) * p - below[j] * p_prev) / off[j]
            total += p * p
    w = np.where(np.isfinite(total), 1.0 / (c * total), 0.0)
    u.flags.writeable = w.flags.writeable = False
    return u, w
