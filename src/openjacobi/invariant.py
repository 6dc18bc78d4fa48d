"""Stationary laws of hybrid Jacobi models: densities, sampling, ergodics.

The stationary density of the named weights is, up to the normalizer Z,
prod_k y_k^(a_k + gamma_{name at rank k} - 1) evaluated at the ranked
rearrangement.  The ranked weights carry the density summed over the
name-to-rank assignments; for a hybrid model that sum and Z run over the
2^d name sets rather than the d! assignments.
Every sampler is exact and returns independent draws.  Sampling has two
routes: Dirichlet when the rank part is absent (a = 0), and an
exponential-spacing rejection sampler for every other model.  The spacing
sampler proposes ranked weights from the rank-based law with exponents
a + g, g the decreasing rearrangement of gamma, under an envelope that is
an exponential tilt from the weighted AM-GM inequality, at the point of the
simplex that maximizes its acceptance.  When gamma != 0 each proposal also
draws its names, which raise the rates of the spacings below them; the
weights of the names come from tables over the 2^d name sets, so the
sampler needs no normalizer and d is limited to NAME_SET_MAX_DIM.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import mean_and_se, substream, z_score
from .sde import TimeAverageObserver, run_paths
from .simplex import (
    InvalidModelError,
    ModelParams,
    _name_set_sums,
    _settle,
    _shell_recursion,
    as_ranked,
    as_simplex,
    monomial_integral,
    power_sum,
    ranked_weights,
    ranking_order,
    require_valid,
    tail_sums,
    to_names,
)

ACCEPTANCE_FLOOR = 1e-3
SPACING_CHUNK = 20_000    # spacing proposals drawn per round
SPACING_MAX_PROPOSALS = 10 ** 6   # with none accepted, acceptance is below 3e-6
                                  # at 95% confidence, far under ACCEPTANCE_FLOOR
SAMPLER_METHODS = ("dirichlet", "spacing", "mcmc")   # "mcmc": alias of "spacing"
ENVELOPE_MAX_ITER = 1_000  # steps toward the spacing envelope's best point
ENVELOPE_TOL = 1e-12      # smallest gain (and step) that counts
NAME_SET_MAX_DIM = 20     # hybrid laws are computed from tables over all 2^d name sets
HYBRID_NORMALIZER_MAX_DIM = 14   # time grows like 2^d n^3: the largest d timed


# ---------------------------------------------------------------------------
# densities and normalizing constants
# ---------------------------------------------------------------------------

def density_p(x, params: ModelParams) -> float:
    """Unnormalized stationary density of the named weights at a single point.

    Interior points with negative exponents at vanishing coordinates give
    +inf, which is reported as such rather than raised: the density is
    genuinely singular there.
    """
    x = as_simplex(x)
    order = ranking_order(x)
    return float(_monomial_at(x[order], params.a + params.gamma[order]))


def _require_name_sets(d: int, what: str, limit: int = NAME_SET_MAX_DIM) -> None:
    """Raise ``InvalidModelError`` if a hybrid model is too large for the
    tables over its 2^d name sets."""
    if d > limit:
        raise InvalidModelError(f"hybrid {what} is limited to d <= {limit}")


def density_q(y, params: ModelParams) -> float:
    """Unnormalized stationary density of the ranked weights at a single
    ranked point: the named density summed over all name-to-rank
    assignments, so that divided by ``normalizer(params)`` it integrates to
    one over the ordered simplex.

    In the rank-based case (gamma = 0) this is d! prod y_k^(a_k - 1).
    Otherwise it is the permanent of the factors y_k^(a_k + gamma_i - 1),
    summed rank by rank over the 2^d name sets (bitmask-indexed, as in
    ``_name_sets``): the sum for the set S of names at ranks 1..m is that
    for S - {i} times the factor of name i at rank m, summed over i in S.
    A factor 0^(negative) makes the density +inf, as in ``density_p``.
    Each rank's factors are divided by their largest in logs, so no single
    factor overflows or underflows.  Hybrid models are limited to
    d <= NAME_SET_MAX_DIM.
    """
    y = as_ranked(y)
    d = params.d
    if params.is_rank_based:
        return math.factorial(d) * float(_monomial_at(y, params.a))
    _require_name_sets(d, "density")
    logs = _log_powers(y[:, None], params.a[:, None] + params.gamma - 1.0)  # (rank, name)
    if np.any(logs == math.inf):
        return math.inf
    top = logs.max(axis=1)
    if np.any(top == -math.inf):     # a rank whose every factor is 0
        return 0.0
    factors = np.exp(logs - top[:, None])
    _, size = _name_set_sums(params.gamma)
    total = np.zeros(size.size)
    total[0] = 1.0
    for k in range(d):
        level = np.flatnonzero(size == k + 1)
        # S ^ bit with bit outside S lies one level up, still 0 here
        total[level] = sum(total[level ^ (1 << i)] * factors[k, i] for i in range(d))
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(np.log(total[-1]) + top.sum()))


def _monomial_at(y, b) -> np.ndarray:
    """prod_k y_k^(b_k - 1) for each row of exponents b (..., d), with
    0^0 = 1, 0 to a positive power = 0 and 0 to a negative power = +inf
    (which wins over a zero factor in the same row)."""
    logs = _log_powers(y, np.asarray(b, dtype=float) - 1.0)
    singular = np.any(logs == math.inf, axis=-1)
    return np.where(singular, math.inf, np.exp(logs.sum(axis=-1)))


def _log_powers(y, expo) -> np.ndarray:
    """log y^expo, with 0^0 = 1, 0 to a positive power = 0 (-inf) and 0 to
    a negative power = +inf (+inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(expo == 0.0, 0.0, expo * np.log(y))


def normalizer(params: ModelParams) -> float:
    """Normalizer Z of the named density: the sum of the ordered-simplex
    monomial integrals Q(a + gamma_sigma) over all name-to-rank assignments
    sigma.

    A rank-based model gives d! Q(a), a hybrid one a ``_shell_recursion``
    over its 2^d name sets, limited to d <= HYBRID_NORMALIZER_MAX_DIM.
    Invalid parameters raise with the violated tail-sum index attached.
    """
    require_valid(params)
    d = params.d
    if params.is_rank_based:
        return math.factorial(d) * monomial_integral(params.a)
    _require_name_sets(d, "normalizer", HYBRID_NORMALIZER_MAX_DIM)
    tails = tail_sums(params.a)
    return _settle(lambda n: _shell_recursion(tails, n, gamma=params.gamma), 1e-8, 1.0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@dataclass
class SampleResult:
    """Draws from the stationary law plus sampler diagnostics.

    ``acceptance_rate`` is the spacing rejection sampler's rate.  Every
    route returns independent draws, so ``ess`` is n.
    """

    draws: np.ndarray                # (n, d); ranked or named per ``kind``
    kind: str                        # "ranked" | "named"
    method: str                      # "dirichlet" | "spacing"
    acceptance_rate: float | None = None
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    @property
    def ess(self) -> float:
        return float(self.n)


def sample_invariant(params: ModelParams, n: int, seed: int, kind: str = "ranked",
                     method: str | None = None, **options) -> SampleResult:
    """Draw n samples from the stationary law.

    ``kind`` selects ranked or named coordinates; ``method`` overrides the
    automatic routing (Dirichlet for a = 0, spacing rejection otherwise).
    ``"mcmc"`` names the spacing route, as the stationary-laws benchmark
    config still does.  ``options`` go to the routed sampler, so one it
    does not take raises ``TypeError``.
    """
    require_valid(params)
    if n < 1:
        raise ValueError("need n >= 1")
    if kind not in ("ranked", "named"):
        raise ValueError("kind must be 'ranked' or 'named'")
    if method is None:
        method = "dirichlet" if np.all(params.a == 0.0) else "spacing"
    if method not in SAMPLER_METHODS:
        raise ValueError(f"unknown sampler method {method!r}")
    if method == "mcmc":
        # The stationary-laws benchmark config still names the former
        # Metropolis route and passes its burn_in; the alias goes once a
        # benchmark change renames that config to "spacing".
        method = "spacing"
        options.pop("burn_in", None)
    rng = substream(seed, f"invariant-{method}")
    sampler = _sample_dirichlet if method == "dirichlet" else _sample_spacing
    return sampler(params, n, rng, kind, **options)


def _sample_dirichlet(params, n, rng, kind):
    """Dirichlet(gamma) draws; with a = 0 the smallest gamma_i is the last
    tail margin, which ``require_valid`` has made positive."""
    if not np.all(params.a == 0.0):
        raise InvalidModelError("exact Dirichlet sampling requires a = 0")
    draws = rng.dirichlet(params.gamma, size=n)
    if kind == "ranked":
        draws = ranked_weights(draws)
    return SampleResult(draws=draws, kind=kind, method="dirichlet")


class SamplerStallError(RuntimeError):
    """The rejection sampler accepted nothing within its proposal budget."""


def _envelope_rates(abar, w):
    """Proposal rates r_j = abar_j - abar_1 W_j, W_j = w_j + ... + w_d, of
    the tilted envelope at w (j = 2..d)."""
    return abar[1:] - abar[0] * tail_sums(w)[1:]


def _entropy(w):
    """sum_k -w_k log w_k with 0 log 0 = 0, equal bit for bit to
    ``scipy.special.entr(w).sum()`` (``np.log`` is not: it may differ in
    the last bit)."""
    return np.array([-x * math.log(x) if x > 0.0 else 0.0 for x in w.tolist()]).sum()


def _envelope_gain(abar, w) -> float:
    """L(w) = log(acceptance of the envelope at w / acceptance at w = e_1).

    L(w) = abar_1 H(w) + sum_j log(r_j / abar_j), with H the entropy of w;
    -inf when some rate r_j is not positive.  L is concave in w and
    L(e_1) = 0.
    """
    rates = _envelope_rates(abar, w)
    if np.any(rates <= 0.0):
        return -math.inf
    return float(abar[0] * _entropy(w) + np.log(rates / abar[1:]).sum())


def _envelope_weights(abar) -> np.ndarray:
    """The point w of the simplex that maximizes the acceptance of the
    tilted envelope, for abar_1 > 0.

    The stationary point of L satisfies w_k proportional to
    exp(-(1/r_2 + ... + 1/r_k)).  Starting from w = e_1 (the plain y_1 <= 1
    bound), each step moves toward that map's image, halving the step until
    L does not fall and every rate stays positive.  The direction is an
    ascent direction of the concave L, so the iteration stops at the
    maximum, to within ENVELOPE_TOL of gain per step.  w depends on
    ``abar`` alone.
    """
    w = np.zeros(abar.size)
    w[0] = 1.0
    gain = 0.0
    for _ in range(ENVELOPE_MAX_ITER):
        image = np.exp(-np.concatenate([[0.0], np.cumsum(1.0 / _envelope_rates(abar, w))]))
        image /= image.sum()
        step = 1.0
        while step > ENVELOPE_TOL:
            trial = w + step * (image - w)
            trial_gain = _envelope_gain(abar, trial)
            if trial_gain >= gain:
                break
            step *= 0.5
        else:
            break
        if trial_gain - gain <= ENVELOPE_TOL:
            return trial
        w, gain = trial, trial_gain
    return w


def _spacing_proposal(rates, n, rng):
    """Ranked points from independent exponential log-spacings
    z_k ~ Exp(rates_k) (k = 2..d; one row of rates or one per point), with
    their cumulative sums Z_k = z_2 + ... + z_k = log(y_1 / y_k)."""
    d = rates.shape[-1] + 1
    z = rng.exponential(1.0, size=(n, d - 1)) / rates
    cum = np.cumsum(z, axis=1)
    rel = np.exp(-cum)                               # y_k / y_1 for k = 2..d
    y1 = 1.0 / (1.0 + rel.sum(axis=1))
    y = np.empty((n, d))
    y[:, 0] = y1
    y[:, 1:] = y1[:, None] * rel
    return y, cum


def _spacing_envelope(abar):
    """Proposal rates r_j = abar_j - abar_1 W_j (W_j = w_j + ... + w_d) of
    the spacing sampler and its log acceptance ratio, a function of the
    proposed points and their cumulative log-spacings."""
    if abar[0] > 0.0:
        w = _envelope_weights(abar)
        log_bound = -abar[0] * _entropy(w)
    else:                                            # y_1 >= 1/d
        w = np.zeros(abar.size)
        w[0] = 1.0
        log_bound = -abar[0] * math.log(abar.size)

    def log_acceptance(y, cum):
        return abar[0] * (np.log(y[:, 0]) - cum @ w[1:]) - log_bound

    return _envelope_rates(abar, w), log_acceptance


def _name_sets(gamma, rates):
    """Tilts T and weights V of the name sets S of a hybrid model, indexed
    by bitmask (bit i for name i).

    With sigma the name at each rank and S_j the names at ranks j..d, the
    stationary law is the rank-based law with exponents a + g times
    prod_k y_k^(gamma_sigma(k) - g_k) = exp(-sum_(j>=2) T(S_j) z_j), where
    T(S) = gamma(S) - (sum of the |S| smallest gamma) >= 0.  So drawing
    z_j ~ Exp(r_j + T(S_j)) gives (z, sigma) the envelope's density times
    that factor if sigma has probability prod_(j>=2) phi(S_j) / V(all),
    phi(S) = r_j / (r_j + T(S)) at j = d - |S| + 1 (1 for all names).
    V(S) = phi(S) sum_(i in S) V(S - {i}), V(empty) = 1, so choosing the
    name at each rank in turn with probability proportional to V of the
    names left does that.
    """
    d = gamma.size
    total, size = _name_set_sums(gamma)
    tilt = total - np.concatenate([[0.0], np.cumsum(np.sort(gamma))])[size]
    rate = np.concatenate([[math.inf], rates[::-1], [math.inf]])[size]
    phi = 1.0 / (1.0 + tilt / rate)
    weight = np.zeros(1 << d)
    weight[0] = 1.0
    for s in range(1, d + 1):
        level = np.flatnonzero(size == s)
        # S ^ bit with bit outside S lies one level up, still 0 here
        weight[level] = phi[level] * sum(weight[level ^ (1 << i)] for i in range(d))
    return tilt, weight


def _draw_names(rates, tilt, weight, m, rng):
    """m name assignments sigma (the name at each rank) drawn with the
    weights of ``_name_sets``, and each one's spacing rates r_j + T(S_j)
    (j = 2..d)."""
    d = rates.size + 1
    bits = 1 << np.arange(d)
    left = np.full(m, (1 << d) - 1)
    sigma = np.empty((m, d), dtype=np.intp)
    step_rates = np.empty((m, d - 1))
    u = rng.random((m, d - 1))
    for k in range(d - 1):
        rest = left[:, None] ^ bits
        cw = weight[rest]
        cw[rest > left[:, None]] = 0.0               # name i is already placed
        np.cumsum(cw, axis=1, out=cw)
        sigma[:, k] = (cw <= u[:, k, None] * cw[:, -1:]).sum(axis=1)
        left ^= bits[sigma[:, k]]
        step_rates[:, k] = rates[k] + tilt[left]
    sigma[:, -1] = np.argmax(left[:, None] & bits, axis=1)
    return sigma, step_rates


def _sample_spacing(params, n, rng, kind):
    """Exact rejection sampler for the stationary law of any model.

    In log-spacings z_k = log(y_(k-1) / y_k) (k = 2..d) the rank-based law
    with exponents b has density proportional to y_1^bbar_1
    exp(-sum_k bbar_k z_k), bbar the tail sums of b.  The proposal takes
    b = a + g, g the decreasing rearrangement of gamma, so bbar_k for k >= 2
    are the model's tail margins.  For bbar_1 > 0 the weighted AM-GM
    inequality bounds, for any w on the simplex, y_1 <= prod_k w_k^w_k
    exp(sum_j W_j z_j) with W_j = w_j + ... + w_d; the sampler proposes
    z_j ~ Exp(bbar_j - bbar_1 W_j) and accepts with probability
    exp(bbar_1 (log y_1 - sum_j W_j z_j - sum_k w_k log w_k)) <= 1.  The
    point w maximizes the acceptance (``_envelope_weights``); w = e_1 is
    the plain bound y_1 <= 1.  For bbar_1 <= 0 it proposes z_k ~ Exp(bbar_k)
    and uses y_1 >= 1/d.

    When gamma != 0 each proposal first draws sigma, the name at each rank,
    whose names raise the rates of the spacings below them (``_name_sets``);
    the same envelope test then makes the accepted pairs follow
    prod_k y_k^(a_k + gamma_sigma(k) - 1), the stationary law.  A named
    draw puts y_k at name sigma(k).  Named
    rank-based draws give the ranks to names uniformly after the loop.
    Ranking the named draws gives back the ranked ones bit for bit.  The
    acceptance rate counts proposals beyond the n draws returned; more than
    SPACING_MAX_PROPOSALS proposals with none accepted raise
    ``SamplerStallError``.
    """
    d = params.d
    g = ranked_weights(params.gamma)
    rates, log_acceptance = _spacing_envelope(tail_sums(params.a + g))
    hybrid = not params.is_rank_based
    if hybrid:
        _require_name_sets(d, "sampling")
        tilt, weight = _name_sets(params.gamma, rates)
    out = np.empty((n, d))
    names = np.empty((n, d), dtype=np.intp) if hybrid else None
    got = accepted = proposed = 0
    while got < n:
        m = min(SPACING_CHUNK, max(1024, n - got))
        step_rates = rates
        if hybrid:
            sigma, step_rates = _draw_names(rates, tilt, weight, m, rng)
        y, cum = _spacing_proposal(step_rates, m, rng)
        keep = np.flatnonzero(np.log(rng.random(m)) < log_acceptance(y, cum))
        take = keep[: n - got]
        out[got:got + take.size] = y[take]
        if hybrid:
            names[got:got + take.size] = sigma[take]
        got += take.size
        accepted += keep.size
        proposed += m
        if proposed > SPACING_MAX_PROPOSALS and got == 0:
            raise SamplerStallError(
                f"rejection sampler accepted none of {proposed} proposals")
    if kind == "named":
        if not hybrid:
            names = rng.permuted(np.broadcast_to(np.arange(d), (n, d)), axis=1)
        out = to_names(out, names)
    rate = accepted / proposed
    warnings = ([f"rejection acceptance rate {rate:.2e} below floor {ACCEPTANCE_FLOOR}"]
                if rate < ACCEPTANCE_FLOOR else [])
    return SampleResult(draws=out, kind=kind, method="spacing",
                        acceptance_rate=rate, warnings=warnings)


# ---------------------------------------------------------------------------
# named statistics and the ergodic experiment
# ---------------------------------------------------------------------------

_INDEXED_STATS = [  # each group is a 1-based coordinate, rank or name
    (re.compile(r"^x(\d+)$"), lambda i: lambda x:
        x[..., i]),
    (re.compile(r"^y(\d+)$"), lambda k: lambda x:
        ranked_weights(x)[..., k]),
    (re.compile(r"^y(\d+)\^2$"), lambda k: lambda x:
        ranked_weights(x)[..., k] ** 2),
    (re.compile(r"^rank(\d+)_is_(\d+)$"), lambda k, i: lambda x:
        (ranking_order(x)[..., k] == i).astype(float)),
]


def make_statistic(spec: str, d: int | None = None):
    """Vectorized statistic from a short name: one, x3, y1, y1^2, phi2,
    rank1_is_2 (indicator that name 2 occupies the top rank).

    Indices are 1-based; one below 1, or above ``d`` when given (the
    dimension of the points the statistic reads), raises ``ValueError``.
    """
    if spec == "one":
        return lambda x: np.ones(x.shape[:-1])
    m = re.match(r"^phi(\d+)$", spec)
    if m:
        return lambda x, p=int(m.group(1)): power_sum(x, p)
    for pattern, build in _INDEXED_STATS:
        m = pattern.match(spec)
        if m:
            indices = [int(g) for g in m.groups()]
            if min(indices) < 1 or (d is not None and max(indices) > d):
                raise ValueError(f"statistic {spec!r} needs indices in 1..{d or 'd'}")
            return build(*(i - 1 for i in indices))
    raise ValueError(f"unknown statistic {spec!r}")


@dataclass(frozen=True)
class ErgodicEntry:
    function_id: str
    time_avg: float
    invariant_avg: float
    z_score: float
    passed: bool


@dataclass
class ErgodicReport:
    entries: list
    under_resolved: bool

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries) and not self.under_resolved


def ergodic_compare(params: ModelParams, funcs: dict, sample: SampleResult, *,
                    T: float, dt: float, n_paths: int, seed: int,
                    z_threshold: float = 3.0) -> ErgodicReport:
    """Compare long-run path averages with averages over stationary draws.

    Each named function is averaged along n_paths trajectories from the
    uniform state (pooled with a cross-path standard error) and over the
    named draws of ``sample`` (``sample_invariant(..., kind="named")``);
    the discrepancy is expressed in combined standard errors.  One path
    gives no standard error, so ``n_paths`` below 2 raises ``ValueError``.
    """
    if sample.kind != "named":
        raise ValueError("ergodic_compare needs named stationary draws")
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2 for a cross-path standard error, got {n_paths}")
    funcs = {name: (make_statistic(fn, params.d) if isinstance(fn, str) else fn)
             for name, fn in funcs.items()}
    batch = run_paths(params, np.full(params.d, 1.0 / params.d), T, dt, seed,
                      n_paths=n_paths, observers={"time_averages": TimeAverageObserver(funcs)})
    averages = batch.observations["time_averages"]
    entries = []
    for name, fn in funcs.items():
        t_avg, t_se = mean_and_se(averages[name])
        vals = fn(sample.draws)
        i_avg, i_se = mean_and_se(vals)
        z = z_score(t_avg, t_se, i_avg, i_se)
        entries.append(ErgodicEntry(
            function_id=name, time_avg=t_avg, invariant_avg=i_avg, z_score=z,
            passed=bool(abs(z) < z_threshold),
        ))
    return ErgodicReport(entries=entries, under_resolved=batch.under_resolved)
