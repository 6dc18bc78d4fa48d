"""Stationary laws of hybrid Jacobi models: densities, sampling, ergodics.

The stationary density of the named weights is, up to the normalizer Z,
prod_k y_k^(a_k + gamma_{name at rank k} - 1) evaluated at the ranked
rearrangement.  The ranked weights carry the permutation-summed density.
Sampling routes by structure: exact Dirichlet when the rank part is absent
(a = 0), an exact exponential-spacing rejection sampler when the name part
is absent (gamma = 0), and random-walk Metropolis in log-gap coordinates
for the general hybrid case.  The spacing sampler's envelope is an
exponential tilt from the weighted AM-GM inequality, at the point of the
simplex that maximizes its acceptance.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import mean_and_se, substream, z_score
from .sde import OBSERVED_BLOCK_STEPS, TimeAverageObserver, run_paths
from .simplex import (
    InvalidModelError,
    ModelParams,
    as_ranked,
    as_simplex,
    monomial_integral,
    ranked_weights,
    ranking_order,
    require_valid,
    tail_sums,
    to_names,
)

MCMC_MAX_DIM = 6          # permutation sums grow like d!
MCMC_CHAINS = 64          # Metropolis chains advanced in lockstep
MCMC_BURN_IN = 1_000      # burn-in steps per chain
MCMC_THIN = 4             # retained states per returned draw, before doublings
MCMC_ADAPT_EVERY = 50     # burn-in steps between step-size updates
MCMC_MIN_STEPS = 1_000    # first sampling block per chain; split R-hat exceeds 1
                          # by about (tau - 1) / length for autocorrelation time tau
RHAT_CEILING = 1.01
MIN_SEGMENT = 16          # draws per chain segment in the ESS of returned draws
ACCEPTANCE_FLOOR = 1e-3
SPACING_CHUNK = 20_000    # spacing proposals drawn per round
NAMING_CHUNK = 2_048      # ranked draws named at once, each with d! weights
ENVELOPE_MAX_ITER = 1_000  # steps toward the spacing envelope's best point
ENVELOPE_TOL = 1e-12      # smallest gain (and step) that counts


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


@functools.lru_cache(maxsize=None)
def _permutations_array(d: int) -> np.ndarray:
    """All name-to-rank assignments of d names as rows, in ``itertools`` order."""
    if d > MCMC_MAX_DIM:
        raise InvalidModelError(f"permutation sums are limited to d <= {MCMC_MAX_DIM}")
    return np.array(list(itertools.permutations(range(d))))


def density_q(y, params: ModelParams, normalized: bool = True,
              z: float | None = None) -> float:
    """Stationary density of the ranked weights at a single ranked point.

    Sums the named density over all name-to-rank assignments, so that the
    normalized version integrates to one over the ordered simplex.  In the
    rank-based case (gamma = 0) this collapses to
    prod y_k^(a_k - 1) / Q_a with Q_a the rank normalizer.
    """
    y = as_ranked(y)
    d = params.d
    if params.is_rank_based:
        total = math.factorial(d) * float(_monomial_at(y, params.a))
    else:
        exponents = params.a[None, :] + params.gamma[_permutations_array(d)]
        total = float(_monomial_at(y, exponents).sum())
    if not normalized:
        return total
    z = normalizer(params) if z is None else z
    return total / z


def _monomial_at(y, b) -> np.ndarray:
    """prod_k y_k^(b_k - 1) for each row of exponents b (..., d), with
    0^0 = 1, 0 to a positive power = 0 and 0 to a negative power = +inf
    (which wins over a zero factor in the same row)."""
    expo = np.asarray(b, dtype=float) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(expo == 0.0, 0.0, expo * np.log(y))
    singular = np.any(logs == math.inf, axis=-1)
    return np.where(singular, math.inf, np.exp(logs.sum(axis=-1)))


def normalizer(params: ModelParams) -> float:
    """Normalizer Z of the named density, as a sum of ordered-simplex
    monomial integrals over name-to-rank assignments.

    The permutation sum limits this to d <= 6; invalid parameters raise
    with the violated tail-sum index attached.
    """
    require_valid(params)
    d = params.d
    if params.is_rank_based:
        return math.factorial(d) * monomial_integral(params.a)
    total = 0.0
    for perm in _permutations_array(d):
        total += monomial_integral(params.a + params.gamma[perm])
    return total


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@dataclass
class SampleResult:
    """Draws from the stationary law plus sampler diagnostics.

    ``acceptance_rate`` is the rejection sampler's rate, or for MCMC the
    pooled Metropolis acceptance after burn-in; ``ess`` and ``rhat`` (the
    rank-normalized split R-hat) describe the top weight of the MCMC chains.
    """

    draws: np.ndarray                # (n, d); ranked or named per ``kind``
    kind: str                        # "ranked" | "named"
    method: str                      # "dirichlet" | "spacing" | "mcmc"
    acceptance_rate: float | None = None
    ess: float | None = None
    rhat: float | None = None
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.draws.shape[0]


def sample_invariant(params: ModelParams, n: int, seed: int, kind: str = "ranked",
                     method: str | None = None, **options) -> SampleResult:
    """Draw n samples from the stationary law.

    ``kind`` selects ranked or named coordinates; ``method`` overrides the
    automatic routing (exact Dirichlet for a = 0, exponential-spacing
    rejection for gamma = 0, Metropolis otherwise).  ``options`` go to the
    routed sampler, so one it does not take raises ``TypeError``.
    """
    require_valid(params)
    if n < 1:
        raise ValueError("need n >= 1")
    if kind not in ("ranked", "named"):
        raise ValueError("kind must be 'ranked' or 'named'")
    if method is None:
        if np.all(params.a == 0.0):
            method = "dirichlet"
        elif params.is_rank_based:
            method = "spacing"
        else:
            method = "mcmc"
    rng = substream(seed, f"invariant-{method}")
    if method == "dirichlet":
        return _sample_dirichlet(params, n, rng, kind, **options)
    if method == "spacing":
        return _sample_spacing(params, n, rng, kind, **options)
    if method == "mcmc":
        return _sample_mcmc(params, n, rng, kind, **options)
    raise ValueError(f"unknown sampler method {method!r}")


def _sample_dirichlet(params, n, rng, kind):
    if not np.all(params.a == 0.0):
        raise InvalidModelError("exact Dirichlet sampling requires a = 0")
    if np.any(params.gamma <= 0.0):
        raise InvalidModelError("Dirichlet weights require every gamma_i > 0")
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
    z_k ~ Exp(rates_k) (k = 2..d), with their cumulative sums
    Z_k = z_2 + ... + z_k = log(y_1 / y_k)."""
    d = rates.size + 1
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


def _sample_spacing(params, n, rng, kind, max_proposals: int = 200_000_000):
    """Exact rejection sampler for the rank-based stationary ranked law.

    In log-spacings z_k = log(y_(k-1) / y_k) (k = 2..d) the ranked law has
    density proportional to y_1^abar_1 exp(-sum_k abar_k z_k).  For
    abar_1 > 0 the weighted AM-GM inequality bounds, for any w on the
    simplex, y_1 <= prod_k w_k^w_k exp(sum_j W_j z_j) with
    W_j = w_j + ... + w_d; the sampler proposes z_j ~ Exp(abar_j -
    abar_1 W_j) and accepts with probability
    exp(abar_1 (log y_1 - sum_j W_j z_j - sum_k w_k log w_k)) <= 1.  The
    point w maximizes the acceptance (``_envelope_weights``); w = e_1 is
    the plain bound y_1 <= 1.  For abar_1 <= 0 it proposes z_k ~ Exp(abar_k)
    and uses y_1 >= 1/d.  The reported acceptance rate counts every
    accepted proposal, including those beyond the n draws returned.
    """
    if not params.is_rank_based:
        raise InvalidModelError("spacing sampler requires gamma = 0")
    abar = tail_sums(params.a)
    d = abar.size
    rates, log_acceptance = _spacing_envelope(abar)
    out = np.empty((n, d))
    got = 0
    accepted = 0
    proposed = 0
    while got < n:
        m = min(SPACING_CHUNK, max(1024, n - got))
        y, cum = _spacing_proposal(rates, m, rng)
        keep = np.flatnonzero(np.log(rng.random(m)) < log_acceptance(y, cum))
        take = keep[: n - got]
        if take.size:
            out[got:got + take.size] = y[take]
            got += take.size
        accepted += keep.size
        proposed += m
        if proposed > max_proposals and got == 0:
            raise SamplerStallError(
                f"rejection sampler accepted none of {proposed} proposals")
    rate = accepted / proposed
    warnings = []
    if rate < ACCEPTANCE_FLOOR:
        warnings.append(f"rejection acceptance rate {rate:.2e} below floor {ACCEPTANCE_FLOOR}")
    if kind == "named":
        out = to_names(out, rng.permuted(np.broadcast_to(np.arange(d), (n, d)), axis=1))
    return SampleResult(draws=out, kind=kind, method="spacing",
                        acceptance_rate=rate, warnings=warnings)


def _lockstep(z, logp, step, n_steps, rng, target, out=None):
    """Advance every chain of ``z`` (K, d-1) by n_steps Metropolis steps.

    One step draws the K Gaussian increments and the K uniforms in one call
    each.  Proposals are reflected at z = 0, which keeps the random walk
    symmetric on the positive orthant.  Returns the new states, their log
    targets and the number of accepted proposals; ``out`` (n_steps, K, d-1),
    when given, receives the states after every step.
    """
    moves = np.zeros(z.shape[0], dtype=np.int64)
    for i in range(n_steps):
        prop = np.abs(z + step * rng.standard_normal(z.shape))
        log_u = np.log(rng.random(z.shape[0]))
        logp_prop = target(prop)
        move = log_u < logp_prop - logp
        np.copyto(z, prop, where=move[:, None])
        np.copyto(logp, logp_prop, where=move)
        moves += move
        if out is not None:
            out[i] = z
    return z, logp, int(moves.sum())


def _log_target(params):
    """Vectorized log stationary density of log-gap coordinates z >= 0,
    up to a constant, for rows of chain states.

    With the ranked log weights log_y = log y_1 - (0, z_1, z_1+z_2, ...),
    the target is the row-wise logsumexp of log_y @ perm_matrix.T, where
    perm_matrix rows hold a_k + gamma_{sigma(k)} over all assignments sigma
    (the +1 Jacobian of the coordinate change cancels the -1 in the
    exponent).  Every row of perm_matrix sums to s = sum(a) + sum(gamma), so
    that equals logsumexp(-z @ tails) - s log(1/y_1), with tails[j, sigma]
    the tail sum of row sigma from rank j + 2 on and
    1/y_1 = 1 + sum_k exp(-(z_1+...+z_k)).  Every tail sum of a valid model
    is positive, so each exponential lies in (0, 1] and the logsumexp needs
    no shift.  Both sums come from one product with an indicator matrix.
    """
    perm_matrix = params.a[None, :] + params.gamma[_permutations_array(params.d)]
    n_perms, d = perm_matrix.shape
    upper = np.triu(np.ones((d - 1, d - 1)))                # z @ upper = cumsum(z)
    tails = upper @ perm_matrix[:, 1:].T
    exponents = np.concatenate([-tails, -upper, np.zeros((d - 1, 1))], axis=1)
    sums = np.zeros((n_perms + d, 2))
    sums[:n_perms, 0] = 1.0
    sums[n_perms:, 1] = 1.0
    weights = np.array([1.0, -perm_matrix[0].sum()])

    def target(z):
        return np.log(np.exp(z @ exponents) @ sums) @ weights

    return target


def _sample_mcmc(params, n, rng, kind, burn_in: int = MCMC_BURN_IN,
                 max_doublings: int = 3):
    """Random-walk Metropolis on log-gap coordinates for the hybrid law.

    MCMC_CHAINS chains start from dispersed points and advance in lockstep.
    Each chain takes ``burn_in`` steps first, during which (only) the
    common step size adapts toward ~30% pooled acceptance.  The chains then
    run n * MCMC_THIN states in total (at least MCMC_MIN_STEPS per chain),
    doubling until the multi-chain ESS of the top weight reaches n and its
    rank-normalized R-hat is at most RHAT_CEILING; a doubling budget that
    runs out first is reported as a warning, not raised.  The n returned
    draws are spread evenly over the retained states, stored chain after
    chain, so their order still carries the chains' autocorrelation.  The
    reported ``ess`` is that of the returned draws (``_draws_ess``), so
    their standard deviation over its square root is the standard error of
    their mean.
    """
    d = params.d
    target = _log_target(params)
    z = rng.exponential(1.0, size=(MCMC_CHAINS, d - 1))
    logp = target(z)
    step = 0.5
    for start in range(0, burn_in, MCMC_ADAPT_EVERY):
        steps = min(MCMC_ADAPT_EVERY, burn_in - start)
        z, logp, moves = _lockstep(z, logp, step, steps, rng, target)
        step *= math.exp(0.5 * (moves / (steps * MCMC_CHAINS) - 0.3))

    warnings = []
    blocks = []
    steps = max(-(-n * MCMC_THIN // MCMC_CHAINS), MCMC_MIN_STEPS)
    accepted = 0
    for _ in range(max_doublings + 1):
        block = np.empty((steps, MCMC_CHAINS, d - 1))
        z, logp, moves = _lockstep(z, logp, step, steps, rng, target, out=block)
        accepted += moves
        blocks.append(block)
        chains = np.concatenate(blocks).transpose(1, 0, 2)     # (K, steps, d-1)
        y1 = _z_to_ranked(chains)[..., 0]
        ess, rhat = _ess(y1), _rhat(y1)
        if ess >= n and rhat <= RHAT_CEILING:
            break
        steps = chains.shape[1]
    else:
        if ess < n:
            warnings.append(f"MCMC effective sample size {ess:.0f} below requested {n}")
        if rhat > RHAT_CEILING:
            warnings.append(f"MCMC R-hat {rhat:.4f} above {RHAT_CEILING}")
    states = chains.reshape(-1, d - 1)
    take = np.linspace(0, states.shape[0] - 1, n).round().astype(int)
    ranked = _z_to_ranked(states[take])
    draws_ess = _draws_ess(ranked[:, 0], take // chains.shape[1], MCMC_CHAINS, ess)
    if kind == "named":
        ranked = _assign_names(ranked, params, rng)
    return SampleResult(draws=ranked, kind=kind, method="mcmc",
                        acceptance_rate=accepted / (chains.shape[0] * chains.shape[1]),
                        ess=float(draws_ess), rhat=float(rhat), warnings=warnings)


def _draws_ess(values, chain_of, n_chains, states_ess) -> float:
    """Multi-chain ESS of draws stored chain after chain, in that order.

    ``chain_of`` gives each draw's chain.  When a chain holds fewer than
    MIN_SEGMENT draws, consecutive chains are pooled into groups that do;
    every group is cut to the shortest group's length.  Below 4 *
    MIN_SEGMENT draws there is no stable estimate: the draws, spread over
    every retained state, count as independent unless those states' ESS
    ``states_ess`` is smaller.
    """
    n = values.size
    if n < 4 * MIN_SEGMENT:
        return min(float(n), states_ess)
    groups = min(n_chains, n // MIN_SEGMENT)
    counts = np.bincount(chain_of * groups // n_chains, minlength=groups)
    starts = np.cumsum(counts) - counts
    return _ess(values[starts[:, None] + np.arange(counts.min())])


def _z_to_ranked(z):
    """Ranked weights from log-gap coordinates along the last axis."""
    cum = np.concatenate([np.zeros(z.shape[:-1] + (1,)), np.cumsum(z, axis=-1)], axis=-1)
    rel = np.exp(-cum)
    return rel / rel.sum(axis=-1, keepdims=True)


def _split_chains(chains):
    """Each chain's two halves as separate chains (a middle draw of an odd
    length is dropped), so a trend within a chain shows as disagreement."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half:]])


def _ess(chains) -> float:
    """Multi-chain effective sample size of the mean of ``chains`` (m, n).

    Follows Vehtari et al. (2021, Bayesian Analysis 16:667) on split
    chains: the combined autocorrelation rho_t = 1 - (W - mean_m acov_t) /
    var_plus is summed over Geyer's (1992) initial monotone sequence of
    pair sums rho_2k + rho_2k+1, truncated before the first negative pair.
    """
    x = _split_chains(chains)
    m, n = x.shape
    within, var_plus = _variances(x)
    if var_plus == 0.0:
        return float(m * n)
    centred = x - x.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centred, 2 * n)
    acov = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:, :n] / n
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0.0)
    pairs = pairs[: negative[0] if negative.size else pairs.size]
    tau = 2.0 * np.minimum.accumulate(pairs).sum() - 1.0
    return m * n / tau


def _rhat(chains) -> float:
    """Rank-normalized split R-hat of ``chains`` (m, n): the larger of the
    bulk value and the value for the folded draws |x - median| (Vehtari et
    al. 2021)."""
    x = _split_chains(chains)
    values = []
    for draws in (x, np.abs(x - np.median(x))):
        within, var_plus = _variances(_rank_normalize(draws))
        values.append(math.sqrt(var_plus / within))
    return max(values)


def _rank_normalize(x):
    """Normal scores of the pooled ranks (ties share their average rank)."""
    flat = x.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], flat.size)          # a tie group holds ranks starts+1..ends
    ranks = np.empty(flat.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    from scipy import special

    return special.ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(x.shape)


def _variances(x):
    """Mean within-chain variance W of ``x`` (m, n) and the pooled estimate
    var_plus = (n - 1) / n * W + (variance of the chain means)."""
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    return within, within * (n - 1) / n + x.mean(axis=1).var(ddof=1)


def _assign_names(ranked, params, rng):
    """Scatter ranked draws to names with the stationary conditional law.

    Given the ranked point, the name assignment sigma has probability
    proportional to prod_k y_k^{gamma_{sigma(k)}}.  The (rows, d!) weights
    are formed NAMING_CHUNK rows at a time, by ``einsum``: unlike a BLAS
    product its rows do not depend on the chunk, so neither do the names.
    """
    perms = _permutations_array(params.d)
    u = rng.random((ranked.shape[0], 1))
    with np.errstate(divide="ignore"):
        logy = np.log(ranked)                       # (n, d)
    choice = np.empty(ranked.shape[0], dtype=np.int64)
    for lo in range(0, ranked.shape[0], NAMING_CHUNK):
        rows = slice(lo, lo + NAMING_CHUNK)
        logw = np.einsum("nk,pk->np", logy[rows], params.gamma[perms])   # (rows, d!)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        choice[rows] = (u[rows] > np.cumsum(w, axis=1)).sum(axis=1)
    return to_names(ranked, perms[choice])


# ---------------------------------------------------------------------------
# named statistics and the ergodic experiment
# ---------------------------------------------------------------------------

_STAT_PATTERNS = [
    (re.compile(r"^one$"), lambda m: lambda x: np.ones(x.shape[:-1])),
    (re.compile(r"^x(\d+)$"),
     lambda m: lambda x, i=int(m.group(1)) - 1: x[..., i]),
    (re.compile(r"^y(\d+)$"),
     lambda m: lambda x, k=int(m.group(1)) - 1: ranked_weights(x)[..., k]),
    (re.compile(r"^y(\d+)\^2$"),
     lambda m: lambda x, k=int(m.group(1)) - 1: ranked_weights(x)[..., k] ** 2),
    (re.compile(r"^phi(\d+)$"),
     lambda m: lambda x, p=int(m.group(1)): (x ** p).sum(axis=-1)),
    (re.compile(r"^rank(\d+)_is_(\d+)$"),
     lambda m: lambda x, k=int(m.group(1)) - 1, i=int(m.group(2)) - 1:
        (ranking_order(x)[..., k] == i).astype(float)),
]


def make_statistic(spec: str):
    """Vectorized statistic from a short name: one, x3, y1, y1^2, phi2,
    rank1_is_2 (indicator that name 2 occupies the top rank)."""
    for pattern, build in _STAT_PATTERNS:
        m = pattern.match(spec)
        if m:
            return build(m)
    raise ValueError(f"unknown statistic {spec!r}")


@dataclass(frozen=True)
class ErgodicEntry:
    function_id: str
    time_avg: float
    time_se: float
    invariant_avg: float
    invariant_se: float
    z_score: float
    passed: bool


@dataclass
class ErgodicReport:
    entries: list
    under_resolved: bool

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries) and not self.under_resolved

    def rows(self):
        return [
            {
                "function_id": e.function_id,
                "time_avg": e.time_avg,
                "invariant_avg": e.invariant_avg,
                "z_score": e.z_score,
                "pass": e.passed,
            }
            for e in self.entries
        ]


def ergodic_compare(params: ModelParams, funcs: dict, sample: SampleResult, *,
                    T: float, dt: float, n_paths: int, seed: int,
                    z_threshold: float = 3.0) -> ErgodicReport:
    """Compare long-run path averages with averages over stationary draws.

    Each named function is averaged along n_paths trajectories from the
    uniform state (pooled with a cross-path standard error) and over the
    named draws of ``sample`` (``sample_invariant(..., kind="named")``);
    the discrepancy is expressed in combined standard errors.
    """
    if sample.kind != "named":
        raise ValueError("ergodic_compare needs named stationary draws")
    funcs = {name: (make_statistic(fn) if isinstance(fn, str) else fn)
             for name, fn in funcs.items()}
    observer = TimeAverageObserver(funcs)
    batch = run_paths(params, np.full(params.d, 1.0 / params.d), T, dt, seed,
                      n_paths=n_paths, observers=[observer],
                      block_steps=OBSERVED_BLOCK_STEPS)
    averages = batch.observations["time_averages"]
    entries = []
    for name, fn in funcs.items():
        t_avg, t_se = mean_and_se(averages[name])
        vals = fn(sample.draws)
        i_avg, i_se = mean_and_se(vals)
        z = z_score(t_avg, t_se, i_avg, i_se)
        entries.append(ErgodicEntry(
            function_id=name, time_avg=t_avg, time_se=t_se,
            invariant_avg=i_avg, invariant_se=i_se, z_score=z,
            passed=bool(abs(z) < z_threshold),
        ))
    return ErgodicReport(entries=entries, under_resolved=batch.under_resolved)
