"""Stationary laws of hybrid Jacobi models: densities, sampling, ergodics.

The stationary density of the named weights is, up to the normalizer Z,
prod_k y_k^(a_k + gamma_{name at rank k} - 1) evaluated at the ranked
rearrangement.  The ranked weights carry the permutation-summed density.
Sampling routes by structure: exact Dirichlet when the rank part is absent
(a = 0), an exact exponential-spacing rejection sampler when the name part
is absent (gamma = 0), and random-walk Metropolis in log-gap coordinates
for the general hybrid case.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import mean_and_se, substream, z_score
from .sde import TimeAverageObserver, run_paths
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
MCMC_BURN_IN = 10_000
ACCEPTANCE_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# densities and normalizing constants
# ---------------------------------------------------------------------------

def density_p(x, params: ModelParams, normalized: bool = False,
              z: float | None = None) -> float:
    """Stationary density of the named weights at a single point.

    Interior points with negative exponents at vanishing coordinates give
    +inf, which is reported as such rather than raised: the density is
    genuinely singular there.
    """
    x = as_simplex(x)
    order = ranking_order(x)
    value = _monomial_at(x[order], params.a + params.gamma[order])
    if normalized:
        z = normalizer(params) if z is None else z
        value = value / z
    return value


def _permutations_array(d: int) -> np.ndarray:
    """All name-to-rank assignments of d names as rows, in ``itertools`` order."""
    if d > MCMC_MAX_DIM:
        raise InvalidModelError(f"permutation sums are limited to d <= {MCMC_MAX_DIM}")
    if d not in _PERM_CACHE:
        _PERM_CACHE[d] = np.array(list(itertools.permutations(range(d))))
    return _PERM_CACHE[d]


_PERM_CACHE: dict = {}


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
        total = math.factorial(d) * _monomial_at(y, params.a)
    elif np.all(y > 0.0):
        expo = params.a[None, :] + params.gamma[_permutations_array(d)] - 1.0
        total = float(np.exp(expo @ np.log(y)).sum())
    else:
        total = 0.0
        for perm in _permutations_array(d):
            total += _monomial_at(y, params.a + params.gamma[perm])
    if not normalized:
        return total
    z = normalizer(params) if z is None else z
    return total / z


def _monomial_at(y, b) -> float:
    """prod_k y_k^(b_k - 1), with 0^0 = 1 and +inf at singular zeros."""
    with np.errstate(divide="ignore"):
        logs = (np.asarray(b) - 1.0) * np.log(y)
    if np.any(np.isnan(logs)):
        logs = np.where((y == 0.0) & (np.asarray(b) == 1.0), 0.0, logs)
    return math.exp(logs.sum()) if np.all(np.isfinite(logs)) else math.inf


def rank_normalizer(a, rel_tol: float = 1e-8) -> float:
    """Normalizer Q_a of the ranked density prod y_k^(a_k - 1)."""
    return monomial_integral(a, rel_tol=rel_tol)


def normalizer(params: ModelParams, rel_tol: float = 1e-8) -> float:
    """Normalizer Z of the named density, as a sum of ordered-simplex
    monomial integrals over name-to-rank assignments.

    The permutation sum limits this to d <= 6; invalid parameters raise
    with the violated tail-sum index attached.
    """
    require_valid(params)
    d = params.d
    if params.is_rank_based:
        return math.factorial(d) * monomial_integral(params.a, rel_tol=rel_tol)
    total = 0.0
    for perm in _permutations_array(d):
        total += monomial_integral(params.a + params.gamma[perm], rel_tol=rel_tol)
    return total


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@dataclass
class SampleResult:
    """Draws from the stationary law plus sampler diagnostics."""

    draws: np.ndarray                # (n, d); ranked or named per ``kind``
    kind: str                        # "ranked" | "named"
    method: str                      # "dirichlet" | "spacing" | "mcmc"
    acceptance_rate: float | None = None
    ess: float | None = None
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.draws.shape[0]


def sample_invariant(params: ModelParams, n: int, seed: int, kind: str = "ranked",
                     method: str | None = None, **options) -> SampleResult:
    """Draw n samples from the stationary law.

    ``kind`` selects ranked or named coordinates; ``method`` overrides the
    automatic routing (exact Dirichlet for a = 0, exponential-spacing
    rejection for gamma = 0, Metropolis otherwise).
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
        return _sample_dirichlet(params, n, rng, kind)
    if method == "spacing":
        return _sample_spacing(params, n, rng, kind)
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


def _spacing_proposal(abar, n, rng):
    """Ranked points from independent exponential log-spacings z_k ~ Exp(abar_k)."""
    d = abar.size
    z = rng.exponential(1.0, size=(n, d - 1)) / abar[1:]
    rel = np.exp(-np.cumsum(z, axis=1))              # y_k / y_1 for k = 2..d
    y1 = 1.0 / (1.0 + rel.sum(axis=1))
    y = np.empty((n, d))
    y[:, 0] = y1
    y[:, 1:] = y1[:, None] * rel
    return y


def _sample_spacing(params, n, rng, kind, chunk: int = 20000,
                    max_proposals: int = 200_000_000):
    """Exact rejection sampler for the rank-based stationary ranked law.

    Proposes log-spacings z_k ~ Exp(abar_k) (k = 2..d), reconstructs the
    ranked point, and accepts with probability y_1^abar_1 / B, where the
    bound B uses 1/d <= y_1 <= 1.
    """
    if not params.is_rank_based:
        raise InvalidModelError("spacing sampler requires gamma = 0")
    a = params.a
    abar = tail_sums(a)
    d = a.size
    log_bound = 0.0 if abar[0] >= 0.0 else -abar[0] * math.log(d)
    out = np.empty((n, d))
    got = 0
    proposed = 0
    while got < n:
        m = min(chunk, max(1024, n - got))
        y = _spacing_proposal(abar, m, rng)
        log_acc = abar[0] * np.log(y[:, 0]) - log_bound
        keep = np.log(rng.random(m)) < log_acc
        take = np.flatnonzero(keep)[: n - got]
        if take.size:
            out[got:got + take.size] = y[take]
            got += take.size
        proposed += m
        if proposed > max_proposals and got == 0:
            raise RuntimeError("rejection sampler made no progress; acceptance ~ 0")
    rate = got / proposed
    warnings = []
    if rate < ACCEPTANCE_FLOOR:
        warnings.append(f"rejection acceptance rate {rate:.2e} below floor {ACCEPTANCE_FLOOR}")
    if kind == "named":
        out = to_names(out, np.argsort(rng.random((n, d)), axis=1))
    return SampleResult(draws=out, kind=kind, method="spacing",
                        acceptance_rate=rate, warnings=warnings)


def _log_target_z(z, params, perm_matrix):
    """Log stationary density of the log-gap coordinates (up to a constant).

    perm_matrix rows hold a_k + gamma_{sigma(k)} over all assignments sigma;
    the +1 Jacobian of the coordinate change cancels the -1 in the exponent.
    """
    cum = np.concatenate([[0.0], np.cumsum(z)])
    log_y1 = -_logsumexp(-cum)
    log_y = log_y1 - cum
    return _logsumexp(perm_matrix @ log_y)


def _logsumexp(v):
    v = np.asarray(v, dtype=float)
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def _sample_mcmc(params, n, rng, kind, burn_in: int = MCMC_BURN_IN,
                 thin: int = 4, max_doublings: int = 3):
    """Random-walk Metropolis on log-gap coordinates for the hybrid law.

    Step size adapts toward ~30% acceptance during burn-in only.  The chain
    is extended until the effective sample size of the top weight reaches n
    (or the doubling budget runs out, which is reported, not raised).
    """
    d = params.d
    perm_matrix = params.a[None, :] + params.gamma[_permutations_array(d)]
    z = np.full(d - 1, 0.5)
    logp = _log_target_z(z, params, perm_matrix)
    step = 0.5
    accepted = 0
    for it in range(burn_in):
        z_new = z + step * rng.standard_normal(d - 1)
        if np.all(z_new > 0.0):
            logp_new = _log_target_z(z_new, params, perm_matrix)
            if math.log(rng.random()) < logp_new - logp:
                z, logp = z_new, logp_new
                accepted += 1
        if (it + 1) % 200 == 0:
            rate = accepted / 200.0
            step *= math.exp(0.5 * (rate - 0.3))
            accepted = 0

    warnings = []
    chain = None
    length = n * thin
    for attempt in range(max_doublings + 1):
        extra = np.empty((length, d - 1))
        acc = 0
        for i in range(length):
            z_new = z + step * rng.standard_normal(d - 1)
            if np.all(z_new > 0.0):
                logp_new = _log_target_z(z_new, params, perm_matrix)
                if math.log(rng.random()) < logp_new - logp:
                    z, logp = z_new, logp_new
                    acc += 1
            extra[i] = z
        chain = extra if chain is None else np.vstack([chain, extra])
        ess = _ess(_z_to_ranked(chain, d)[:, 0])
        if ess >= n:
            break
        length = chain.shape[0]
        if attempt == max_doublings:
            warnings.append(f"MCMC effective sample size {ess:.0f} below requested {n}")
    y = _z_to_ranked(chain, d)
    take = np.linspace(0, y.shape[0] - 1, n).round().astype(int)
    ranked = y[take]
    if kind == "named":
        ranked = _assign_names(ranked, params, rng)
    return SampleResult(draws=ranked, kind=kind, method="mcmc", ess=float(ess),
                        warnings=warnings)


def _z_to_ranked(z_chain, d):
    cum = np.concatenate([np.zeros((z_chain.shape[0], 1)), np.cumsum(z_chain, axis=1)], axis=1)
    rel = np.exp(-cum)
    return rel / rel.sum(axis=1, keepdims=True)


def _ess(series) -> float:
    """Effective sample size via initial-positive-sequence autocorrelation."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return float(n)
    tau = 1.0
    for lag in range(1, min(n // 2, 2000)):
        rho = float(np.dot(x[:-lag], x[lag:])) / ((n - lag) * var)
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return n / tau


def _assign_names(ranked, params, rng):
    """Scatter ranked draws to names with the stationary conditional law.

    Given the ranked point, the name assignment sigma has probability
    proportional to prod_k y_k^{gamma_{sigma(k)}}.
    """
    perms = _permutations_array(params.d)
    with np.errstate(divide="ignore"):
        logy = np.log(ranked)                       # (n, d)
    logw = logy @ params.gamma[perms].T             # (n, n_perms)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    cum = np.cumsum(w, axis=1)
    u = rng.random((ranked.shape[0], 1))
    choice = (u > cum).sum(axis=1)
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
    n_paths: int
    horizon: float
    dt: float
    n_samples: int
    sampler_method: str

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


def ergodic_compare(params: ModelParams, funcs: dict, *, T: float, dt: float,
                    n_paths: int, n_samples: int, seed: int, x0=None,
                    z_threshold: float = 3.0, sampler_method: str | None = None,
                    block_steps: int = 4096) -> ErgodicReport:
    """Compare long-run path averages with stationary-sampler averages.

    Each named function is averaged along n_paths trajectories (pooled with
    a cross-path standard error) and over n_samples stationary draws; the
    discrepancy is expressed in combined standard errors.
    """
    funcs = {name: (make_statistic(fn) if isinstance(fn, str) else fn)
             for name, fn in funcs.items()}
    x0 = np.full(params.d, 1.0 / params.d) if x0 is None else x0
    observer = TimeAverageObserver(funcs)
    batch = run_paths(params, x0, T, dt, seed, n_paths=n_paths,
                      observers=[observer], block_steps=block_steps)
    averages = batch.observations["time_averages"]
    sample = sample_invariant(params, n_samples, seed, kind="named",
                              method=sampler_method)
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
    return ErgodicReport(
        entries=entries, under_resolved=batch.under_resolved,
        n_paths=n_paths, horizon=batch.horizon, dt=dt,
        n_samples=n_samples, sampler_method=sample.method,
    )
