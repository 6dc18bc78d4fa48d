"""Poisson-Dirichlet limits of rank-based stationary laws in high dimension.

Covers: stick-breaking sampling of the Poisson-Dirichlet law PD(theta),
either as a ranked stick table (``pd_sample``, read by the tilted limit) or
streamed into per-draw power sums with no table (``pd_power_sums``, read by
the moment check), symmetric power sums and their exact moment recursion,
importance-sampled expectations under the power-tilted limit law, the flat
d-indexed parameter schedule whose stationary laws converge to that limit,
and the limiting robust growth rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import SEED_LIMIT, mean_and_se, substream, write_csv, z_score
from .invariant import sample_invariant
from .simplex import ModelParams, tail_sums
from .simplex import power_sum  # noqa: F401  (re-exported under its old name)

ESS_FLOOR_FRACTION = 0.05
STICK_BLOCK = 64
PD_ROW_CHUNK = 512                # draws broken at a time within a block of sticks
HARD_TAIL_FLOOR = 1e-13           # stick breaking stops once every leftover is below this
MAX_STICKS = 10_000               # most sticks one draw may take to get there
STICK_CAP_RISK = 1e-9             # largest accepted chance that some draw needs more


class HeavyTiltError(RuntimeError):
    """Importance sampling effective size fell below the floor."""


class TruncationError(RuntimeError):
    """Stick breaking needed more than ``MAX_STICKS`` sticks to reach the tail floor."""


@dataclass(frozen=True)
class PDConfig:
    """Poisson-Dirichlet limit parameters: concentration theta plus power
    tilts a_1..a_N applied to the top N ranked entries.

    Valid iff theta > 0, every partial tilt tail sum_{l=k..N} a_l exceeds
    -theta (k = 2..N), and one draw passes ``require_stick_cap``: theta up
    to about 314.
    """

    theta: float
    tilt: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tilt", tuple(float(a) for a in self.tilt))
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        n = len(self.tilt)
        for k in range(2, n + 1):
            if not sum(self.tilt[k - 1:]) > -self.theta:
                raise ValueError(
                    f"tilt tail sum from position {k} must exceed -theta"
                )
        require_stick_cap(self.theta, 1)

    @property
    def n_tilted(self) -> int:
        return len(self.tilt)


@dataclass
class PDSample:
    """Truncated ordered Poisson-Dirichlet draws.

    ``weights`` holds the leading entries of each draw in decreasing order;
    columns beyond the stored width are implicitly zero (the generator stops
    once every draw's leftover stick mass is below ``HARD_TAIL_FLOOR``).
    ``tail_mass`` is the per-draw leftover, so each row sums to
    1 - tail_mass within roundoff.  The table holds every stick of every
    draw, n × K with K growing like theta * ln(1 / HARD_TAIL_FLOOR); a
    caller that reads only power sums should stream them with
    ``pd_power_sums`` instead.
    """

    weights: np.ndarray          # (n, K) with K <= MAX_STICKS
    tail_mass: np.ndarray        # (n,)


def require_stick_cap(theta: float, n: int) -> None:
    """Raise ``ValueError`` when n draws at theta may need more than
    ``MAX_STICKS`` sticks each to bring their leftover below
    ``HARD_TAIL_FLOOR``.

    A draw stops at the first stick whose Exp(1) gap sum Gamma_j exceeds
    c = theta * ln(1 / HARD_TAIL_FLOOR), so it needs 1 + Poisson(c) sticks;
    the union bound n * P(Poisson(c) >= MAX_STICKS) must not exceed
    ``STICK_CAP_RISK``.
    """
    c = theta * math.log(1.0 / HARD_TAIL_FLOOR)
    risk = n * _poisson_upper_tail(MAX_STICKS, c)
    if risk > STICK_CAP_RISK:
        raise ValueError(
            f"theta={theta} needs more than {MAX_STICKS} sticks per draw to reach "
            f"the tail floor {HARD_TAIL_FLOOR} with probability up to {risk:.3g} "
            f"over n={n} draws (accepted: {STICK_CAP_RISK:g})"
        )


def _poisson_upper_tail(k_min: int, c: float) -> float:
    """P(Poisson(c) >= k_min), summed upward from the term at k_min.

    When k_min lies more than 10 standard deviations below c, the lower tail
    is below exp(-50) (Chernoff), so the answer is 1 and no term is summed.
    Otherwise the first term, from ``math.lgamma``, is above about 1e-25
    wherever it is not the largest, so it underflows only when the whole
    tail does.  Terms (times c/k) are added until one falls below 1e-17 of
    the sum, about (c - k_min) + 9 sqrt(c) of them at most.
    """
    if c - k_min > 10.0 * math.sqrt(c):
        return 1.0
    term = math.exp(k_min * math.log(c) - c - math.lgamma(k_min + 1))
    total, k = term, k_min
    while term > 1e-17 * total:
        k += 1
        term *= c / k
        total += term
    return min(total, 1.0)


def _break_sticks(theta: float, n: int, seed: int, take) -> np.ndarray:
    """Break n draws of GEM(theta) sticks and hand them to ``take``; return
    each draw's leftover mass (the tail).

    GEM(theta) sticks come from exponential gaps: 1 - V_j = exp(-E_j/theta)
    with E_j ~ Exp(1), so with Gamma_j = E_1 + ... + E_j stick j is
    exp(-Gamma_{j-1}/theta) * (1 - exp(-E_j/theta)), exact in law, and the
    leftover after it is exp(-Gamma_j/theta).  Gaps are drawn in blocks of
    ``STICK_BLOCK`` columns until every draw's leftover is below
    ``HARD_TAIL_FLOOR``; within a block rows are drawn ``PD_ROW_CHUNK`` at a
    time, in order, so the stream is consumed as one (n, width) draw per block
    would consume it and no value depends on the chunk size.
    ``take(row, minus)`` receives minus the sticks of draws row.. in the
    current block, as a reused (rows, width) buffer that it may overwrite.
    ``require_stick_cap`` rejects (theta, n) before any stick is drawn when
    some draw may need more than ``MAX_STICKS`` sticks; ``TruncationError``
    is raised when the realised count of some draw still does.
    """
    PDConfig(theta=theta)                  # reuse the validity checks
    require_stick_cap(theta, n)
    rng = substream(seed, "pd-sticks")
    stop = theta * math.log(1.0 / HARD_TAIL_FLOOR)
    gamma = np.zeros(n)                    # Gamma: the gap sum so far
    tail = np.ones(n)                      # exp(-Gamma/theta): the leftover
    chunk = min(PD_ROW_CHUNK, n)
    e_buf, left_buf = np.empty(chunk * STICK_BLOCK), np.empty(chunk * STICK_BLOCK)
    ncols = 0
    while True:
        width = min(STICK_BLOCK, MAX_STICKS - ncols)
        if width <= 0:
            raise TruncationError(
                f"more than {MAX_STICKS} sticks needed to reach tail floor {HARD_TAIL_FLOOR}"
            )
        for row in range(0, n, chunk):
            rows = slice(row, min(row + chunk, n))
            e = e_buf[:(rows.stop - row) * width].reshape(-1, width)
            rng.standard_exponential(out=e)
            left = np.cumsum(e, axis=1, out=left_buf[:e.size].reshape(e.shape))
            left += gamma[rows, None]
            gamma[rows] = left[:, -1]
            left *= -1.0 / theta
            np.exp(left, out=left)         # leftover after each stick
            e *= -1.0 / theta
            np.expm1(e, out=e)             # minus each stick's share of the leftover before it
            # scale by the stored leftover before each stick, so that rows sum
            # to 1 - tail within roundoff at any theta; Gamma_j - E_j in its
            # place loses digits to cancellation once E_j / theta is large
            e[:, 0] *= tail[rows]
            e[:, 1:] *= left[:, :-1]
            tail[rows] = left[:, -1]
            take(row, e)                   # minus each stick
        ncols += width
        if gamma.min() > stop:
            return tail


def pd_sample(theta: float, n: int, seed: int) -> PDSample:
    """Draw n approximate PD(theta) points by stick breaking and sorting.

    The sticks of ``_break_sticks`` are collected into one table per block,
    the blocks joined and each row ranked in place, so the peak is the table,
    twice over while more than one block is joined.  Callers that read only
    power sums should use ``pd_power_sums``, which keeps no table.
    """
    blocks = []

    def collect(row, minus):
        if row == 0:
            blocks.append(np.empty((n, minus.shape[1])))
        blocks[-1][row:row + minus.shape[0]] = minus

    tail = _break_sticks(theta, n, seed, collect)
    weights = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    del blocks                             # only the table is left to sort
    weights.sort(axis=1)                   # ranked_weights, in place
    np.negative(weights, out=weights)
    return PDSample(weights=weights, tail_mass=tail)


def pd_power_sums(theta: float, n: int, seed: int, max_degree: int):
    """Power sums phi_2..phi_M (M = ``max_degree``) of the n draws that
    ``pd_sample(theta, n, seed)`` would rank, and their tail masses.

    Returns (sums, tail_mass) with sums[m - 2] = phi_m, an (M - 1, n) array.
    Each chunk of sticks is raised to its powers by one product chain and
    summed into the draws' totals, so no stick table is kept and nothing is
    sorted; the sums equal ``power_sum`` on the ranked table up to the order
    of summation.
    """
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    sums = np.zeros((max_degree - 1, n))

    def add_powers(row, minus):
        y = np.negative(minus, out=minus)  # the sticks
        power = y
        for phi in sums:                   # phi_2, phi_3, ..., phi_M
            power = power * y
            phi[row:row + len(y)] += power.sum(axis=1)

    tail = _break_sticks(theta, n, seed, add_powers)
    return sums, tail


def moment_recursion(theta: float, powers) -> float:
    """Exact PD(theta) expectation of a product of power sums by recursion.

    For integer powers m_i >= 2, |m| (|m| + theta - 1) E[prod phi_{m_i}]
    equals the sum of the two collision terms of lower total degree; power
    sums of exponent one are replaced by 1.  Values are memoized per theta
    on the sorted multiset.
    """
    key_powers = tuple(sorted(int(m) for m in powers))
    if any(m < 2 for m in key_powers):
        raise ValueError("recursion needs integer powers >= 2")
    return _moment(float(theta), key_powers)


@functools.lru_cache(maxsize=None)
def _moment(theta: float, multiset: tuple) -> float:
    """``moment_recursion`` on a sorted multiset of integer powers >= 2."""
    if not multiset:
        return 1.0
    total_deg = sum(multiset)
    k = len(multiset)
    acc = 0.0
    for i in range(k):
        rest = multiset[:i] + multiset[i + 1:]
        reduced = rest if multiset[i] - 1 < 2 else tuple(sorted(rest + (multiset[i] - 1,)))
        acc += multiset[i] * (multiset[i] - 1) * _moment(theta, reduced)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            rest = tuple(multiset[l] for l in range(k) if l not in (i, j))
            merged = tuple(sorted(rest + (multiset[i] + multiset[j] - 1,)))
            acc += multiset[i] * multiset[j] * _moment(theta, merged)
    return acc / (total_deg * (total_deg + theta - 1.0))


@dataclass(frozen=True)
class TiltedEstimate:
    value: float
    se: float
    ess: float
    n: int


def tilted_estimator(cfg: PDConfig, n: int, seed: int, width: int = 0):
    """Map f -> self-normalized importance estimate of E[f] under the tilted
    limit law, over one weighted sample drawn once.

    Draws n PD(theta) points and weights them by prod_{k<=N} Y_k^{a_k}
    (exactly 1 when there are no tilts).  f reads the ranked weights with
    zeros appended up to ``width`` columns, where the stick table is
    narrower.
    Raises ``HeavyTiltError`` here, before any f is evaluated, when the
    effective sample size is below 5% of n, which signals a tilt too heavy
    for the sample budget.
    """
    sample = pd_sample(cfg.theta, n, seed)
    y = sample.weights
    if width > y.shape[1]:
        y = np.pad(y, ((0, 0), (0, width - y.shape[1])))
    logw = np.zeros(n)
    for k, a_k in enumerate(cfg.tilt):
        if a_k != 0.0:
            logw = logw + a_k * np.log(y[:, k])
    w = np.exp(logw - logw.max())
    w_sum = w.sum()
    ess = w_sum ** 2 / (w * w).sum()
    if ess < ESS_FLOOR_FRACTION * n:
        raise HeavyTiltError(
            f"effective sample size {ess:.0f} below {ESS_FLOOR_FRACTION:.0%} of n={n}; "
            "increase n or soften the tilt"
        )

    def estimate(fn) -> TiltedEstimate:
        f_vals = np.asarray(fn(y), dtype=float)
        value = float((w * f_vals).sum() / w_sum)
        se = float(np.sqrt((w * w * (f_vals - value) ** 2).sum()) / w_sum)
        return TiltedEstimate(value=value, se=se, ess=float(ess), n=n)

    return estimate


# ---------------------------------------------------------------------------
# parameter schedules and the convergence experiment
# ---------------------------------------------------------------------------

def make_schedule(theta: float, tilt, d_list) -> dict:
    """The flat schedule as {d: rank-based ModelParams} in increasing d,
    with a^d = (tilts..., theta / (d - N), ..., theta / (d - N)): the d - N
    small-cap entries sum to theta and their largest tends to zero along
    the d-ladder.  Every d must be a whole number and every member must
    have positive tail sums."""
    cfg = PDConfig(theta=theta, tilt=tuple(tilt))
    n = cfg.n_tilted
    if len(d_list) == 0:
        raise ValueError("d_list must name at least one dimension")
    schedule = {}
    for d in sorted(d_list):
        if d != int(d):
            raise ValueError(f"d={d} is not a whole number")
        d = int(d)
        if d <= n + 1:
            raise ValueError(f"d={d} too small for {n} tilted ranks")
        a = np.concatenate([np.asarray(cfg.tilt), np.full(d - n, theta / (d - n))])
        if np.any(tail_sums(a)[1:] <= 0.0):
            raise ValueError(f"schedule member d={d} violates positive tail sums")
        schedule[d] = ModelParams(a=a, gamma=np.zeros(d))
    return schedule


@dataclass
class ConvergenceRow:
    d: int
    function_id: str
    estimate: float
    se: float
    tilted_limit: float
    gap: float


@dataclass
class ConvergenceReport:
    rows: list
    passed: bool
    final_gap_z: dict

    def csv_rows(self):
        return [
            (r.d, r.function_id, r.estimate, r.se, r.tilted_limit, r.gap)
            for r in self.rows
        ]

    def to_csv(self, path):
        write_csv(path, ["d", "function_id", "estimate", "se", "tilted_limit", "gap"],
                  self.csv_rows())


def convergence_experiment(schedule: dict, estimate, funcs: dict,
                           n: int, seed: int) -> ConvergenceReport:
    """Estimate E[f] under each finite-d stationary law and compare with the
    tilted PD limit along the d-ladder.

    ``estimate`` is a ``tilted_estimator`` of the limit law; each function's
    limit comes from its one weighted sample.  Finite-d draws (n per ladder
    member) come from the exact rank-based sampler, d columns wide and not
    padded, so a function may read only the coordinates 1..d of the
    smallest member (``make_statistic`` given that d checks its indices).
    Ladder member d takes its seed from the substream of ``seed`` labelled
    ``limit-ladder-d<d>``, so members never reuse another run's master
    seed.  Passes when every function's gap sequence decreases along the
    ladder and the final gap is within three combined standard errors.
    """
    limits = {name: estimate(fn) for name, fn in funcs.items()}
    rows = []
    for d, params in schedule.items():
        member = substream(seed, f"limit-ladder-d{d}")
        member_seed = member.integers(SEED_LIMIT, dtype=np.uint64)
        sample = sample_invariant(params, n, int(member_seed), kind="ranked",
                                  method="spacing")
        for name, fn in funcs.items():
            vals = np.asarray(fn(sample.draws), dtype=float)
            est, se = mean_and_se(vals)
            lim = limits[name].value
            rows.append(ConvergenceRow(
                d=d, function_id=name, estimate=est, se=se,
                tilted_limit=lim, gap=abs(est - lim),
            ))
    passed = True
    final_gap_z = {}
    for name in funcs:
        gaps = [r for r in rows if r.function_id == name]
        gaps.sort(key=lambda r: r.d)
        decreasing = all(gaps[i].gap >= gaps[i + 1].gap for i in range(len(gaps) - 1))
        last = gaps[-1]
        z = z_score(last.estimate, last.se, last.tilted_limit, limits[name].se)
        final_gap_z[name] = z
        passed = passed and decreasing and abs(z) < 3.0
    return ConvergenceReport(rows=rows, passed=passed, final_gap_z=final_gap_z)


def require_limit_growth(cfg: PDConfig) -> None:
    """Raise ``ValueError`` unless ``limit_growth_rate`` applies to cfg."""
    if not cfg.theta > 1.0:
        raise ValueError("limit growth rate requires theta > 1")
    for k in range(2, cfg.n_tilted + 1):
        if not cfg.theta + sum(cfg.tilt[k - 1:]) > 1.0:
            raise ValueError("limit growth rate requires theta + tilt tails > 1")


def limit_growth_rate(cfg: PDConfig, sigma: float, estimate) -> TiltedEstimate:
    """Large-d limit of the robust optimal growth rate with an open market
    of the N = ``cfg.n_tilted`` tilted ranks:
    (sigma^2/8) E_tilted[sum_{k<=N} a_k^2 / Y_k + theta^2 / tail] minus
    (sigma^2/8)(sum a_k + theta)^2.

    ``estimate`` is a ``tilted_estimator`` of cfg's limit law, so the
    expectation reuses its weighted sample.  Requires theta > 1 and
    theta + (tilt tail sums) > 1 for k = 2..N.  Its ``se`` is no valid
    error bar for 1 < theta <= 2: the term theta^2 / tail, with tail at
    most 1 - Y_1, then has infinite variance, because Y_1's PD(theta)
    density near 1 falls like (1 - y)^(theta - 1), so E[(1 - Y_1)^-2]
    diverges and the sample standard error understates the error.
    """
    require_limit_growth(cfg)
    a = np.asarray(cfg.tilt)
    n_top = cfg.n_tilted
    s2 = sigma * sigma

    def integrand(y):
        top = y[:, :n_top]
        return (a ** 2 / top).sum(axis=1) + cfg.theta ** 2 / (1.0 - top.sum(axis=1))

    est = estimate(integrand)
    offset = (s2 / 8.0) * (sum(cfg.tilt) + cfg.theta) ** 2
    return TiltedEstimate(
        value=(s2 / 8.0) * est.value - offset,
        se=(s2 / 8.0) * est.se,
        ess=est.ess,
        n=est.n,
    )
