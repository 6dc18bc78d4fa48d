"""Boundary attainment: analytic verdicts and Monte Carlo corroboration.

The analytic conditions decide whether ranked weights or name-set sums can
reach zero.  The Monte Carlo side operationalizes "hits zero" as "dips below
epsilon on the simulation grid" and always reports a small epsilon ladder so
the limiting trend is visible; the theory is qualitative (probability zero
versus positive), so experiments check trends rather than target numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._util import wilson_interval, write_csv
from .sde import HitObserver, run_paths
from .simplex import ModelParams, ranked_weights, tail_sums


def rank_avoids_zero(params: ModelParams, k: int) -> bool:
    """True iff the k-th ranked weight almost surely never reaches zero:
    every tail margin a_bar_l + gamma_bar_(l) for l = 2..k is at least one."""
    _check_rank(params, k)
    margins = params.tail_margins()
    return bool(np.all(margins[: k - 1] >= 1.0))


def rank_pushed_only(params: ModelParams, k: int) -> bool:
    """True iff rank k cannot reach zero on its own (margin at k >= 1):
    it can vanish only while being pushed by the rank above."""
    _check_rank(params, k)
    return bool(params.tail_margins()[k - 2] >= 1.0)


def nameset_avoids_zero(params: ModelParams, names) -> bool:
    """True iff the summed weight of the given names a.s. never reaches zero.

    The condition scans l = 2..d-N+1 and needs
    a_bar_l + sum_{i in I} gamma_i + (tail of the complement gammas from l)
    to be at least one at every l.
    """
    d = params.d
    idx = sorted(set(int(i) for i in names))
    if not idx or idx[0] < 1 or idx[-1] > d:
        raise IndexError("index set must be a nonempty subset of 1..d")
    n = len(idx)
    if n > d - 1:
        raise ValueError("index set must exclude at least one name")
    abar = tail_sums(params.a)
    in_set = np.zeros(d, dtype=bool)
    in_set[np.asarray(idx) - 1] = True
    gamma_in = params.gamma[in_set].sum()
    comp_sorted = ranked_weights(params.gamma[~in_set])      # length d-n
    comp_tails = np.concatenate([tail_sums(comp_sorted), [0.0]])
    for ell in range(2, d - n + 2):
        value = abar[ell - 1] + gamma_in + comp_tails[ell - 1]
        if value < 1.0:
            return False
    return True


def _check_rank(params, k):
    if not 2 <= k <= params.d:
        raise IndexError("rank queries require 2 <= k <= d (the top rank never vanishes)")


@dataclass(frozen=True)
class BoundaryQuery:
    """What to watch for: a ranked weight or a name-set sum reaching zero,
    optionally only when not pushed from above."""

    kind: str                      # rank_hits | rank_pushed_only | nameset_hits | nameset_pushed_only
    k: int | None = None
    names: tuple = ()

    def __post_init__(self):
        if self.kind not in ("rank_hits", "rank_pushed_only",
                             "nameset_hits", "nameset_pushed_only"):
            raise ValueError(f"unknown boundary query kind {self.kind!r}")
        if self.kind.startswith("rank") and self.k is None:
            raise ValueError("rank queries need k")
        if self.kind.startswith("nameset") and not self.names:
            raise ValueError("name-set queries need names")

    def analytic_avoids(self, params: ModelParams) -> bool:
        if self.kind == "rank_hits":
            return rank_avoids_zero(params, self.k)
        if self.kind == "rank_pushed_only":
            return rank_pushed_only(params, self.k)
        return nameset_avoids_zero(params, self.names)

    def band(self, states, low):
        """Bounds (lo, hi) of the dip test lo < eps <= hi at states (R, P, d)
        whose per-path ranked minima are ``low`` (P, d): lo is the watched
        ranked weight or name-set sum; hi, for the pushed-only kinds, is the
        rank above or the sum plus the smallest other weight, and None
        otherwise.  With no upper bound, some row has y_(k) < eps exactly
        when the minimum of y_(k) does, so ``rank_hits`` reads one row of
        minima instead of ranking the states."""
        if self.kind == "rank_hits":
            return low[None, :, self.k - 1], None
        if self.kind == "rank_pushed_only":
            y = ranked_weights(states)
            return y[..., self.k - 1], y[..., self.k - 2]
        idx = np.asarray(sorted(self.names)) - 1
        lam = states[..., idx].sum(axis=-1)
        if self.kind == "nameset_hits":
            return lam, None
        others = np.setdiff1d(np.arange(states.shape[-1]), idx)
        return lam, lam + functools.reduce(np.minimum, (states[..., i] for i in others))


@dataclass
class FrequencyTable:
    """Dip frequencies with Wilson confidence bounds, one row per epsilon."""

    query: BoundaryQuery
    analytic_avoids: bool
    eps: np.ndarray
    frequency: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_paths: int
    horizon: float
    under_resolved: bool

    def rows(self):
        return list(zip(self.eps, self.frequency, self.ci_lo, self.ci_hi))

    def to_csv(self, path):
        write_csv(path, ["eps", "frequency", "ci_lo", "ci_hi"], self.rows())

    def as_dict(self):
        return {
            "kind": self.query.kind,
            "k": self.query.k,
            "names": list(self.query.names),
            "analytic_avoids": self.analytic_avoids,
            "eps": self.eps,
            "frequency": self.frequency,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "under_resolved": self.under_resolved,
        }


def mc_hit_frequency(params: ModelParams, query: BoundaryQuery, *,
                     T: float = 50.0, eps=(1e-2, 1e-3, 1e-4), n_paths: int = 500,
                     dt: float = 1e-3, seed: int = 0) -> FrequencyTable:
    """Fraction of paths from the uniform state whose queried quantity dips
    below each epsilon by T.

    When the analytic verdict says "avoids", frequencies should shrink down
    the epsilon ladder; when it says "hits", they stay bounded away from
    zero as epsilon decreases at fixed horizon.
    """
    observer = HitObserver(query.band, eps)
    batch = run_paths(params, np.full(params.d, 1.0 / params.d), T, dt, seed,
                      n_paths=n_paths, observers={"hits": observer})
    hit = batch.observations["hits"]                  # (E, P) booleans
    lo, hi = np.array([wilson_interval(int(h.sum()), n_paths) for h in hit]).T
    return FrequencyTable(
        query=query, analytic_avoids=query.analytic_avoids(params),
        eps=observer.eps, frequency=hit.mean(axis=1), ci_lo=lo, ci_hi=hi,
        n_paths=n_paths, horizon=batch.horizon, under_resolved=batch.under_resolved,
    )
