"""Discretized simulation of hybrid Jacobi market-weight dynamics.

The state is advanced by Euler-Maruyama with the exact diffusion coefficient
sigma * (delta_ij - x_i) * sqrt(x_j^+), then clipped to [0, 1] and
renormalized so every stored state is a valid simplex point.  Clipping
events are counted; runs where more than 1% of steps needed projection are
flagged as under-resolved.

Paths are driven by counter-based Philox streams keyed by
(master seed, path index), so batches are bit-reproducible regardless of
block size, worker count, or dispatch order.  Long-horizon experiments
avoid storing full trajectories by attaching observers that consume the
simulation block by block; they get the run's dt once and then see each
block's states with the per-path minima of its ranked weights
(``ranked_minima``).  ``_dips`` is the one epsilon-ladder test,
lo < eps <= hi.

Steps run in a compiled C kernel (``_kernel.c``, built on first use and
cached; see ``_kernel``) that releases the GIL, so worker threads simulate
in parallel.  ``_advance_block_numpy`` is its reference: the C kernel
repeats its arithmetic operation by operation, so both give bit-identical
states, clip counts and ranked minima, and it runs instead whenever the C
kernel cannot be built.  ``euler_backend()`` names the kernel in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from ._util import path_stream, write_csv
from .simplex import ModelParams, as_simplex, ranked_weights, ranks_of_names, require_valid

UNDER_RESOLVED_RATE = 0.01
OBSERVED_BLOCK_STEPS = 4096    # block length of runs that only observers read


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def drift(x, params: ModelParams) -> np.ndarray:
    """Drift vector (sigma^2/2) * (gamma_i + a_{rank(i)} - total * x_i).

    Vectorized over leading axes; components sum to zero whenever x does
    sum to one.
    """
    x = np.asarray(x, dtype=float)
    ranks = ranks_of_names(x)
    half = 0.5 * params.sigma * params.sigma
    return half * (params.gamma + params.a[ranks] - params.total_mass * x)


def euler_backend() -> str:
    """The Euler kernel this process runs: ``"c"`` or ``"numpy"``."""
    return "numpy" if _kernel.load() is None else "c"


def ranked_minima(states) -> np.ndarray:
    """Per-path minimum of each ranked weight over the rows of states
    (R, P, d), as (P, d); +inf where there are no rows."""
    return ranked_weights(states).min(axis=0, initial=np.inf)


def _advance_block(block, params: ModelParams, dt: float, z):
    """Fill block (B+1, P, d) rows 1..B from row 0 using the path-major
    normals z (P, B, d): path p's step b uses z[p, b].

    Returns ``(clips, low)``: the per-path count of steps where clipping
    occurred (P,), and ``ranked_minima(block[1:])`` (P, d).
    """
    kernel = _kernel.load()
    if kernel is None:
        return _advance_block_numpy(block, params, dt, z)
    return _advance_block_c(kernel, block, params, dt, z)


def _advance_block_c(kernel, block, params: ModelParams, dt: float, z):
    """The compiled kernel behind ``_advance_block``'s contract."""
    P, B, d = z.shape
    z = np.ascontiguousarray(z, dtype=float)
    work = np.ascontiguousarray(block, dtype=float)
    a = np.ascontiguousarray(params.a, dtype=float)
    gamma = np.ascontiguousarray(params.gamma, dtype=float)
    if work.shape != (B + 1, P, d) or a.shape != (d,) or gamma.shape != (d,):
        raise ValueError(f"block {work.shape}, normals {z.shape} and model "
                         f"dimension {a.shape} do not match")
    sigma = params.sigma
    clips = np.zeros(P, dtype=np.int64)
    low = np.empty((P, d))
    status = kernel(B, P, d, work.ctypes.data, z.ctypes.data, a.ctypes.data,
                    gamma.ctypes.data, float(0.5 * sigma * sigma),
                    float(params.total_mass), float(dt), float(sigma * math.sqrt(dt)),
                    clips.ctypes.data, low.ctypes.data)
    if status != 0:
        raise MemoryError("the Euler kernel could not allocate its work rows")
    if work is not block:
        block[...] = work
    return clips, low


def _advance_block_numpy(block, params: ModelParams, dt: float, z):
    """Reference kernel; same contract as ``_advance_block``."""
    P, B, _ = z.shape
    sigma = params.sigma
    sqdt = math.sqrt(dt)
    clips = np.zeros(P, dtype=np.int64)
    x = block[0]
    for b in range(B):
        drift_b = drift(x, params)
        sq = np.sqrt(x)
        zb = z[:, b]
        mix = (sq * zb).sum(axis=1, keepdims=True)
        xn = x + drift_b * dt + (sigma * sqdt) * (sq * zb - x * mix)
        bad = (xn < 0.0) | (xn > 1.0)
        if bad.any():
            clips += bad.any(axis=1)
            np.clip(xn, 0.0, 1.0, out=xn)
        xn /= xn.sum(axis=1, keepdims=True)
        block[b + 1] = xn
        x = block[b + 1]
    return clips, ranked_minima(block[1:])


# ---------------------------------------------------------------------------
# paths and batches
# ---------------------------------------------------------------------------

@dataclass
class SimPath:
    """A stored trajectory on the simplex with its provenance."""

    times: np.ndarray            # (n+1,)
    states: np.ndarray           # (n+1, d)
    params: ModelParams
    seed: int
    path_index: int
    dt: float
    n_projected: int

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def ranked_states(self) -> np.ndarray:
        return ranked_weights(self.states)

    def to_csv(self, path) -> None:
        d = self.states.shape[1]
        header = ["time"] + [f"x_{i}" for i in range(1, d + 1)]
        rows = (
            [self.times[t]] + list(self.states[t])
            for t in range(self.times.size)
        )
        write_csv(path, header, rows)


@dataclass
class BatchResult:
    """Outcome of a multi-path run: terminal states plus observer payloads."""

    params: ModelParams
    seed: int
    n_paths: int
    n_steps: int
    dt: float
    final_states: np.ndarray          # (P, d)
    n_projected: np.ndarray           # (P,)
    paths: list = field(default_factory=list)   # populated when store=True
    observations: dict = field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def projection_rate(self) -> float:
        return float(self.n_projected.sum()) / max(self.n_steps * self.n_paths, 1)

    @property
    def under_resolved(self) -> bool:
        return self.projection_rate > UNDER_RESOLVED_RATE

    def summary(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "dt": self.dt,
            "horizon": self.horizon,
            "projection_rate": self.projection_rate,
            "under_resolved": self.under_resolved,
            "per_path_projected": self.n_projected,
        }


def sum_over_steps(arr) -> np.ndarray:
    """Per-path sum of a (B, P) block, reduced along contiguous time rows.

    Summing along axis 0 directly lets numpy's pairwise reduction tree vary
    with P, so splitting a batch across workers would perturb results at
    the last bit.  Reducing each path's contiguous time series keeps float
    accumulation identical for any partition of the paths.
    """
    return np.ascontiguousarray(np.asarray(arr).T).sum(axis=1)


class PathObserver:
    """Block-wise consumer of a simulation.

    ``start`` sees the initial states (P, d) and the run's dt; every
    ``update`` sees states (B+1, P, d) whose first row repeats the last row
    of the previous call, so increments can be formed across block borders,
    and ``low`` (P, d) = ``ranked_minima(states[1:])``, which the Euler
    kernel computes from the rank order its drift already sorts.  The
    states array is reused for the next block, so keep copies, not views.
    Implementations must count each grid point exactly once: the initial
    state in ``start`` and rows 1..B in ``update``.
    """

    def start(self, states: np.ndarray, dt: float) -> None:  # pragma: no cover
        pass

    def update(self, states: np.ndarray, low: np.ndarray) -> None:
        raise NotImplementedError

    def result(self) -> dict:
        raise NotImplementedError


def run_paths(params: ModelParams, x0, T: float, dt: float, seed: int,
              n_paths: int = 1, observers=(), store: bool = False,
              block_steps: int = 2048, path_offset: int = 0) -> BatchResult:
    """Simulate ``n_paths`` trajectories to horizon T in lockstep blocks.

    The trajectory of path i depends only on (seed, path_offset + i), so a
    batch may be split across workers in any way without changing results.
    """
    require_valid(params)
    if dt <= 0 or T <= 0:
        raise ValueError("need T > 0 and dt > 0")
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    if not isinstance(block_steps, (int, np.integer)) or block_steps < 1:
        raise ValueError(f"block_steps must be a whole number >= 1, got {block_steps!r}")
    x0 = as_simplex(x0)
    d = params.d
    if x0.size != d:
        raise ValueError("x0 dimension does not match the model")
    n_steps = int(math.ceil(T / dt - 1e-12))
    states = np.tile(x0, (n_paths, 1))
    streams = [path_stream(seed, path_offset + i) for i in range(n_paths)]
    for ob in observers:
        ob.start(states, dt)
    stored = [states[:, None, :].copy()] if store else None
    n_projected = np.zeros(n_paths, dtype=np.int64)
    z = np.empty((n_paths, min(block_steps, n_steps), d))
    rows = np.empty((z.shape[1] + 1, n_paths, d))
    done = 0
    while done < n_steps:
        b = min(block_steps, n_steps - done)
        if z.shape[1] != b:
            z = np.empty((n_paths, b, d))
        for st, zp in zip(streams, z):
            st.standard_normal(out=zp)
        block = rows[:b + 1]
        block[0] = states
        clips, low = _advance_block(block, params, dt, z)
        n_projected += clips
        for ob in observers:
            ob.update(block, low)
        if store:
            stored.append(block[1:].transpose(1, 0, 2).copy())
        states = block[-1].copy()
        done += b
    result = BatchResult(
        params=params, seed=seed, n_paths=n_paths, n_steps=n_steps, dt=dt,
        final_states=states, n_projected=n_projected,
    )
    if store:
        all_states = np.concatenate(stored, axis=1)   # (P, n+1, d)
        times = np.arange(n_steps + 1) * dt
        result.paths = [
            SimPath(times=times.copy(), states=all_states[i], params=params,
                    seed=seed, path_index=path_offset + i, dt=dt,
                    n_projected=int(n_projected[i]))
            for i in range(n_paths)
        ]
    for ob in observers:
        result.observations.update(ob.result())
    return result


def simulate(params: ModelParams, x0, T: float, dt: float, seed: int) -> SimPath:
    """Single stored trajectory, path 0 of the seed; deterministic in the seed."""
    batch = run_paths(params, x0, T, dt, seed, n_paths=1, store=True)
    return batch.paths[0]


def simulate_given_noise(params: ModelParams, x0, dt: float, gaussians) -> SimPath:
    """Stored trajectory driven by externally supplied standard normals
    (one (n_steps, d) array).  Used to couple runs across step sizes: the
    same Brownian path can be replayed at a coarser grid by aggregating
    fine increments.
    """
    require_valid(params)
    z = np.asarray(gaussians, dtype=float)[None, :, :]
    x0 = as_simplex(x0)
    n_steps = z.shape[1]
    block = np.empty((n_steps + 1, 1, x0.size))
    block[0, 0] = x0
    clips, _ = _advance_block(block, params, dt, z)
    return SimPath(
        times=np.arange(n_steps + 1) * dt,
        states=block[:, 0, :].copy(),
        params=params,
        seed=-1,
        path_index=0,
        dt=dt,
        n_projected=int(clips[0]),
    )


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------

def _ladder(eps_ladder) -> np.ndarray:
    return np.asarray(sorted(eps_ladder, reverse=True), dtype=float)


def _dips(lo, hi, eps) -> np.ndarray:
    """Booleans (E,) + lo.shape of lo < eps <= hi for each epsilon of the
    ladder ``eps`` (E,); ``hi=None`` leaves the interval open above."""
    shaped = eps.reshape((-1,) + (1,) * np.ndim(lo))
    dip = lo < shaped
    if hi is not None:
        dip &= hi >= shaped
    return dip


class TimeAverageObserver(PathObserver):
    """Per-path time averages (1/T) * integral f(X_t) dt for named functions.

    Functions must be vectorized over leading axes of (..., d) states.  The
    integral uses left endpoints, matching the non-anticipative convention
    used everywhere else.
    """

    def __init__(self, funcs: dict):
        self.funcs = dict(funcs)

    def start(self, states, dt):
        self._acc = {name: np.zeros(states.shape[0]) for name in self.funcs}
        self._dt = dt
        self._elapsed = 0.0

    def update(self, states, low):
        left = states[:-1]
        for name, fn in self.funcs.items():
            self._acc[name] += sum_over_steps(fn(left)) * self._dt
        self._elapsed += self._dt * left.shape[0]

    def result(self):
        return {
            "time_averages": {
                name: acc / self._elapsed for name, acc in self._acc.items()
            }
        }


class OccupationObserver(PathObserver):
    """Fractions of grid times spent near collisions and near the boundary.

    For every epsilon in the ladder, counts per path: each adjacent ranked
    gap below epsilon, the minimum weight below epsilon, and any three
    ranked weights within an epsilon window.
    """

    def __init__(self, eps_ladder=(1e-2, 1e-3, 1e-4)):
        self.eps = _ladder(eps_ladder)

    def start(self, states, dt):
        P, d = states.shape                       # counts of d-1 gaps, the minimum, the window
        self._counts = np.zeros((self.eps.size, P, d + 1), dtype=np.int64)
        self._n = 0
        self._count(states[None, :, :])

    def update(self, states, low):
        self._count(states[1:])

    def _count(self, states):
        y = ranked_weights(states)                # (B, P, d)
        window = (y[..., :-2] - y[..., 2:]).min(axis=-1, keepdims=True, initial=np.inf)
        columns = np.concatenate([y[..., :-1] - y[..., 1:], y[..., -1:], window], axis=-1)
        self._counts += _dips(columns, None, self.eps).sum(axis=1)
        self._n += states.shape[0]

    def result(self):
        n = float(self._n)
        return {
            "occupation": {
                "eps": self.eps,
                "gap_fraction": self._counts[..., :-2].transpose(0, 2, 1) / n,   # (E, d-1, P)
                "min_weight_fraction": self._counts[..., -2] / n,
                "triple_fraction": self._counts[..., -1] / n,
            }
        }


class HitObserver(PathObserver):
    """Whether a path-wise quantity dips below each epsilon at any grid time.

    ``band(rows, low)`` maps the grid rows (R, P, d) of a block and their
    ``ranked_minima`` (P, d) to the bounds (lo, hi) of the dip test
    lo < eps <= hi, each (R', P) (``hi=None``: no upper bound); it runs
    once per block, so any sorting is shared across the ladder.
    """

    def __init__(self, band, eps_ladder):
        self.band = band
        self.eps = _ladder(eps_ladder)

    def start(self, states, dt):
        self._hit = np.zeros((self.eps.size, states.shape[0]), dtype=bool)
        rows = states[None, :, :]
        self._scan(rows, ranked_minima(rows))

    def update(self, states, low):
        self._scan(states[1:], low)

    def _scan(self, rows, low):
        self._hit |= _dips(*self.band(rows, low), self.eps).any(axis=1)

    def result(self):
        return {"hits": {"eps": self.eps, "hit": self._hit}}


# ---------------------------------------------------------------------------
# diagnostics on stored paths
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class OccupationReport:
    eps: float
    gap_fractions: np.ndarray        # (d-1,)
    min_weight_fraction: float
    triple_fraction: float


def occupation_stats(path: SimPath, eps: float) -> OccupationReport:
    """Fractions of grid times with near-collisions or near-boundary states."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    counter = OccupationObserver((eps,))
    counter.start(path.states[:1], path.dt)
    states = path.states[:, None, :]
    counter.update(states, ranked_minima(states[1:]))
    occ = counter.result()["occupation"]
    return OccupationReport(
        eps=eps,
        gap_fractions=occ["gap_fraction"][0, :, 0],
        min_weight_fraction=float(occ["min_weight_fraction"][0, 0]),
        triple_fraction=float(occ["triple_fraction"][0, 0]),
    )


def gap_local_time(path: SimPath, k: int, l: int | None = None,
                   eps: float | None = None, log_scale: bool = False) -> np.ndarray:
    """Occupation-density estimate of the local time of the ranked gap
    Y_(k) - Y_(l) at zero (or of the log-gap when ``log_scale``).

    Uses (1/eps) * integral of 1{0 <= gap < eps} against the model
    quadratic-variation rate of the gap.  The default bandwidth eps scales
    with the diffusive step size, eps = 2 sqrt(dt).
    """
    d = path.states.shape[1]
    l = k + 1 if l is None else l
    if not (1 <= k < l <= d):
        raise IndexError("need 1 <= k < l <= d")
    if eps is None:
        eps = 2.0 * math.sqrt(path.dt)
    y = path.ranked_states()[:-1]
    yk = y[:, k - 1]
    yl = y[:, l - 1]
    sig2 = path.params.sigma ** 2
    if log_scale:
        with np.errstate(divide="ignore"):
            gap = np.log(yk) - np.log(yl)
            rate = sig2 * (1.0 / yk + 1.0 / yl)
        rate[~np.isfinite(rate)] = 0.0
    else:
        gap = yk - yl
        rate = sig2 * (yk + yl - gap * gap)
    inside = (gap >= 0.0) & (gap < eps)
    return np.cumsum(inside * rate) * (path.dt / eps)
