"""Discretized simulation of hybrid Jacobi market-weight dynamics.

The state is advanced by Euler-Maruyama with the exact diffusion coefficient
sigma * (delta_ij - x_i) * sqrt(x_j^+), then clipped to [0, 1] and
renormalized so every stored state is a valid simplex point.  Clipping
events are counted; runs where more than 1% of steps needed projection are
flagged as under-resolved.

Paths are driven by counter-based Philox streams keyed by
(master seed, path index), so batches are bit-reproducible regardless of
block size, chunk size, worker count, or dispatch order.  Long-horizon
experiments avoid storing full trajectories by attaching observers that
consume the simulation block by block, each under a result key the caller
names; they get the run's dt once and then see each block's states with the
per-path minima of its ranked weights (``ranked_minima``).  ``_dips`` is the
one epsilon-ladder test, lo < eps <= hi.

Steps run in a compiled C kernel (``_kernel.c``, built on first use and
cached; see ``_kernel``) that releases the GIL, so worker threads simulate
in parallel.  ``run_paths`` runs each chunk of ``PATH_CHUNK`` paths over the
whole horizon, with its own observer copies, so its rows stay in cache; the
kernel steps a chunk's paths in lockstep and draws each path's normals
itself, from the path's Philox state (``_kernel.streams``), where it uses
them.  ``_advance_block_numpy`` is its reference: its normals come from
``path_stream`` generators, which the kernel's streams match draw for draw,
and the C kernel repeats its arithmetic operation by operation, so both give
bit-identical states, clip counts and ranked minima.  It runs instead, on
whole batches, whenever the C kernel cannot be built or its normals check
fails.  ``euler_backend()`` names the kernel in use.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel
from ._util import path_stream, write_csv
from .simplex import ModelParams, as_simplex, ranked_weights, ranks_of_names, require_valid

UNDER_RESOLVED_RATE = 0.01
BLOCK_STEPS = 2048             # steps per streamed block of every Euler run
PATH_CHUNK = 32                # paths per compiled-kernel call within a block


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


def _advance_block_c(kernel, block, params: ModelParams, dt: float, z, streams=None):
    """The compiled kernel behind ``_advance_block``'s contract.  ``block``
    may be a path slice ``wide[:, i:j]`` of a step-major float64 array: the
    kernel writes its rows in place, through the row stride.  With ``z``
    None, path p draws its normals from the stream state ``streams[p]``
    (``_kernel.streams``) as its Philox stream's ``standard_normal(out=z[p])``
    would, and the kernel advances that state in place."""
    if z is not None:
        P, B, d = z.shape
        z = np.ascontiguousarray(z, dtype=float)
    else:
        B, P, d = block.shape[0] - 1, block.shape[1], block.shape[2]
        if (streams.shape != (P, _kernel.STREAM_WORDS) or streams.dtype != np.uint64
                or not streams.flags.c_contiguous or not streams.flags.writeable):
            raise ValueError(f"need writeable C-contiguous uint64 stream states "
                             f"({P}, {_kernel.STREAM_WORDS}), got {streams.shape}")
    a = np.ascontiguousarray(params.a, dtype=float)
    gamma = np.ascontiguousarray(params.gamma, dtype=float)
    if block.shape != (B + 1, P, d) or a.shape != (d,) or gamma.shape != (d,):
        raise ValueError(f"block {block.shape}, normals {(P, B, d)} and model "
                         f"dimension {a.shape} do not match")
    row, path, weight = block.strides
    if (block.dtype != np.float64 or not block.flags.writeable or weight != 8
            or (P > 1 and path != 8 * d) or row % 8):
        raise ValueError("block must be a writeable float64 array whose rows hold "
                         "each path's d weights contiguously, path after path")
    sigma = params.sigma
    clips = np.zeros(P, dtype=np.int64)
    low = np.empty((P, d))
    status = kernel(B, P, d, row // 8, block.ctypes.data,
                    None if z is None else z.ctypes.data,
                    None if streams is None else streams.ctypes.data,
                    a.ctypes.data, gamma.ctypes.data, float(0.5 * sigma * sigma),
                    float(params.total_mass), float(dt), float(sigma * math.sqrt(dt)),
                    clips.ctypes.data, low.ctypes.data)
    if status != 0:
        raise MemoryError("the Euler kernel could not allocate its work rows")
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
    path_index: int
    dt: float
    n_projected: int

    def to_csv(self, path) -> None:
        d = self.states.shape[1]
        header = ["time"] + [f"x_{i}" for i in range(1, d + 1)]
        write_csv(path, header, np.column_stack((self.times, self.states)))


@dataclass
class BatchResult:
    """Outcome of a multi-path run: terminal states plus observer results,
    each under the key its observer was given."""

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

    Each path chunk of a run gets its own ``copy.copy``, so ``start`` must
    bind fresh state; it sees the chunk's initial states (P, d) and the
    run's dt.  Every ``update`` sees states (B+1, P, d) whose first row
    repeats the last row of the previous call, so increments can be formed
    across block borders, and ``low`` (P, d) = ``ranked_minima(states[1:])``,
    which the Euler kernel computes from the rank order its drift already
    sorts.  The states array is reused for the next block, so keep copies,
    not views.  Implementations must count each grid point exactly once:
    the initial state in ``start`` and rows 1..B in ``update``.

    ``result`` returns the chunk's per-path data only: an array, or a dict
    of arrays, with the paths on the last axis, which ``join_batches``
    concatenates along that axis.
    """

    def start(self, states: np.ndarray, dt: float) -> None:
        raise NotImplementedError

    def update(self, states: np.ndarray, low: np.ndarray) -> None:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


def join_batches(batches: list) -> BatchResult:
    """The batch of one run from the batches of its consecutive path
    ranges, in path order; the observations join by ``_join_by_path``."""
    return replace(batches[0], n_paths=sum(b.n_paths for b in batches),
                   final_states=np.concatenate([b.final_states for b in batches]),
                   n_projected=np.concatenate([b.n_projected for b in batches]),
                   paths=[path for b in batches for path in b.paths],
                   observations=_join_by_path([b.observations for b in batches]))


def _join_by_path(parts: list):
    """Dicts join key by key and arrays along their last axis, the paths."""
    if isinstance(parts[0], dict):
        return {key: _join_by_path([part[key] for part in parts]) for key in parts[0]}
    return np.concatenate(parts, axis=-1)


def _checked_start(params: ModelParams, x0, dt: float) -> np.ndarray:
    """Validate the model and step of an Euler run; x0 as a simplex point."""
    require_valid(params)
    if not 0 < dt < math.inf:
        raise ValueError(f"need a finite dt > 0, got dt={dt!r}")
    x0 = as_simplex(x0)
    if x0.size != params.d:
        raise ValueError("x0 dimension does not match the model")
    return x0


def run_paths(params: ModelParams, x0, T: float, dt: float, seed: int,
              n_paths: int = 1, observers=None, store: bool = False,
              block_steps: int = BLOCK_STEPS, path_offset: int = 0) -> BatchResult:
    """Simulate ``n_paths`` trajectories to horizon T, one path chunk at a time.

    The trajectory of path i depends only on (seed, path_offset + i), so a
    batch may be split across workers in any way without changing results.
    Chunks hold ``PATH_CHUNK`` paths with the compiled kernel, which draws
    their normals itself, and the whole batch with the numpy kernel, whose
    cost is per numpy call and whose normals fill a (batch, block, d)
    buffer.  ``observers`` maps result keys to observers, and
    ``observations[key]`` holds the result of the observer under that key.
    Each chunk runs the whole horizon with its own copy of every observer
    into a batch of its own; ``join_batches`` joins them.
    """
    x0 = _checked_start(params, x0, dt)
    if not 0 < T < math.inf:
        raise ValueError(f"need a finite T > 0, got T={T!r}")
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    if not isinstance(block_steps, (int, np.integer)) or block_steps < 1:
        raise ValueError(f"block_steps must be a whole number >= 1, got {block_steps!r}")
    d = params.d
    n_steps = int(math.ceil(T / dt - 1e-12))
    kernel = _kernel.load()
    chunk = n_paths if kernel is None else min(PATH_CHUNK, n_paths)
    width = min(block_steps, n_steps)
    normals = np.empty(chunk * width * d) if kernel is None else None
    rows = np.empty((width + 1, chunk, d))
    if store:
        times = np.arange(n_steps + 1) * dt
        times.flags.writeable = False             # shared by every stored path
    parts = []
    for start in range(0, n_paths, chunk):
        size = min(chunk, n_paths - start)
        if kernel is None:
            streams = [path_stream(seed, path_offset + start + i) for i in range(size)]
        else:
            streams = _kernel.streams(seed, path_offset + start, size)
        copies = {key: copy.copy(ob) for key, ob in (observers or {}).items()}
        for ob in copies.values():
            ob.start(np.tile(x0, (size, 1)), dt)
        n_projected = np.zeros(size, dtype=np.int64)
        states = np.empty((size, n_steps + 1, d)) if store else None
        rows[0, :size] = x0
        for done in range(0, n_steps, block_steps):
            b = min(block_steps, n_steps - done)
            block = rows[:b + 1, :size]
            if kernel is None:
                z = normals[:size * b * d].reshape(size, b, d)
                for st, zp in zip(streams, z):
                    st.standard_normal(out=zp)
                clips, low = _advance_block_numpy(block, params, dt, z)
            else:
                clips, low = _advance_block_c(kernel, block, params, dt, None, streams)
            n_projected += clips
            for ob in copies.values():
                ob.update(block, low)
            if store:
                states[:, done:done + b + 1] = block.transpose(1, 0, 2)
            block[0] = block[-1]
        part = BatchResult(n_paths=size, n_steps=n_steps, dt=dt,
                           final_states=rows[0, :size].copy(), n_projected=n_projected,
                           observations={key: ob.result() for key, ob in copies.items()})
        if store:
            part.paths = [SimPath(times=times, states=states[i], params=params,
                                  path_index=path_offset + start + i, dt=dt,
                                  n_projected=int(n_projected[i])) for i in range(size)]
        parts.append(part)
    return join_batches(parts)


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
    x0 = _checked_start(params, x0, dt)
    z = np.asarray(gaussians, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != x0.size:
        raise ValueError(f"gaussians must be an (n_steps, d) = (n_steps, {x0.size}) array "
                         f"with n_steps >= 1, got shape {z.shape}")
    n_steps = z.shape[0]
    block = np.empty((n_steps + 1, 1, x0.size))
    block[0, 0] = x0
    clips, _ = _advance_block(block, params, dt, z[None])
    return SimPath(
        times=np.arange(n_steps + 1) * dt,
        states=block[:, 0, :].copy(),
        params=params,
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
        return {name: acc / self._elapsed for name, acc in self._acc.items()}


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
            "gap_fraction": self._counts[..., :-2].transpose(0, 2, 1) / n,   # (E, d-1, P)
            "min_weight_fraction": self._counts[..., -2] / n,
            "triple_fraction": self._counts[..., -1] / n,
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
        return self._hit
