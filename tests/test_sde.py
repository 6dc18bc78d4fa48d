import itertools
import json
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openjacobi import (
    BoundaryQuery,
    HitObserver,
    InvalidModelError,
    ModelParams,
    OccupationObserver,
    TimeAverageObserver,
    WealthObserver,
    diffusion_c,
    drift,
    growth_optimal_theta,
    run_paths,
    simulate,
    simulate_given_noise,
)
from openjacobi import _kernel, sde
from openjacobi._util import path_stream, substream
from openjacobi.cli import _parallel_batches, run
from openjacobi.sde import PathObserver, SimPath

from helpers import model_covariation_integral, occupation_stats, realized_covariation


requires_cc = pytest.mark.skipif(
    shutil.which("gcc") is None,
    reason="no C compiler (gcc on PATH), so the compiled Euler kernel cannot be built",
)


def rank_jacobi(a, sigma=1.0):
    a = np.asarray(a, dtype=float)
    return ModelParams(a=a, gamma=np.zeros(a.size), sigma=sigma)


def euler_step(x, params, dt, gaussians):
    """One Euler-Maruyama step from a single state; returns (state, clipped)."""
    x = np.asarray(x, dtype=float)[None, :]
    z = np.asarray(gaussians, dtype=float)[None, None, :]
    block = np.empty((2,) + x.shape)
    block[0] = x
    clips, _ = sde._advance_block(block, params, dt, z)
    return block[1, 0], bool(clips[0])


def compiled_kernel():
    kernel = _kernel.load()
    assert kernel is not None, f"the compiled Euler kernel did not load: {_kernel.failure}"
    return kernel


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_volatility_stabilized_form():
    d, g = 4, 0.8
    p = ModelParams(a=np.zeros(d), gamma=np.full(d, g), sigma=1.0)
    rng = np.random.default_rng(0)
    x = rng.dirichlet(np.ones(d))
    expected = (g * d / 2.0) * (1.0 / d - x)
    assert np.allclose(drift(x, p), expected, atol=1e-14)


def test_drift_at_uniform_state_rank_model():
    p = rank_jacobi([2.0, 1.0, 0.0])
    x = np.full(3, 1.0 / 3.0)
    # ties broken lexicographically: name i holds rank i
    expected = 0.5 * (p.a - p.a.sum() / 3.0)
    assert np.allclose(drift(x, p), expected, atol=1e-14)


def test_drift_sums_to_zero():
    rng = np.random.default_rng(1)
    p = ModelParams(a=[0.5, 0.2, 0.3, 1.0], gamma=[0.1, 0.4, 0.0, 0.2], sigma=1.4)
    for _ in range(20):
        x = rng.dirichlet(np.ones(4))
        assert abs(drift(x, p).sum()) < 1e-12


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_fixed_point_without_noise():
    d, g = 3, 1.0
    p = ModelParams(a=np.zeros(d), gamma=np.full(d, g), sigma=1.0)
    x = np.full(d, 1.0 / d)            # drift vanishes here
    new, clipped = euler_step(x, p, 0.01, np.zeros(d))
    assert np.allclose(new, x, atol=1e-15)
    assert not clipped


def test_step_noise_free_drift_example():
    # uniform start, rank drift (2,1,0): half-step moves mass to name 1
    p = rank_jacobi([2.0, 1.0, 0.0])
    x = np.full(3, 1.0 / 3.0)
    new, _ = euler_step(x, p, 0.01, np.zeros(3))
    expected = np.array([1 / 3 + 0.005, 1 / 3, 1 / 3 - 0.005])
    assert np.allclose(new, expected, atol=1e-14)


def test_one_step_increment_moments_match_model():
    # Monte Carlo oracle: replicate one step from a fixed state and compare
    # the empirical increment mean and covariance with drift * dt and
    # c(x) * dt entrywise
    p = rank_jacobi([1.5, 1.0, 0.5])
    x = np.array([0.5, 0.3, 0.2])
    dt = 1e-3
    n = 100_000
    rng = np.random.default_rng(42)
    z = rng.standard_normal((n, 1, 3))
    block = np.empty((2, n, 3))
    block[0] = x
    from openjacobi.sde import _advance_block

    _advance_block(block, p, dt, z)
    dx = block[1] - block[0]
    mean_se = dx.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(dx.mean(axis=0) - drift(x, p) * dt) < 4.0 * mean_se)
    target = diffusion_c(x, p.sigma) * dt
    prods = dx[:, :, None] * dx[:, None, :]
    emp = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(emp - target) < 4.0 * se + 1e-9)


# ---------------------------------------------------------------------------
# simulate: determinism and ergodic sanity
# ---------------------------------------------------------------------------

def test_simulate_is_deterministic():
    p = rank_jacobi([1.0, 1.0, 1.0])
    a = simulate(p, [0.5, 0.3, 0.2], T=0.5, dt=1e-3, seed=9)
    b = simulate(p, [0.5, 0.3, 0.2], T=0.5, dt=1e-3, seed=9)
    assert np.array_equal(a.states, b.states)
    c = simulate(p, [0.5, 0.3, 0.2], T=0.5, dt=1e-3, seed=10)
    assert not np.array_equal(a.states, c.states)


def test_simulate_block_size_invariance():
    p = rank_jacobi([1.0, 1.0, 1.0])
    a = run_paths(p, [0.4, 0.35, 0.25], T=0.3, dt=1e-3, seed=5, n_paths=2,
                  store=True, block_steps=7)
    b = run_paths(p, [0.4, 0.35, 0.25], T=0.3, dt=1e-3, seed=5, n_paths=2,
                  store=True, block_steps=4096)
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa.states, pb.states)


def test_path_identity_independent_of_batch_partition():
    p = rank_jacobi([1.0, 1.0, 1.0])
    whole = run_paths(p, [0.4, 0.35, 0.25], T=0.2, dt=1e-3, seed=5, n_paths=4,
                      store=True)
    part = run_paths(p, [0.4, 0.35, 0.25], T=0.2, dt=1e-3, seed=5, n_paths=2,
                     store=True, path_offset=2)
    assert np.array_equal(whole.paths[2].states, part.paths[0].states)
    assert np.array_equal(whole.paths[3].states, part.paths[1].states)


def test_simulate_rejects_invalid_params():
    with pytest.raises(InvalidModelError) as err:
        simulate(ModelParams(a=[1.0, -1.0, 0.5], gamma=np.zeros(3)),
                 [0.4, 0.3, 0.3], T=0.1, dt=1e-3, seed=0)
    assert err.value.violated_index == 2


def test_long_run_mean_matches_symmetric_dirichlet():
    # a = 0, symmetric gamma: stationary mean of each weight is 1/d
    d = 3
    p = ModelParams(a=np.zeros(d), gamma=np.full(d, 2.0), sigma=1.0)
    obs = TimeAverageObserver({"x1": lambda s: s[..., 0]})
    batch = run_paths(p, np.full(d, 1.0 / d), T=100.0, dt=1e-3, seed=21,
                      n_paths=4, observers={"time_averages": obs})
    avg = batch.observations["time_averages"]["x1"]
    assert abs(avg.mean() - 1.0 / d) < 0.02


class _Recorder(PathObserver):
    """Records what each protocol call receives."""

    def __init__(self):
        self.calls = []

    def start(self, *args):
        self.calls.append(("start", args))

    def update(self, *args):
        self.calls.append(("update", tuple(arg.copy() for arg in args)))

    def result(self):
        return {}


def test_observers_get_the_run_dt_once_then_states_and_ranked_minima():
    p = rank_jacobi([1.0, 1.0, 1.0])
    dt = 0.1 / 3                  # a block time grid would reproduce this dt only to an ulp
    rec = _Recorder()
    batch = run_paths(p, [0.5, 0.3, 0.2], T=3.0, dt=dt, seed=5, n_paths=2,
                      observers={"rec": rec}, block_steps=7)
    (kind, (states, got_dt)), *updates = rec.calls
    assert kind == "start" and states.shape == (2, 3)
    assert got_dt == dt
    assert [kind for kind, _ in updates] == ["update"] * -(-batch.n_steps // 7)
    assert all(len(args) == 2 and args[0].shape[1:] == (2, 3) for _, args in updates)
    for _, (states, low) in updates:
        assert np.array_equal(low, sde.ranked_minima(states[1:]))
    assert sum(args[0].shape[0] - 1 for _, args in updates) == batch.n_steps


# ---------------------------------------------------------------------------
# covariation diagnostics
# ---------------------------------------------------------------------------

class _CovariationTerminal(PathObserver):
    """Terminal realized and model-integrated covariations, per path."""

    def __init__(self, i, j, params):
        self.i, self.j, self.params = i - 1, j - 1, params
        self.realized = None
        self.model = None

    def start(self, states, dt):
        P = states.shape[0]
        self.realized = np.zeros(P)
        self.model = np.zeros(P)
        self.dt = dt

    def update(self, states, low):
        dt = self.dt
        dx = np.diff(states, axis=0)
        self.realized += (dx[..., self.i] * dx[..., self.j]).sum(axis=0)
        left = states[:-1]
        delta = 1.0 if self.i == self.j else 0.0
        rate = self.params.sigma ** 2 * left[..., self.i] * (delta - left[..., self.j])
        self.model += rate.sum(axis=0) * dt

    def result(self):
        return {"realized": self.realized, "model": self.model}


@pytest.mark.parametrize("i,j", [(1, 1), (1, 2)])
def test_realized_covariation_tracks_model_integral(i, j):
    p = rank_jacobi([1.0, 1.0, 1.0])
    diag = _CovariationTerminal(i, j, p)
    scale = _CovariationTerminal(i, i, p)
    batch = run_paths(p, np.full(3, 1 / 3), T=10.0, dt=1e-3, seed=77,
                      n_paths=100, observers={"cov": diag})
    batch2 = run_paths(p, np.full(3, 1 / 3), T=10.0, dt=1e-3, seed=77,
                       n_paths=100, observers={"cov": scale})
    gap = (batch.observations["cov"]["realized"]
           - batch.observations["cov"]["model"]).mean()
    norm = batch2.observations["cov"]["model"].mean()
    assert abs(gap) / norm < 0.05


def test_realized_covariation_rows_sum_to_zero():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=2.0, dt=1e-3, seed=3)
    total = sum(realized_covariation(path, 1, j)[-1] for j in range(1, 4))
    scale = realized_covariation(path, 1, 1)[-1]
    assert abs(total) < 5e-3 * scale + 1e-12


def test_realized_covariation_zero_on_frozen_coordinate():
    p = rank_jacobi([1.0, 1.0])
    states = np.tile([0.6, 0.4], (11, 1))
    path = SimPath(times=np.arange(11) * 0.1, states=states, params=p,
                   path_index=0, dt=0.1, n_projected=0)
    assert np.all(realized_covariation(path, 1, 1) == 0.0)


def test_model_covariation_integral_matches_quadratic_form():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=0.5, dt=1e-3, seed=8)
    # cross-check one entry against the generic covariation form
    left = path.states[:-1]
    manual = np.cumsum(p.sigma ** 2 * left[:, 0] * (1.0 - left[:, 0])) * path.dt
    assert np.allclose(model_covariation_integral(path, 1, 1), manual)


# ---------------------------------------------------------------------------
# occupation statistics
# ---------------------------------------------------------------------------

def test_occupation_fraction_one_for_huge_eps():
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=0.2, dt=1e-3, seed=2)
    rep = occupation_stats(path, eps=2.0)
    assert np.all(rep.gap_fractions == 1.0)
    assert rep.min_weight_fraction == 1.0
    assert rep.triple_fraction == 1.0


def test_occupation_boundary_fraction_small_when_margins_large():
    # every tail sum >= 1: the smallest weight stays away from zero
    p = rank_jacobi([1.0, 1.0, 1.5])
    path = simulate(p, np.full(3, 1 / 3), T=50.0, dt=1e-3, seed=4)
    rep = occupation_stats(path, eps=1e-3)
    assert rep.min_weight_fraction < 0.01


def test_occupation_observer_matches_stored_stats():
    p = rank_jacobi([1.0, 1.0, 1.0])
    obs = OccupationObserver(eps_ladder=(1e-2,))
    batch = run_paths(p, [0.5, 0.3, 0.2], T=1.0, dt=1e-3, seed=13, n_paths=1,
                      observers={"occupation": obs}, store=True, block_steps=173)
    stored = occupation_stats(batch.paths[0], eps=1e-2)
    streamed = batch.observations["occupation"]
    assert np.allclose(streamed["gap_fraction"][0, :, 0], stored.gap_fractions)
    assert streamed["min_weight_fraction"][0, 0] == pytest.approx(
        stored.min_weight_fraction)


# ---------------------------------------------------------------------------
# storage / export
# ---------------------------------------------------------------------------

def test_path_csv_export(tmp_path):
    # the simulate command writes path 0 of its seed as `simulate` returns it
    p = rank_jacobi([1.0, 1.0, 1.0])
    path = simulate(p, [0.5, 0.3, 0.2], T=0.05, dt=1e-3, seed=1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "model": {"a": [1.0, 1.0, 1.0], "gamma": [0.0, 0.0, 0.0], "sigma": 1.0},
        "sim": {"T": 0.05, "dt": 1e-3, "x0": [0.5, 0.3, 0.2]},
    }))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    csv = out / "path_0000.csv"
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape == (51, 4)
    assert np.allclose(data[:, 0], path.times)
    assert np.allclose(data[:, 1:], path.states)
    header = csv.read_text().splitlines()[0]
    assert header == "time,x_1,x_2,x_3"


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_simulate_given_noise_matches_stream_draws(backend, monkeypatch):
    # both backends replay the path's own stream, so the states agree bit for bit
    if backend == "numpy":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    elif _kernel.load() is None:
        pytest.skip(f"the compiled Euler kernel is unavailable: {_kernel.failure}")
    p = rank_jacobi([1.0, 1.0, 1.0])
    z = path_stream(123, 0).standard_normal((200, 3))
    replay = simulate_given_noise(p, [0.5, 0.3, 0.2], 1e-3, z)
    direct = simulate(p, [0.5, 0.3, 0.2], T=0.2, dt=1e-3, seed=123)
    assert np.array_equal(replay.states, direct.states)


@pytest.mark.parametrize("dt, gaussians, match", [
    (0.0, np.zeros((5, 3)), "dt"),
    (-1e-3, np.zeros((5, 3)), "dt"),
    (float("inf"), np.zeros((5, 3)), "dt"),
    (1e-3, np.zeros(15), r"\(n_steps, d\)"),
    (1e-3, np.zeros((5, 2)), r"\(n_steps, d\)"),
    (1e-3, np.zeros((0, 3)), r"\(n_steps, d\)"),
])
def test_simulate_given_noise_rejects_bad_dt_and_normals(dt, gaussians, match):
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=match):
        simulate_given_noise(p, [0.5, 0.3, 0.2], dt, gaussians)


@pytest.mark.parametrize("T, dt", [
    (float("inf"), 1e-3), (float("nan"), 1e-3), (1.0, float("inf")), (1.0, float("nan")),
])
def test_run_paths_rejects_non_finite_horizon_and_step(T, dt):
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        run_paths(p, [0.5, 0.3, 0.2], T, dt, 1)


@pytest.mark.parametrize("x0, n_paths, match", [
    ([0.5, 0.3, 0.2], 0, "n_paths"),
    ([0.5, 0.5], 1, "dimension"),
])
def test_run_paths_rejects_no_paths_and_a_start_of_another_dimension(x0, n_paths, match):
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=match):
        run_paths(p, x0, 0.01, 1e-3, 1, n_paths=n_paths)


def test_under_resolved_flag_for_coarse_dt():
    p = rank_jacobi([1.0, 1.0, 1.0])
    batch = run_paths(p, [0.6, 0.3, 0.1], T=10.0, dt=0.5, seed=2, n_paths=4)
    assert batch.projection_rate > 0.01
    assert batch.under_resolved


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, index", [
    (2 ** 64, 0), (2 ** 64 + 1, 0), (-1, 0), (0, 2 ** 64), (0, 2 ** 64 + 1), (0, -1),
])
def test_path_stream_rejects_keys_outside_64_bits(seed, index):
    with pytest.raises(ValueError):
        path_stream(seed, index)


def test_path_stream_values_unchanged_for_valid_seeds():
    assert path_stream(7, 0).standard_normal(3).tolist() == [
        0.8092421975343789, 0.26472064784364424, 0.45459694192449634]
    top = 2 ** 64 - 1
    assert path_stream(top, top).standard_normal(2).tolist() == [
        0.6313842391058808, -1.1589078121430747]


# ---------------------------------------------------------------------------
# compiled kernel: bit-identity with the numpy reference, fallback, caching
# ---------------------------------------------------------------------------

def _kernel_case(d, P, steps, seed):
    """Model, start block and normals with tied, zero and spread weights."""
    rng = np.random.default_rng(seed)
    params = ModelParams(a=rng.uniform(0.0, 2.0, d), gamma=rng.uniform(0.0, 0.5, d),
                         sigma=1.3)
    start = np.full((P, d), 1.0 / d)                  # every weight tied
    start[1::3] = rng.dirichlet(np.full(d, 0.3), size=start[1::3].shape[0])
    start[2::3, :2] = 0.5                             # ties at 1/2 and at 0
    start[2::3, 2:] = 0.0
    block = np.empty((steps + 1, P, d))
    block[0] = start
    return params, block, rng.standard_normal((P, steps, d))


@requires_cc
@pytest.mark.parametrize("d, P, dt", list(itertools.product(
    [2, 3, 5, 10, 50, 130], [1, 20, 500], [1e-3, 1e-1])))
def test_compiled_kernel_bit_identical_to_numpy(d, P, dt):
    kernel = compiled_kernel()
    params, block_np, z = _kernel_case(d, P, steps=8 if P == 500 else 30, seed=d * P)
    block_c = block_np.copy()
    wide = np.full((block_np.shape[0], P + 3, d), -1.0)  # the same paths as a strided slice
    wide[0, 1:P + 1] = block_np[0]
    clips_np, low_np = sde._advance_block_numpy(block_np, params, dt, z)
    clips_c, low_c = sde._advance_block_c(kernel, block_c, params, dt, z)
    assert np.array_equal(block_c, block_np)
    assert np.array_equal(clips_c, clips_np)
    assert np.array_equal(low_c, low_np)
    if dt == 1e-1 and P > 1:
        assert clips_np.sum() > 0                     # the clip branch ran
    clips_s, low_s = sde._advance_block_c(kernel, wide[:, 1:P + 1], params, dt, z)
    assert np.array_equal(wide[:, 1:P + 1], block_np)    # written in place, no copy
    assert (wide[:, 0] == -1.0).all() and (wide[:, P + 1:] == -1.0).all()
    assert np.array_equal(clips_s, clips_np)
    assert np.array_equal(low_s, low_np)


@requires_cc
def test_run_paths_falls_back_to_numpy_when_the_kernel_fails(monkeypatch):
    compiled_kernel()
    p = ModelParams(a=[1.0, 0.5, 0.5], gamma=[0.3, 0.2, 0.1])
    args = (p, [0.5, 0.3, 0.2], 2.0, 1e-2, 17)
    fast = run_paths(*args, n_paths=3, store=True)
    assert sde.euler_backend() == "c"
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert sde.euler_backend() == "numpy"
    slow = run_paths(*args, n_paths=3, store=True)
    assert np.array_equal(fast.final_states, slow.final_states)
    assert np.array_equal(fast.n_projected, slow.n_projected)
    for a, b in zip(fast.paths, slow.paths):
        assert np.array_equal(a.states, b.states)


@requires_cc
def test_kernel_build_is_cached_and_reused(tmp_path, monkeypatch):
    lib = _kernel.build(tmp_path)
    assert lib == _kernel.library_path(tmp_path) and lib.exists()
    assert [f.name for f in tmp_path.iterdir()] == [lib.name]    # no temp files left
    stamp = lib.stat().st_mtime_ns
    monkeypatch.setattr(shutil, "which", lambda name: None)   # no compiler needed now
    assert _kernel.build(tmp_path) == lib
    assert lib.stat().st_mtime_ns == stamp


@requires_cc
def test_concurrent_first_loads_build_and_load_once(monkeypatch):
    compiled_kernel()                                  # the cached library exists
    monkeypatch.setattr(_kernel, "_done", False)
    monkeypatch.setattr(_kernel, "_function", None)
    builds = []
    real_build = _kernel.build
    monkeypatch.setattr(_kernel, "build", lambda d: builds.append(d) or real_build(d))
    results = []
    threads = [threading.Thread(target=lambda: results.append(_kernel.load()))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(results) == 8 and results[0] is not None
    assert all(r is results[0] for r in results)


def test_compiled_kernel_rejects_mismatched_shapes():
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        sde._advance_block_c(None, np.empty((3, 2, 3)), p, 1e-3, np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        sde._advance_block_c(None, np.empty((4, 2, 2)), p, 1e-3, np.zeros((2, 3, 2)))


def test_compiled_kernel_rejects_blocks_it_cannot_write_in_place():
    p = rank_jacobi([1.0, 1.0, 1.0])
    z = np.zeros((2, 3, 3))
    paths_apart = np.empty((4, 3, 2)).transpose(0, 2, 1)        # weights not contiguous
    read_only = np.empty((4, 2, 3))
    read_only.flags.writeable = False
    for block in (paths_apart, read_only, np.empty((4, 2, 3), dtype=np.float32)):
        with pytest.raises(ValueError, match="block"):
            sde._advance_block_c(None, block, p, 1e-3, z)


def test_load_reports_an_unwritable_cache(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(_kernel, "_done", False)
    monkeypatch.setattr(_kernel, "_function", None)
    monkeypatch.setattr(_kernel, "failure", None)
    assert _kernel.load() is None
    assert _kernel.failure
    assert sde.euler_backend() == "numpy"


# ---------------------------------------------------------------------------
# in-kernel normals: each path's Philox stream, consumed as numpy consumes it
# ---------------------------------------------------------------------------

_TOP = 2 ** 64 - 1


def _philox_words(generator):
    """A Philox generator's state in the kernel's stream layout."""
    state = generator.bit_generator.state
    return np.concatenate([state["state"]["counter"], state["state"]["key"], state["buffer"],
                           np.array([state["buffer_pos"]], dtype=np.uint64)])


def test_fresh_stream_states_are_numpys_philox_keys():
    streams = _kernel.streams(_TOP, _TOP - 1, 2)
    for p, index in enumerate((_TOP - 1, _TOP)):
        words = _philox_words(path_stream(_TOP, index))
        assert np.array_equal(streams[p, :6], words[:6])     # counter and key
        assert streams[p, 10] == words[10] == 4              # the buffer is used up
    with pytest.raises(ValueError):
        _kernel.streams(_TOP, _TOP, 2)                        # index 2**64 has no key
    with pytest.raises(ValueError):
        _kernel.streams(2 ** 64, 0, 1)


@requires_cc
def test_kernel_streams_consume_numpy_philox_exactly():
    # 64 paths x 8000 steps x d = 2 draw 1.02e6 normals, so the ziggurat's
    # wedge (about 1% of draws) and tail branches run; every stream must end
    # in the state its numpy generator reaches after the same normals
    kernel = compiled_kernel()
    P, B, d = 64, 8000, 2
    params = rank_jacobi([1.0, 0.5])
    first = _TOP - P + 1
    streams = _kernel.streams(_TOP, first, P)
    generators = [path_stream(_TOP, first + p) for p in range(P)]
    z = np.stack([g.standard_normal((B, d)) for g in generators])
    assert (np.abs(z) > 3.6541528853610087).sum() > 0           # tail draws
    drawn = np.empty((B + 1, P, d))
    drawn[0] = 1.0 / d
    given_z = drawn.copy()
    got = sde._advance_block_c(kernel, drawn, params, 1e-3, None, streams)
    ref = sde._advance_block_c(kernel, given_z, params, 1e-3, z)
    assert np.array_equal(drawn, given_z)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert np.array_equal(streams, np.stack([_philox_words(g) for g in generators]))


def test_compiled_kernel_rejects_bad_stream_states():
    p = rank_jacobi([1.0, 1.0, 1.0])
    good = _kernel.streams(1, 0, 2)
    read_only = good.copy()
    read_only.flags.writeable = False
    for streams in (good[:1], good.astype(np.int64), good[:, ::2], read_only):
        with pytest.raises(ValueError, match="stream"):
            sde._advance_block_c(None, np.empty((4, 2, 3)), p, 1e-3, None, streams)


_STREAM_MODELS = {
    2: rank_jacobi([1.0, 0.5]),
    3: ModelParams(a=[1.2, 0.8, 0.6], gamma=[0.3, -0.1, -0.2]),
    40: ModelParams(a=np.linspace(1.5, 0.5, 40), gamma=np.full(40, 0.1)),
}


def _both_kernels(params, seed, n_paths, n_steps, dt, block_steps=sde.BLOCK_STEPS, offset=0):
    """An observed, stored run's results with the compiled kernel and with
    the numpy kernel."""
    d = params.d

    def run():
        observers = {
            "time_averages": TimeAverageObserver({"y1": lambda s: s.max(axis=-1),
                                                  "x1": lambda s: s[..., 0]}),
            "hits": HitObserver(BoundaryQuery("rank_hits", k=d).band, (0.2, 1e-2, 1e-4)),
        }
        batch = run_paths(params, np.full(d, 1.0 / d), n_steps * dt, dt, seed,
                          n_paths=n_paths, observers=observers, store=True,
                          block_steps=block_steps, path_offset=offset)
        obs = batch.observations
        return [batch.final_states, batch.n_projected,
                np.stack([path.states for path in batch.paths]),
                obs["time_averages"]["y1"], obs["time_averages"]["x1"], obs["hits"]]

    compiled_kernel()
    compiled = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        return compiled, run()


@requires_cc
@pytest.mark.parametrize("d", sorted(_STREAM_MODELS))
@pytest.mark.parametrize("block_steps", [1, 7, 2048])
@pytest.mark.parametrize("n_paths", [1, 33, 70])
@pytest.mark.parametrize("seed, last_offset", [(0, False), (0, True), (_TOP, False), (_TOP, True)])
def test_in_kernel_streams_match_the_numpy_kernel(seed, last_offset, n_paths, block_steps, d):
    # the compiled kernel draws each path's normals itself; the numpy
    # kernel fills them from path_stream generators: the runs agree bit for
    # bit, at the extreme seeds and path indices too
    offset = 2 ** 64 - n_paths if last_offset else 0
    compiled, numpy_run = _both_kernels(_STREAM_MODELS[d], seed, n_paths, 15, 0.05,
                                        block_steps, offset)
    for got, ref in zip(compiled, numpy_run):
        assert np.array_equal(got, ref)


@requires_cc
def test_in_kernel_streams_match_the_numpy_kernel_over_a_million_normals():
    # 70 paths x 400 steps x d = 40: 1.12e6 normals, so wedge and tail draws
    # occur in every run
    compiled, numpy_run = _both_kernels(_STREAM_MODELS[40], 5, 70, 400, 1e-3)
    for got, ref in zip(compiled, numpy_run):
        assert np.array_equal(got, ref)


@requires_cc
def test_load_falls_back_to_numpy_when_the_kernel_normals_differ(monkeypatch):
    # a numpy whose normals differ from the kernel's fails the check in
    # load(), and runs take the numpy kernel with numpy's normals
    compiled_kernel()
    p = ModelParams(a=[1.0, 0.5, 0.5], gamma=[0.3, 0.2, 0.1])
    args = (p, [0.5, 0.3, 0.2], 0.5, 1e-2, 17)
    ref = run_paths(*args, n_paths=3, store=True)
    monkeypatch.setattr(_kernel, "_done", False)
    monkeypatch.setattr(_kernel, "_function", None)
    monkeypatch.setattr(_kernel, "failure", None)
    monkeypatch.setattr(_kernel, "path_stream", lambda seed, index: path_stream(seed, index ^ 1))
    assert _kernel.load() is None
    assert "normals differ" in _kernel.failure
    assert sde.euler_backend() == "numpy"
    got = run_paths(*args, n_paths=3, store=True)
    assert np.array_equal(got.final_states, ref.final_states)
    for a, b in zip(got.paths, ref.paths):
        assert np.array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# properties, under the compiled kernel
# ---------------------------------------------------------------------------

_models = st.sampled_from([
    rank_jacobi([1.0, 1.0, 1.0]),
    rank_jacobi([1.0, 0.5]),
    ModelParams(a=[1.0, 0.5, 0.5, 0.2], gamma=[0.3, 0.2, 0.1, 0.0], sigma=1.2),
])


@requires_cc
@settings(max_examples=25, deadline=None)
@given(params=_models, n_paths=st.integers(1, 4), n_steps=st.integers(1, 120),
       block_steps=st.integers(1, 50), dt=st.sampled_from([1e-3, 5e-2]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_run_paths_independent_of_block_steps(params, n_paths, n_steps, block_steps,
                                              dt, seed):
    compiled_kernel()
    x0 = np.full(params.d, 1.0 / params.d)
    T = n_steps * dt
    ref = run_paths(params, x0, T, dt, seed, n_paths=n_paths, store=True,
                    block_steps=n_steps)
    got = run_paths(params, x0, T, dt, seed, n_paths=n_paths, store=True,
                    block_steps=block_steps)
    assert np.array_equal(got.n_projected, ref.n_projected)
    for a, b in zip(got.paths, ref.paths):
        assert np.array_equal(a.states, b.states)


@settings(max_examples=25, deadline=None)
@given(params=_models, n_paths=st.integers(1, 4), n_steps=st.integers(1, 150),
       block_steps=st.integers(1, 50), dt=st.sampled_from([1e-3, 5e-2]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_observers_independent_of_block_steps(params, n_paths, n_steps, block_steps,
                                              dt, seed):
    x0 = np.full(params.d, 1.0 / params.d)
    eps = (0.2, 1e-2, 1e-4)

    def run(steps):
        observers = {
            "time_averages": TimeAverageObserver({"y1": lambda s: s.max(axis=-1),
                                                  "x1": lambda s: s[..., 0]}),
            "occupation": OccupationObserver(eps),
            "hits": HitObserver(BoundaryQuery("rank_hits", k=params.d).band, eps),
            "wealth": WealthObserver(lambda x: growth_optimal_theta(x, params, 1),
                                     params.sigma),
        }
        return run_paths(params, x0, n_steps * dt, dt, seed, n_paths=n_paths,
                         observers=observers, block_steps=steps).observations

    got, ref = run(block_steps), run(n_steps)
    for key in ("gap_fraction", "min_weight_fraction", "triple_fraction"):
        assert np.array_equal(got["occupation"][key], ref["occupation"][key])
    assert np.array_equal(got["hits"], ref["hits"])
    assert np.array_equal(got["wealth"]["n_guarded"], ref["wealth"]["n_guarded"])
    floats = [(got["time_averages"][k], ref["time_averages"][k]) for k in ("y1", "x1")]
    floats += [(got["wealth"][k], ref["wealth"][k]) for k in ("log_wealth",)]
    for a, b in floats:
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


_C = sde.PATH_CHUNK


@requires_cc
@settings(max_examples=15, deadline=None)
@given(params=_models, n_paths=st.sampled_from([1, _C - 1, _C, _C + 1, 2 * _C + 3]),
       n_steps=st.integers(5, 60), block_steps=st.integers(1, 40),
       seed=st.integers(0, 2 ** 64 - 1))
def test_paths_independent_of_chunks_and_kernel(params, n_paths, n_steps, block_steps, seed):
    # dt = 0.2 clips: the compiled kernel in PATH_CHUNK chunks, the numpy
    # kernel on the whole batch, and one run per path agree exactly
    compiled_kernel()
    x0 = np.full(params.d, 1.0 / params.d)
    dt, eps = 0.2, (0.2, 1e-2, 1e-4)

    def run(count, offset=0):
        observers = {
            "time_averages": TimeAverageObserver({"y1": lambda s: s.max(axis=-1)}),
            "occupation": OccupationObserver(eps),
            "hits": HitObserver(BoundaryQuery("rank_hits", k=params.d).band, eps),
        }
        batch = run_paths(params, x0, n_steps * dt, dt, seed, n_paths=count, store=True,
                          observers=observers, block_steps=block_steps, path_offset=offset)
        obs = batch.observations
        return [np.stack([path.states for path in batch.paths]), batch.n_projected,
                obs["time_averages"]["y1"], obs["hits"].T,
                obs["occupation"]["gap_fraction"].transpose(2, 0, 1),
                obs["occupation"]["min_weight_fraction"].T]

    compiled = run(n_paths)
    if n_paths >= _C:
        assert compiled[1].sum() > 0                 # the clip branch ran
    per_path = [np.concatenate(parts) for parts in zip(*(run(1, i) for i in range(n_paths)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        numpy_run = run(n_paths)
    for got, ref, whole in zip(compiled, per_path, numpy_run):
        assert np.array_equal(got, ref)
        assert np.array_equal(got, whole)


class _LastRow(PathObserver):
    """Each path's last state with the names on the first axis, and its
    step count; the results merge by the base rule.  ``sizes`` is shared by
    the per-chunk copies and records the width of each chunk."""

    def __init__(self):
        self.sizes = []

    def start(self, states, dt):
        self.sizes.append(states.shape[0])
        self._x = states.T.copy()
        self._steps = np.zeros(states.shape[0], dtype=np.int64)

    def update(self, states, low):
        self._x = states[-1].T.copy()
        self._steps += states.shape[0] - 1

    def result(self):
        return {"x": self._x, "steps": self._steps}


def _leaves(obs, prefix=()):
    for key, value in obs.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,), value


@requires_cc
@pytest.mark.parametrize("n_paths", [_C + 1, 2 * _C + 3])
def test_observer_results_merge_by_path_index(n_paths):
    # every chunk feeds its own observer copies; the merged results equal
    # one run per path
    compiled_kernel()
    p = ModelParams(a=[1.0, 0.5, 0.5, 0.2], gamma=[0.3, 0.2, 0.1, 0.0], sigma=1.2)
    x0 = np.full(p.d, 1.0 / p.d)
    eps = (0.2, 1e-2, 1e-4)

    def run(count, offset=0):
        last = _LastRow()
        observers = {"wealth": WealthObserver(lambda x: growth_optimal_theta(x, p, 1),
                                              p.sigma),
                     "occupation": OccupationObserver(eps),
                     "hits": HitObserver(BoundaryQuery("rank_hits", k=p.d).band, eps),
                     "last_row": last}
        batch = run_paths(p, x0, 0.15, 1e-3, 9, n_paths=count, observers=observers,
                          block_steps=40, path_offset=offset)
        return batch, last.sizes

    batch, sizes = run(n_paths)
    assert sizes == [_C] * (n_paths // _C) + [n_paths % _C]
    merged = dict(_leaves(batch.observations))
    singles = [dict(_leaves(run(1, i)[0].observations)) for i in range(n_paths)]
    assert set(merged) == set(singles[0])
    for key, value in merged.items():
        assert np.array_equal(value, np.concatenate([one[key] for one in singles], axis=-1))
    assert np.array_equal(merged[("last_row", "x")], batch.final_states.T)
    assert merged[("hits",)].any() and not merged[("hits",)].all()


def _hit_ladders(p):
    band = BoundaryQuery("rank_hits", k=p.d).band
    return {"coarse": HitObserver(band, (0.2,)), "fine": HitObserver(band, (1e-2, 1e-4))}


def _wealth_strategies(p):
    # the growth-optimal strategy of the simulated model and that of a rival
    rival = rank_jacobi([1.8, 1.2, 1.5])
    return {"optimal": WealthObserver(lambda x: growth_optimal_theta(x, p, 1), p.sigma),
            "rival": WealthObserver(lambda x: growth_optimal_theta(x, rival, 1), p.sigma)}


@pytest.mark.parametrize("pair", [_hit_ladders, _wealth_strategies],
                         ids=["hit-ladders", "wealth-strategies"])
def test_two_observers_of_one_type_share_a_run(pair):
    # each key holds exactly what its observer reports alone on the same seed
    p = rank_jacobi([1.5, 1.5, 1.5])
    observers = pair(p)

    def run(chosen):
        return run_paths(p, np.full(p.d, 1.0 / p.d), 0.5, 1e-3, 9, n_paths=_C + 1,
                         observers=chosen).observations

    both = dict(_leaves(run(observers)))
    alone = {}
    for key, ob in observers.items():
        alone.update(_leaves(run({key: ob})))
    assert both.keys() == alone.keys()
    for leaf, value in both.items():
        assert np.array_equal(value, alone[leaf])
    first, second = ([v for leaf, v in both.items() if leaf[0] == key] for key in observers)
    assert not all(np.array_equal(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("block_steps", [0, -3, 2.5])
def test_run_paths_rejects_block_steps_below_one(block_steps):
    # with 0 each block would advance no step, so the loop would never end
    p = rank_jacobi([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="block_steps"):
        run_paths(p, np.full(3, 1.0 / 3.0), 0.01, 1e-3, 1, block_steps=block_steps)


@requires_cc
@settings(max_examples=15, deadline=None)
@given(params=_models, n_paths=st.integers(1, 6), threads=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32))
def test_parallel_batches_independent_of_thread_count(params, n_paths, threads, seed):
    compiled_kernel()
    x0 = np.full(params.d, 1.0 / params.d)

    def run(workers):
        batch = _parallel_batches(
            params, x0, 0.1, 1e-3, seed, n_paths, workers,
            {"time_averages": TimeAverageObserver({"y1": lambda s: s.max(axis=-1)})})
        return (batch.final_states, batch.n_projected,
                batch.observations["time_averages"]["y1"])

    for got, ref in zip(run(threads), run(1)):
        assert np.array_equal(got, ref)


def test_substream_labels_sharing_a_prefix_get_distinct_streams():
    labels = ["invariant-dirichlet", "invariant-spacing", "invariant-mcmc", "invariant-mixture",
              "acceptance-foc", "acceptance-c6", "acceptance-c11", "pd-sticks"]
    firsts = {tuple(substream(7, label).random(4)) for label in labels}
    assert len(firsts) == len(labels)
    assert substream(7, "pd-sticks").random(4).tolist() == \
        substream(7, "pd-sticks").random(4).tolist()
    assert substream(7, "pd-sticks").random() != substream(8, "pd-sticks").random()
