import itertools
import tracemalloc

import numpy as np
import pytest

from openjacobi import (
    BoundaryQuery,
    ModelParams,
    mc_hit_frequency,
    nameset_avoids_zero,
    rank_avoids_zero,
    rank_pushed_only,
    run_paths,
)
from openjacobi import _kernel
from openjacobi.sde import HitObserver, PathObserver


def rank_jacobi(a, sigma=1.0):
    a = np.asarray(a, dtype=float)
    return ModelParams(a=a, gamma=np.zeros(a.size), sigma=sigma)


# ---------------------------------------------------------------------------
# analytic verdicts
# ---------------------------------------------------------------------------

def test_rank_avoids_zero_symmetric_gamma_threshold():
    d = 5
    for k in range(2, d + 1):
        threshold = 1.0 / (d - k + 1)
        below = ModelParams(a=np.zeros(d), gamma=np.full(d, threshold - 1e-9))
        above = ModelParams(a=np.zeros(d), gamma=np.full(d, threshold + 1e-9))
        assert not rank_avoids_zero(below, k)
        assert rank_avoids_zero(above, k)


def test_rank_avoids_zero_bottom_loaded_tail():
    d = 4
    for eta, expected in [(1.0, True), (1.5, True), (0.9, False)]:
        a = np.zeros(d)
        a[-1] = eta
        p = rank_jacobi(a)
        assert all(rank_avoids_zero(p, k) for k in range(2, d + 1)) is expected


def test_rank_verdicts_large_negative_top_entry():
    # tails (1/2, 3/2, ..., 3/2): rank 2 hits, deeper ranks are pushed only
    d = 4
    a = np.zeros(d)
    a[0], a[1], a[-1] = -1e6, -1.0, 1.5
    p = rank_jacobi(a)
    assert not rank_avoids_zero(p, 2)
    assert not rank_avoids_zero(p, 3)        # conjunction over l <= k
    assert rank_pushed_only(p, 3)
    assert rank_pushed_only(p, 4)
    assert not rank_pushed_only(p, 2)


def test_rank_pushed_only_non_strict_threshold():
    p = rank_jacobi([0.5, 0.5, 0.5])          # tail at k = 3 exactly... 0.5 < 1
    assert not rank_pushed_only(p, 3)
    q = rank_jacobi([1.0, 0.5, 0.5])          # tail at k = 2 exactly 1
    assert rank_pushed_only(q, 2)


def test_rank_monotonicity_in_k():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(3, 8)
        p = ModelParams(a=rng.normal(size=d), gamma=rng.normal(size=d))
        if not np.all(p.tail_margins() > 0.0):
            continue
        verdicts = [rank_avoids_zero(p, k) for k in range(2, d + 1)]
        # once false, stays false for larger k
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later


def test_nameset_verdicts_mixed_example():
    p = ModelParams(a=[0.0, -1 / 3, 1 / 2], gamma=[1 / 2, 1 / 3, 1 / 4])
    assert nameset_avoids_zero(p, [1, 2])        # binding value exactly 1
    assert not nameset_avoids_zero(p, [1, 3])    # 11/12
    assert not nameset_avoids_zero(p, [2, 3])    # 3/4
    # singletons: X_1 can only vanish together with others
    assert not nameset_avoids_zero(p, [1])
    assert not nameset_avoids_zero(p, [2])
    assert not nameset_avoids_zero(p, [3])


def test_nameset_rank_consistency_for_rank_models():
    # gamma = 0: the verdict depends on |I| only and matches the rank rule
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.integers(3, 7)
        a = rng.uniform(-0.5, 1.5, size=d)
        p = rank_jacobi(a)
        if not np.all(p.tail_margins() > 0.0):
            continue
        for size in range(1, d):
            k = d - size + 1
            verdicts = {
                nameset_avoids_zero(p, names)
                for names in itertools.combinations(range(1, d + 1), size)
            }
            assert len(verdicts) == 1
            assert verdicts.pop() == rank_avoids_zero(p, k)


def test_query_validation():
    with pytest.raises(ValueError):
        BoundaryQuery(kind="bogus")
    with pytest.raises(ValueError):
        BoundaryQuery(kind="rank_hits")
    with pytest.raises(ValueError):
        BoundaryQuery(kind="nameset_hits")
    with pytest.raises(IndexError):
        rank_avoids_zero(rank_jacobi([1.0, 1.0]), 1)
    with pytest.raises(IndexError):
        nameset_avoids_zero(rank_jacobi([1.0, 1.0]), [])


# ---------------------------------------------------------------------------
# Monte Carlo corroboration
# ---------------------------------------------------------------------------

def test_mc_frequency_detects_hits_when_tail_sum_small():
    p = rank_jacobi([1.5, 0.5])
    query = BoundaryQuery(kind="rank_hits", k=2)
    table = mc_hit_frequency(p, query, T=50.0, eps=(1e-2, 1e-3), n_paths=100,
                             dt=1e-3, seed=3)
    assert not table.analytic_avoids
    assert table.frequency[-1] > 0.2


def test_mc_frequency_shrinks_when_tail_sum_large():
    # boundary avoidance is a statement about exact zeros; finite-horizon dip
    # frequencies depend on the volatility time scale, kept moderate here so
    # the trend toward zero is visible at T = 50
    p = rank_jacobi([1.0, 1.5], sigma=0.12)
    query = BoundaryQuery(kind="rank_hits", k=2)
    table = mc_hit_frequency(p, query, T=50.0, eps=(1e-2, 1e-3, 1e-4),
                             n_paths=100, dt=1e-3, seed=4)
    assert table.analytic_avoids
    assert np.all(np.diff(table.frequency) <= 0.0)      # eps ladder decreasing
    assert table.frequency[-1] <= 0.02


def test_mc_frequency_table_shapes_and_csv(tmp_path):
    p = rank_jacobi([1.0, 1.0, 1.0])
    query = BoundaryQuery(kind="nameset_hits", names=(2, 3))
    table = mc_hit_frequency(p, query, T=2.0, eps=(1e-1, 1e-2), n_paths=20,
                             dt=1e-3, seed=5)
    assert table.eps.shape == (2,)
    assert np.all(table.ci_lo <= table.frequency)
    assert np.all(table.frequency <= table.ci_hi)
    out = tmp_path / "freq.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,frequency,ci_lo,ci_hi"
    assert len(lines) == 3


def test_pushed_only_query_counts_separated_dips_only():
    p = rank_jacobi([1.5, 0.5])
    plain = mc_hit_frequency(p, BoundaryQuery(kind="rank_hits", k=2),
                             T=20.0, eps=(1e-3,), n_paths=60, dt=1e-3, seed=6)
    pushed = mc_hit_frequency(p, BoundaryQuery(kind="rank_pushed_only", k=2),
                              T=20.0, eps=(1e-3,), n_paths=60, dt=1e-3, seed=6)
    # in d = 2 a vanishing bottom rank always has the top rank well above eps,
    # so the separated count reproduces the plain count
    assert np.allclose(pushed.frequency, plain.frequency)


def _dips_at(query, x, eps):
    """The dip test of ``query`` at one state x, written out per kind."""
    y = sorted(x, reverse=True)
    names = [i - 1 for i in query.names]
    lam = sum(x[i] for i in names)
    if query.kind == "rank_hits":
        return y[query.k - 1] < eps
    if query.kind == "rank_pushed_only":
        return y[query.k - 1] < eps <= y[query.k - 2]
    if query.kind == "nameset_hits":
        return lam < eps
    return lam < eps <= lam + min(x[j] for j in range(len(x)) if j not in names)


_STEPWISE_QUERIES = {
    "rank_hits": BoundaryQuery("rank_hits", k=3),
    "rank_pushed_only": BoundaryQuery("rank_pushed_only", k=3),
    "nameset_hits": BoundaryQuery("nameset_hits", names=(2, 3)),
    "nameset_pushed_only": BoundaryQuery("nameset_pushed_only", names=(3,)),
    "rank_hits-k2": BoundaryQuery("rank_hits", k=2),
}


@pytest.mark.parametrize("backend, query", [
    pytest.param(backend, query, id=name if backend == "c" else f"numpy-{name}")
    for backend in ("c", "numpy") for name, query in _STEPWISE_QUERIES.items()
])
def test_hit_observer_matches_a_stepwise_check(backend, query, monkeypatch):
    # rank_hits reads the kernel's block minima, so both kernels are checked
    if backend == "numpy":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    elif _kernel.load() is None:
        pytest.skip(f"the compiled Euler kernel is unavailable: {_kernel.failure}")
    p = ModelParams(a=np.array([1.0, 0.8, 0.7]), gamma=np.array([0.2, 0.0, -0.1]))
    eps = (0.1, 3e-2, 1e-2)
    observer = HitObserver(query.band, eps)
    batch = run_paths(p, np.full(3, 1 / 3), T=1.0, dt=1e-3, seed=11, n_paths=12,
                      observers={"hits": observer}, store=True, block_steps=300)
    expected = np.array([[any(_dips_at(query, x.tolist(), e) for x in path.states)
                          for path in batch.paths] for e in observer.eps])
    assert np.array_equal(batch.observations["hits"], expected)
    assert expected.any() and not expected.all()


class _LambdaQV(PathObserver):
    """Terminal realized and model quadratic variation of a name-set sum."""

    def __init__(self, names, sigma):
        self.idx = np.asarray(sorted(names)) - 1
        self.sigma = sigma
        self.realized = None
        self.model = None

    def start(self, states, dt):
        self.realized = np.zeros(states.shape[0])
        self.model = np.zeros(states.shape[0])
        self.dt = dt

    def update(self, states, low):
        dt = self.dt
        lam = states[..., self.idx].sum(axis=-1)
        dlam = np.diff(lam, axis=0)
        self.realized += (dlam * dlam).sum(axis=0)
        left = lam[:-1]
        self.model += (self.sigma ** 2 * left * (1.0 - left)).sum(axis=0) * dt

    def result(self):
        return {"realized": self.realized, "model": self.model}


def test_nameset_sum_quadratic_variation_matches_model():
    # realized QV of a name-set sum tracks sigma^2 * Lambda (1 - Lambda) dt
    p = rank_jacobi([1.0, 1.0, 1.0], sigma=1.2)
    obs = _LambdaQV([1, 3], p.sigma)
    batch = run_paths(p, np.full(3, 1 / 3), T=5.0, dt=1e-3, seed=7,
                      n_paths=50, observers={"lambda_qv": obs})
    realized = batch.observations["lambda_qv"]["realized"].mean()
    model = batch.observations["lambda_qv"]["model"].mean()
    assert abs(realized - model) / model < 0.05


def test_rank_hits_run_holds_one_path_chunk_of_rows():
    # 500 paths x 2048 steps: rows for the whole batch would be 16.4 MB,
    # rows and normals for one PATH_CHUNK-path chunk are about 2 MB
    if _kernel.load() is None:
        pytest.skip(f"the compiled Euler kernel is unavailable: {_kernel.failure}")
    p = rank_jacobi([1.5, 0.5])
    query = BoundaryQuery(kind="rank_hits", k=2)
    mc_hit_frequency(p, query, T=0.01, n_paths=2)          # imports and first-use set-up
    tracemalloc.start()
    try:
        table = mc_hit_frequency(p, query, T=2.048, dt=1e-3, n_paths=500, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n_paths == 500
    assert peak < 4e6
