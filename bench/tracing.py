"""Spans and counters recorded around the public functions of each layer.

``install`` replaces each traced function in every ``openjacobi`` module
namespace that binds it (``run_paths`` lives in ``sde``, ``invariant``,
``boundary`` and the package) and ``uninstall`` puts the originals back,
so untraced runs execute the program unmodified.  Two proxies reach
below the public functions without editing the program: the Philox
streams that ``sde.path_stream`` returns, whose ``standard_normal`` calls
are timed, and ``openjacobi.simplex.integrate``, whose ``quad`` calls and
integrand evaluations are counted.

Spans stay in memory.  A span records name, start, end, parent span,
operation id and thread.  Parent stacks are per thread; a worker thread's
outermost span takes the running ``cli.run`` span as its parent, so pool
workers nest under the operation that started them.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# (name, unit, better) of every per-layer metric, in report order.  Metric
# names must start with a letter or digit, so the ``_util`` layer reports as
# ``util.*``.
PER_LAYER = [
    ("sde.kernel_s", "s", "lower"),
    ("sde.path_steps", "count", "lower"),
    ("sde.path_steps_per_s", "1/s", "higher"),
    ("sde.normals_s", "s", "lower"),
    ("sde.projected_frac", "ratio", "lower"),
    ("sde.hit_update_s", "s", "lower"),
    ("boundary.mc_hit_frequency_s", "s", "lower"),
    ("portfolio.wealth_update_s", "s", "lower"),
    ("portfolio.guarded_steps", "count", "lower"),
    ("portfolio.robust_growth_rate_s.mc", "s", "lower"),
    ("portfolio.robust_growth_rate_s.quadrature", "s", "lower"),
    ("cli.parallelism", "ratio", "higher"),
    ("cli.command_s.growth", "s", "lower"),
    ("cli.command_s.boundary", "s", "lower"),
    ("cli.command_s.invariant", "s", "lower"),
    ("cli.command_s.pd", "s", "lower"),
    ("invariant.sample_s.spacing", "s", "lower"),
    ("invariant.draws_per_s.spacing", "1/s", "higher"),
    ("invariant.spacing_acceptance", "ratio", "higher"),
    ("invariant.sample_s.mcmc", "s", "lower"),
    ("invariant.draws_per_s.mcmc", "1/s", "higher"),
    ("invariant.mcmc_ess_per_draw", "ratio", "higher"),
    ("simplex.monomial_integral_s", "s", "lower"),
    ("simplex.monomial_integral_calls", "count", "lower"),
    ("simplex.quad_calls", "count", "lower"),
    ("simplex.integrand_evals", "count", "lower"),
    ("pdlimit.pd_sample_s", "s", "lower"),
    ("pdlimit.sticks", "count", "lower"),
    ("pdlimit.sticks_per_s", "1/s", "higher"),
    ("pdlimit.power_sum_s", "s", "lower"),
    ("pdlimit.moment_recursion_s", "s", "lower"),
    ("util.write_csv_s", "s", "lower"),
    ("util.csv_rows", "count", "lower"),
    ("util.write_json_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("sde.path_steps", "simplex.quad_calls", "simplex.integrand_evals",
                "pdlimit.sticks", "util.csv_rows", "portfolio.guarded_steps")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    cpu: float           # thread CPU seconds spent inside the span
    parent: int | None
    op: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list = []

    # -- spans and counters -------------------------------------------------

    def enter(self):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if stack:
            parent, op = stack[-1]
        elif self._root is not None:
            parent = op = self._root
        else:
            parent, op = None, span_id
            self._root = span_id
        stack.append((span_id, op))
        return span_id, parent, op, time.perf_counter(), time.thread_time()

    def exit(self, token, name):
        end, cpu_end = time.perf_counter(), time.thread_time()
        span_id, parent, op, start, cpu_start = token
        self._local.stack.pop()
        if self._root == span_id:
            self._root = None
        self.spans.append(Span(span_id, name, start, end, cpu_end - cpu_start, parent, op,
                               threading.get_ident()))

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    # -- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "openjacobi" or mod_name.startswith("openjacobi."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, replacement)

    def wrap(self, fn, label, on_result=None):
        """Wrapper that records a span named ``label(args, result)`` and
        passes a returned result to ``on_result``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(token, label(args, result))
                if on_result is not None and result is not None:
                    on_result(result)

        return traced

    def install(self, oj):
        """Trace the layers of the imported package ``oj``."""
        sde, inv, pf, bd = oj.sde, oj.invariant, oj.portfolio, oj.boundary
        pdl, cli, util, simplex = oj.pdlimit, oj.cli, oj._util, oj.simplex

        def fixed(name):
            return lambda args, result: name

        def by_method(prefix):
            return lambda args, result: f"{prefix}.{getattr(result, 'method', 'failed')}"

        def run_paths_done(batch):
            self.count("sde.path_steps", batch.n_steps * batch.n_paths)
            self.count("sde.projected", int(batch.n_projected.sum()))
            wealth_obs = batch.observations.get("wealth")
            if wealth_obs is not None:
                self.count("portfolio.guarded_steps", int(wealth_obs["n_guarded"].sum()))

        def sample_done(sample):
            self.count(f"sample.{sample.method}.draws", sample.n)
            if sample.acceptance_rate:
                self.count(f"sample.{sample.method}.proposed", sample.n / sample.acceptance_rate)
            if sample.ess is not None:
                self.count(f"sample.{sample.method}.ess", sample.ess)

        write_csv = util.write_csv

        def write_csv_counting(path, header, rows):
            n = 0

            def counted():
                nonlocal n
                for row in rows:
                    n += 1
                    yield row

            write_csv(path, header, counted())
            self.count("util.csv_rows", n)

        functions = [
            (cli.run, lambda args, result: f"cli.run.{args[0][0]}", None),
            (sde.run_paths, fixed("sde.run_paths"), run_paths_done),
            (bd.mc_hit_frequency, fixed("boundary.mc_hit_frequency"), None),
            (pf.robust_growth_rate, by_method("portfolio.robust_growth_rate"), None),
            (inv.sample_invariant, by_method("invariant.sample_invariant"), sample_done),
            (simplex.monomial_integral, fixed("simplex.monomial_integral"),
             lambda result: self.count("simplex.monomial_integral_calls")),
            (pdl.pd_sample, fixed("pdlimit.pd_sample"),
             lambda result: self.count("pdlimit.sticks", result.weights.size)),
            (pdl.power_sum, fixed("pdlimit.power_sum"), None),
            (pdl.moment_recursion, fixed("pdlimit.moment_recursion"), None),
            (util.write_json, fixed("_util.write_json"), None),
        ]
        for fn, label, on_result in functions:
            self._patch_everywhere(fn, self.wrap(fn, label, on_result))
        self._patch_everywhere(write_csv, self.wrap(write_csv_counting, fixed("_util.write_csv")))
        for cls, name in ((sde.HitObserver, "sde.HitObserver.update"),
                          (pf.WealthObserver, "portfolio.WealthObserver.update")):
            self._patch(cls, "update", self.wrap(cls.update, fixed(name)))

        make_stream = sde.path_stream
        self._patch(sde, "path_stream",
                    lambda *args, **kwargs: TimedStream(make_stream(*args, **kwargs), self))
        self._patch(simplex, "integrate", CountingIntegrate(simplex.integrate, self))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class TimedStream:
    """A numpy Generator whose ``standard_normal`` calls are spans."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        token = self._tracer.enter()
        try:
            return self._generator.standard_normal(*args, **kwargs)
        finally:
            self._tracer.exit(token, "sde.normals")

    def __getattr__(self, name):
        return getattr(self._generator, name)


class CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``openjacobi.simplex``,
    counting ``quad`` calls and integrand evaluations.

    The evaluation count is a plain increment without the lock: quadrature
    runs on the calling thread only, never inside the CLI's worker pool.
    """

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def quad(self, func, *args, **kwargs):
        counts = self._tracer.counts
        self._tracer.count("simplex.quad_calls")

        def counted(*xs):
            counts["simplex.integrand_evals"] += 1
            return func(*xs)

        return self._module.quad(counted, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------
#
# ``run_paths`` and the spans under it may run in the CLI's worker threads,
# where wall time would also count the time a worker waits for the GIL
# while the other one computes.  Their times are therefore thread CPU
# times; every other time is wall time on the calling thread.

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, without ``trace.overhead_frac``."""
    spans = tracer.spans
    c = tracer.counts
    wall = defaultdict(float)
    cpu = defaultdict(float)
    child_cpu = defaultdict(float)
    runs = defaultdict(list)
    for s in spans:
        wall[s.name] += s.end - s.start
        cpu[s.name] += s.cpu
        child_cpu[s.parent] += s.cpu
        if s.name == "sde.run_paths":
            runs[s.op].append(s)
    run_spans = [s for group in runs.values() for s in group]
    kernel = sum(s.cpu - child_cpu[s.id] for s in run_spans)
    span_wall = sum(max(s.end for s in g) - min(s.start for s in g) for g in runs.values())

    steps = c["sde.path_steps"]
    spacing_s = wall["invariant.sample_invariant.spacing"]
    mcmc_s = wall["invariant.sample_invariant.mcmc"]
    pd_s = wall["pdlimit.pd_sample"]
    return {
        "sde.kernel_s": kernel,
        "sde.path_steps": steps,
        "sde.path_steps_per_s": _ratio(steps, kernel),
        "sde.normals_s": cpu["sde.normals"],
        "sde.projected_frac": _ratio(c["sde.projected"], steps),
        "sde.hit_update_s": cpu["sde.HitObserver.update"],
        "boundary.mc_hit_frequency_s": wall["boundary.mc_hit_frequency"],
        "portfolio.wealth_update_s": cpu["portfolio.WealthObserver.update"],
        "portfolio.guarded_steps": c["portfolio.guarded_steps"],
        "portfolio.robust_growth_rate_s.mc": wall["portfolio.robust_growth_rate.mc"],
        "portfolio.robust_growth_rate_s.quadrature":
            wall["portfolio.robust_growth_rate.quadrature"],
        "cli.parallelism": _ratio(sum(s.cpu for s in run_spans), span_wall),
        "cli.command_s.growth": wall["cli.run.growth"],
        "cli.command_s.boundary": wall["cli.run.boundary"],
        "cli.command_s.invariant": wall["cli.run.invariant"],
        "cli.command_s.pd": wall["cli.run.pd"],
        "invariant.sample_s.spacing": spacing_s,
        "invariant.draws_per_s.spacing": _ratio(c["sample.spacing.draws"], spacing_s),
        "invariant.spacing_acceptance":
            _ratio(c["sample.spacing.draws"], c["sample.spacing.proposed"]),
        "invariant.sample_s.mcmc": mcmc_s,
        "invariant.draws_per_s.mcmc": _ratio(c["sample.mcmc.draws"], mcmc_s),
        "invariant.mcmc_ess_per_draw": _ratio(c["sample.mcmc.ess"], c["sample.mcmc.draws"]),
        "simplex.monomial_integral_s": wall["simplex.monomial_integral"],
        "simplex.monomial_integral_calls": c["simplex.monomial_integral_calls"],
        "simplex.quad_calls": c["simplex.quad_calls"],
        "simplex.integrand_evals": c["simplex.integrand_evals"],
        "pdlimit.pd_sample_s": pd_s,
        "pdlimit.sticks": c["pdlimit.sticks"],
        "pdlimit.sticks_per_s": _ratio(c["pdlimit.sticks"], pd_s),
        "pdlimit.power_sum_s": wall["pdlimit.power_sum"],
        "pdlimit.moment_recursion_s": wall["pdlimit.moment_recursion"],
        "util.write_csv_s": wall["_util.write_csv"],
        "util.csv_rows": c["util.csv_rows"],
        "util.write_json_s": wall["_util.write_json"],
    }


def median_metrics(passes: list[dict]) -> dict:
    """Median over passes; counts take the lower median, so they stay exact."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        name: (statistics.median_low if units[name] == "count" else statistics.median)(
            p[name] for p in passes)
        for name in passes[0]
    }
