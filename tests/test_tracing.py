"""The benchmark tracer (``bench/tracing.py``) finds every function it
patches, and uninstalling it restores the package exactly."""

import importlib.util
import sys
from pathlib import Path

import openjacobi
import openjacobi.cli  # noqa: F401  (the tracer patches the CLI too)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# where each traced function or method is defined
TARGETS = [
    ("openjacobi.cli", "run"),
    ("openjacobi.sde", "run_paths"),
    ("openjacobi.sde", "path_stream"),
    ("openjacobi.boundary", "mc_hit_frequency"),
    ("openjacobi.invariant", "sample_invariant"),
    ("openjacobi.portfolio", "robust_growth_rate"),
    ("openjacobi.pdlimit", "pd_sample"),
    ("openjacobi.pdlimit", "power_sum"),
    ("openjacobi.pdlimit", "moment_recursion"),
    ("openjacobi.simplex", "monomial_integral"),
    ("openjacobi.simplex", "integrate"),
    ("openjacobi._util", "write_json"),
    ("openjacobi._util", "write_csv"),
    ("HitObserver", "update"),
    ("WealthObserver", "update"),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("openjacobi_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in an ``openjacobi`` module and the traced observer
    classes, by identity."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "openjacobi" or name.startswith("openjacobi.")]
    owners += [openjacobi.sde.HitObserver, openjacobi.portfolio.WealthObserver]
    return {(o.__name__, attr): value
            for o in owners for attr, value in list(vars(o).items())}


def test_tracer_patches_every_target_and_uninstall_restores_the_package():
    before = _bindings()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(openjacobi)
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patches}
        missing = [t for t in TARGETS if t not in patched]
        assert not missing, f"tracer no longer patches {missing}"
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"uninstall left {changed} patched"
