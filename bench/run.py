"""openjacobi benchmark: CLI workloads run in-process, timed, then checked.

Run from the repository root:

    python3 bench/run.py --workload growth-backtest --seed 1 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``.  Each pass calls
``openjacobi.cli.run(argv)`` once per operation of the workload, in this
process; only the CLI's own ``--threads`` pool runs beside it.  Passes
repeat on the same seeded configs until ``--seconds`` would be exceeded
(at least three passes).  All output checks run after the timed passes.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median over three set-ups (this process plus two fresh
  interpreters) of importing ``openjacobi``, writing the seeded configs and
  one tiny warm-up call into each layer the workload uses;
* ``wall_s``: median wall time of one pass over the workload's operations;
* ``peak_rss_mb``: peak resident memory of this process after the passes.

With ``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics of ``bench/tracing.py``: medians over the
traced passes, plus ``trace.overhead_frac`` from the pass wall times.

A fuller report with provenance, per-pass times, check failures and
output digests (for information only) is written under ``.bench_work/``.
The exit code is 0 when every operation passed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
E2E = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

from tracing import PER_LAYER, Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class OpResult:
    op: object
    code: object          # CLI exit code, or the text of an escaped exception
    out: Path
    seconds: float
    cpu_seconds: float    # process CPU time, all threads


@dataclass
class Pass:
    results: list
    tracer: Tracer | None = None

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def cpu(self) -> float:
        return sum(r.cpu_seconds for r in self.results)


class Session:
    """One workload in this process: its configs, warm-up and passes."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.ops = []
        self.oj = None
        self.passes: list[Pass] = []

    def setup(self) -> float:
        """Import, write configs, warm up; returns the seconds it took."""
        start = time.perf_counter()
        import openjacobi
        import openjacobi.cli

        if not Path(openjacobi.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"openjacobi imported from {openjacobi.__file__}, not {SRC}")
        self.oj = openjacobi
        self.ops = self.workload.build(self.seed, self.tiny)
        configs = self.work / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            (configs / f"{op.name}.json").write_text(json.dumps(op.config, indent=1))
        warm = self.work / "warm-up"
        warm.mkdir(exist_ok=True)
        self.workload.warm_up(openjacobi.cli, warm, self.seed)
        return time.perf_counter() - start

    def run_pass(self, tracer: Tracer | None = None) -> None:
        index = len(self.passes)
        gc.collect()
        results = []
        if tracer is not None:
            tracer.install(self.oj)
        try:
            for op in self.ops:
                out = self.work / f"pass{index:03d}" / op.name
                argv = [op.command, "--config", str(self.work / "configs" / f"{op.name}.json"),
                        "--out", str(out), "--threads", str(op.threads)]
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    code = self.oj.cli.run(argv)
                except Exception:        # an escaped exception is a failed operation
                    code = traceback.format_exc(limit=3)
                results.append(OpResult(op, code, out, time.perf_counter() - start,
                                        time.process_time() - cpu_start))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.passes.append(Pass(results, tracer))

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat passes (untraced/traced pairs with ``trace``) until the
        next one would end after ``seconds``."""
        start = time.perf_counter()
        unit_times = []
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            if trace:
                self.run_pass(Tracer())
            unit_times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if (len(unit_times) >= (1 if trace else MIN_PASSES)
                    and elapsed + statistics.median(unit_times) > seconds):
                return

    def check(self) -> list[str]:
        """Check every operation of every pass; returns failure lines."""
        refs = self.workload.references(self.ops, self.seed, self.tiny)
        failures = []
        for i, p in enumerate(self.passes):
            for r in p.results:
                if isinstance(r.code, str):
                    reason = "exception: " + r.code.strip().splitlines()[-1]
                else:
                    try:
                        reason = r.op.check(r.op, r.code, r.out, refs)
                    except (OSError, KeyError, ValueError, TypeError) as exc:
                        reason = f"unreadable output: {exc!r}"
                if reason is not None:
                    failures.append(f"pass {i} {r.op.name}: {reason}")
        return failures

    def digests(self) -> dict:
        """Output digest per operation (outside ``meta``), for information."""
        seen: dict = {}
        for p in self.passes:
            for r in p.results:
                seen.setdefault(r.op.name, set()).add(output_digest(r.out))
        return {name: sorted(d) for name, d in seen.items()}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    if not out.is_dir():
        return "missing"
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("meta", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()[:16]


def git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(load_1min: float) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "openjacobi").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "load_1min_at_start": load_1min,
        "machine": platform.machine(),
    }


def setup_in_fresh_interpreter(workload: str, seed: int, work: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cpu_steal():
    """(steal, total) jiffies of the machine from /proc/stat, or None.

    On a virtual machine, steal is time the host gave this machine's CPUs
    to others; it inflates wall times and is recorded to explain spread.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_fraction(start, end):
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (bench/selftest.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_1min = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "openjacobi" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no openjacobi sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = args.work or WORK / run_id
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(args.workload, args.seed, work, tiny=args.tiny)
        own_setup = session.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(setup_in_fresh_interpreter(
                    args.workload, args.seed, work / f"setup-{i + 1}"))

        steal_start = cpu_steal()
        session.measure(args.seconds, bool(args.trace))
        steal_end = cpu_steal()
        peak = peak_rss_mb()
        failures = session.check()
        attempted = sum(len(p.results) for p in session.passes)
        failed = len(failures)

        untraced = [p for p in session.passes if p.tracer is None]
        traced = [p for p in session.passes if p.tracer is not None]
        if args.trace:
            values = median_metrics([layer_metrics(p.tracer) for p in traced])
            base = statistics.median(p.wall for p in untraced)
            values["trace.overhead_frac"] = (
                statistics.median(p.wall for p in traced) - base) / base
            units = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(p.wall for p in untraced),
                      "peak_rss_mb": peak}
            units = E2E
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

        report = {
            "workload": args.workload,
            "shape": session.workload.shape,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(load_1min),
            "cpu_steal_frac_during_passes": steal_fraction(steal_start, steal_end),
            "setup_s_samples": setups,
            "passes": [{"traced": p.tracer is not None, "wall_s": p.wall, "cpu_s": p.cpu,
                        "ops_s": {r.op.name: r.seconds for r in p.results}}
                       for p in session.passes],
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failures": failures,
            "output_digests": session.digests(),
            "metrics": metrics,
        }
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)

    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{run_id}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        with open(reports / f"{run_id}-spans.jsonl", "w") as fh:
            for n, p in enumerate(traced):
                for s in p.tracer.spans:
                    fh.write(json.dumps({"pass": n, **s._asdict()}) + "\n")
    for line in failures:
        print(f"FAILED {line}")
    print(f"report: {(reports / f'{run_id}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
