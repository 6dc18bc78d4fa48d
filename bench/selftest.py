"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

It checks that ``BENCHMARK.json`` names the workloads and metrics the
runner prints; that every workload passes its output checks through
``run.py`` with tracing off and on; that the exact counts repeat across two
traced runs at one seed; that each workload bypasses the layers it should;
that every output check fails on a deliberately corrupted output; and that
the runner fails without printing a result when the sources are absent.
Exits 0 when everything holds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import E2E, ROOT, SRC, WORK, Session
from tracing import EXACT_COUNTS, PER_LAYER
from workloads import (
    WORKLOADS,
    check_backtest,
    check_boundary,
    check_mcmc,
    check_pd,
    check_quadrature,
)

SEED = 11
BENCH = Path(__file__).resolve().parent
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, proc.stderr


# ---------------------------------------------------------------------------
# corrupted outputs, one list per check
# ---------------------------------------------------------------------------

def edit_json(name, edit):
    def apply(out: Path):
        doc = json.loads((out / name).read_text())
        edit(doc["results"])
        (out / name).write_text(json.dumps(doc))
    return apply


def edit_csv(name, edit):
    def apply(out: Path):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        rows = [rows[0]] + edit(rows[1:])
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return apply


def _bump_recursion(rows):
    rows[0][1] = str(float(rows[0][1]) + 1.0)
    return rows


CORRUPTIONS = {
    check_backtest: {
        "rate far from lambda_hat": edit_json("growth_report.json", lambda r: r["backtest"].update(
            mean_rate=r["robust_growth"]["lambda_hat"] + 100.0)),
        "a guarded step": edit_json("growth_report.json",
                                    lambda r: r["backtest"]["n_guarded"].__setitem__(0, 1)),
        "projection rate 2%": edit_json("growth_report.json",
                                        lambda r: r["backtest"].update(projection_rate=0.02)),
    },
    check_boundary: {
        "flipped verdict": edit_json("boundary_verdict.json", lambda r: r.update(
            analytic_avoids=not r["analytic_avoids"])),
        "rising frequencies": edit_json("boundary_verdict.json", lambda r: r.update(
            frequency=[0.1, 0.2, 0.3], ci_lo=[0.0] * 3, ci_hi=[1.0] * 3)),
        "frequency outside its interval": edit_json("boundary_verdict.json", lambda r: r.update(
            frequency=[0.9] * 3, ci_lo=[0.0] * 3, ci_hi=[0.5] * 3)),
        "under-resolved": edit_json("boundary_verdict.json",
                                    lambda r: r.update(under_resolved=True)),
    },
    check_mcmc: {
        "sampler warning": edit_json("invariant_report.json",
                                     lambda r: r.update(warnings=["low ESS"])),
        "draws at a vertex": edit_csv("invariant_samples.csv",
                                      lambda rows: [["1", "0", "0"] for _ in rows]),
        "missing draws": edit_csv("invariant_samples.csv", lambda rows: rows[:-1]),
    },
    check_quadrature: {
        "lambda_hat off by 1": edit_json("growth_report.json", lambda r: r["robust_growth"].update(
            lambda_hat=r["robust_growth"]["lambda_hat"] + 1.0)),
    },
    check_pd: {
        "recursion off by 1": edit_csv("pd_moments.csv", _bump_recursion),
        "no rows": edit_csv("pd_moments.csv", lambda rows: []),
    },
}


def test_checks(name: str, work: Path) -> None:
    session = Session(name, SEED, work / name, tiny=True)
    session.setup()
    session.run_pass()
    refs = session.workload.references(session.ops, SEED, True)
    for r in session.passes[0].results:
        reason = r.op.check(r.op, r.code, r.out, refs)
        expect(reason is None, f"{r.op.name}: check passes on real output ({reason})")
        expect(r.op.check(r.op, 3, r.out, refs) is not None, f"{r.op.name}: exit code 3 fails")
        for what, corrupt in CORRUPTIONS[r.op.check].items():
            bad = r.out.with_name(r.out.name + "-corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(r.out, bad)
            corrupt(bad)
            reason = r.op.check(r.op, 0, bad, refs)
            expect(reason is not None, f"{r.op.name}: {what} fails ({reason})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json lists the runner's workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E,
           "BENCHMARK.json lists the runner's end-to-end metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER,
           "BENCHMARK.json lists the runner's per-layer metrics")

    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    for name in WORKLOADS:
        code, result, err = run_bench(name, 0)
        expect(code == 0 and result is not None and result["correct"]
               and [m for m in result["metrics"]] == [n for n, _ in E2E],
               f"{name}: untraced run passes and reports the end-to-end metrics {err[-300:]}")
        traced = []
        for _ in range(2):
            code, result, err = run_bench(name, 1)
            ok = code == 0 and result is not None and result["correct"]
            expect(ok and list(result["metrics"]) == [n for n, _, _ in PER_LAYER],
                   f"{name}: traced run passes and reports the per-layer metrics {err[-300:]}")
            if ok:
                traced.append({k: v["value"] for k, v in result["metrics"].items()})
        if len(traced) == 2:
            for count in EXACT_COUNTS:
                expect(traced[0][count] == traced[1][count],
                       f"{name}: {count} repeats ({traced[0][count]}, {traced[1][count]})")
            m = traced[0]
            if name == "stationary-laws":
                expect(m["sde.path_steps"] == 0 and m["simplex.quad_calls"] > 0,
                       f"{name}: runs quadrature and no Euler steps")
            else:
                expect(m["simplex.quad_calls"] == 0 and m["sde.path_steps"] > 0,
                       f"{name}: runs Euler steps and no quadrature")
        test_checks(name, work)

    stripped = work / "stripped"
    shutil.copytree(BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    code, result, _ = run_bench("growth-backtest", 0, cwd=stripped)
    expect(code != 0 and result is None, "without the sources: nonzero exit and no result")
    shutil.rmtree(work, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
