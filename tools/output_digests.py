"""SHA-256 digests of the CLI outputs on fixed configs, for byte-identity checks.

Runs ``openjacobi.cli.run`` in a temporary directory on the configs below and
prints ``sha256  run/file`` per output and ``exit  run  code  stderr`` per run
(the first 240 characters of stderr, enough for the stick-cap refusal's risk).
JSON reports are hashed without ``meta`` (timestamps, Euler backend).  The
package comes from ``PYTHONPATH``; compare two source trees by diffing runs:

    PYTHONPATH=src python3 tools/output_digests.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/output_digests.py > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from openjacobi.cli import run

RANK3 = {"a": [1.5, 1.5, 1.5], "gamma": [0.0] * 3, "sigma": 1.0}
HYBRID3 = {"a": [1.2, 0.8, 0.6], "gamma": [0.3, -0.1, -0.2], "sigma": 1.0}
HYBRID4 = {"a": [1.5, 1.5, 1.5, 1.5], "gamma": [0.2, -0.1, 0.0, -0.1], "sigma": 1.0}
RANK4 = {"a": [1.0, 1.0, 1.0, 1.5], "gamma": [0.0] * 4, "sigma": 1.0}
SIM = {"T": 2.0, "dt": 1e-3, "paths": 4}
GUARDED = {"a": [1.0, 1.0], "gamma": [0.0, 0.0], "sigma": 3.0}
EDGE3 = {"a": [1.0, 0.8, 0.7], "gamma": [0.2, 0.0, -0.1], "sigma": 1.0}
BACKTESTS = {       # growth backtests, each run at --threads 1 and 2
    "growth-rank": {"seed": 13, "model": RANK3, "open_market_size": 1,
                    "growth": {"n": 20000, "sim": SIM}},
    "growth-hybrid": {"seed": 5, "model": HYBRID4, "open_market_size": 2,
                      "growth": {"sim": SIM}},
    "growth-guarded": {"seed": 3, "model": GUARDED, "open_market_size": 1, "growth": {
        "n": 5000, "sim": {"T": 20.0, "dt": 0.01, "paths": 6}}},
    "growth-rank-long": {"seed": 43, "model": RANK3, "open_market_size": 1,     # 4 blocks
                         "growth": {"n": 2000, "sim": {"T": 7.0, "dt": 1e-3, "paths": 4}}},
    "growth-40-paths": {"seed": 83, "model": RANK3, "open_market_size": 1,  # two path chunks
                        "growth": {"n": 2000, "sim": {"T": 3.0, "dt": 1e-3, "paths": 40}}},
}
BOUNDARY = [  # (name, query) on EDGE3, 5000 steps in three blocks
    ("rank-pushed", {"kind": "rank_pushed_only", "k": 2}),
    ("nameset", {"kind": "nameset_hits", "names": [2, 3]}),
    ("nameset-pushed", {"kind": "nameset_pushed_only", "names": [3]}),
    ("rank-hits-k2", {"kind": "rank_hits", "k": 2}),
]
RUNS = [  # (name, command, config, extra argv)
    ("simulate", "simulate", {"seed": 11, "model": HYBRID3,
                              "sim": {"T": 0.5, "dt": 1e-3, "paths": 2}}, []),
    ("boundary", "boundary", {"seed": 7, "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0]},
                              "boundary": {"k": 2, "T": 5.0, "paths": 40,
                                           "eps": [1e-2, 1e-3]}}, []),
    ("invariant-mcmc", "invariant", {"seed": 19, "model": HYBRID3,
                                     "sampler": {"n": 1000, "method": "mcmc"}}, []),
    ("invariant-spacing", "invariant", {
        "seed": 21, "model": RANK3, "sampler": {"n": 2000, "method": "spacing"},
        "ergodic": {"T": 5.0, "dt": 1e-3, "paths": 2, "functions": ["one", "y1"]}}, []),
    ("invariant-mcmc-ergodic", "invariant", {       # dt = 1e-3 under-resolves HYBRID3
        "seed": 19, "model": HYBRID3, "sampler": {"n": 1000, "method": "mcmc"},
        "ergodic": {"T": 2.0, "dt": 2e-4, "paths": 2, "functions": ["one", "y1", "x1"]}}, []),
    ("invariant-dirichlet-ergodic", "invariant", {
        "seed": 31, "model": {"a": [0.0] * 3, "gamma": [1.0, 2.0, 0.5]},
        "sampler": {"n": 2000, "method": "dirichlet"},
        "ergodic": {"T": 2.0, "dt": 1e-3, "paths": 2, "functions": ["x1", "y1"]}}, []),
    ("invariant-spacing-named", "invariant", {
        "seed": 37, "model": RANK3, "sampler": {"n": 2000, "kind": "named", "method": "spacing"},
        "ergodic": {"T": 10.0, "dt": 1e-3, "paths": 4, "functions": ["x1", "y1"]}}, []),
    ("pd", "pd", {"seed": 17, "pd": {"theta": 1.0, "n": 5000, "max_degree": 4}}, []),
    ("pd-with-M", "pd", {"seed": 17, "pd": {"theta": 1.0, "n": 5000, "max_degree": 4,
                                            "M": 20000}}, []),
    ("pd-theta20", "pd", {"seed": 59, "pd": {"theta": 20.0, "n": 2000}}, []),
    ("limit", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                        "schedule": {"d_list": [10, 40]},
                        "limit": {"n": 5000, "growth": {"sigma": 1.0, "N": 1}}}, []),
    ("limit-functions", "limit", {"seed": 29, "pd": {"theta": 2.0, "tilt": [0.5]},
                                  "schedule": {"d_list": [10, 40]},
                                  "limit": {"n": 5000, "functions": ["phi2", "phi3"]}}, []),
    ("limit-tilt2", "limit", {"seed": 47, "pd": {"theta": 2.0, "tilt": [0.5, 0.3]},
                              "schedule": {"d_list": [10, 40]},
                              "limit": {"n": 5000, "growth": {"sigma": 1.0, "N": 2}}}, []),
    ("limit-untilted", "limit", {"seed": 53, "pd": {"theta": 2.0},
                                 "schedule": {"d_list": [10, 40]},
                                 "limit": {"n": 5000, "growth": {"sigma": 1.0, "N": 0}}}, []),
] + [(f"growth-quad-N{n}", "growth", {"seed": 4, "model": RANK4, "open_market_size": n,
                                      "growth": {"method": "quadrature"}}, []) for n in (1, 3)
     ] + [("growth-no-optimum", "growth", {           # a_bar_2 = 0.8 < 1: exists is false
         "seed": 4, "model": {"a": [1.0, 0.5, 0.3], "gamma": [0.0] * 3},
         "open_market_size": 2, "growth": {"method": "quadrature"}}, [])
     ] + [(f"{name}-t{k}", "growth", cfg, ["--threads", str(k)])
          for name, cfg in BACKTESTS.items() for k in (1, 2)
     ] + [(f"boundary-{name}", "boundary", {"seed": 41, "model": EDGE3, "boundary": {
         **query, "T": 5.0, "paths": 40, "eps": [1e-2, 1e-3, 1e-4]}}, [])
          for name, query in BOUNDARY
     ] + [  # malformed counts: each must run as its integer or exit 2
    ("boundary-float-names", "boundary", {"seed": 41, "model": EDGE3, "boundary": {
        "kind": "nameset_hits", "names": [2.0], "T": 5.0, "paths": 40}}, []),
    ("limit-fractional-d", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                                     "schedule": {"d_list": [10.5, 40]},
                                     "limit": {"n": 5000}}, []),
    ("limit-empty-d", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                                "schedule": {"d_list": []}, "limit": {"n": 5000}}, []),
    ("pd-fractional-seed", "pd", {"seed": 1.5, "pd": {"theta": 1.0, "n": 5000}}, []),
    ("pd-text-seed", "pd", {"seed": "abc", "pd": {"theta": 1.0, "n": 5000}}, []),
] + [  # the benchmark's pd size, and a d_list given out of order
    ("pd-bench-size", "pd", {"seed": 17, "pd": {"theta": 1.0, "n": 50000, "max_degree": 6}}, []),
    ("limit-d-unsorted", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                                   "schedule": {"d_list": [40, 10]},
                                   "limit": {"n": 5000}}, []),
] + [  # JSON booleans in real-valued settings: each must exit 2
    ("pd-bool-theta", "pd", {"seed": 17, "pd": {"theta": True, "n": 5000}}, []),
    ("boundary-bool-eps", "boundary", {"seed": 7, "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0]},
                                       "boundary": {"k": 2, "T": 5.0, "paths": 40,
                                                    "eps": [True, 1e-3]}}, []),
    ("limit-bool-N", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                               "schedule": {"d_list": [10, 40]},
                               "limit": {"n": 5000, "growth": {"sigma": 1.0, "N": True}}}, []),
] + [  # batches wider than a path chunk: 70 paths in two blocks, 40 clipping paths
    ("boundary-70-paths", "boundary", {"seed": 61, "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0]},
                                       "boundary": {"k": 2, "T": 3.0, "paths": 70,
                                                    "eps": [1e-2, 1e-3]}}, []),
    ("simulate-40-clipping", "simulate", {"seed": 67, "model": HYBRID3,
                                          "sim": {"T": 1.0, "dt": 0.05, "paths": 40}}, []),
    ("invariant-ergodic-40", "invariant", {
        "seed": 71, "model": RANK3, "sampler": {"n": 2000, "method": "spacing"},
        "ergodic": {"T": 3.0, "dt": 1e-3, "paths": 40, "functions": ["one", "y1"]}}, []),
] + [  # non-finite real settings: each must exit 2
    ("boundary-infinite-T", "boundary", {"seed": 7, "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0]},
                                         "boundary": {"k": 2, "T": float("inf"), "paths": 4}}, []),
    ("simulate-infinite-dt", "simulate", {"seed": 11, "model": HYBRID3,
                                          "sim": {"T": 0.5, "dt": float("inf"), "paths": 2}}, []),
    ("pd-nan-theta", "pd", {"seed": 17, "pd": {"theta": float("nan"), "n": 5000}}, []),
] + [  # hybrid d = 4 with negative gamma on the default route
    (f"invariant-hybrid4-{kind}", "invariant", {
        "seed": 73, "model": HYBRID4, "sampler": {"n": 1000, "kind": kind}}, [])
    for kind in ("named", "ranked")
] + [  # PD sticks over four blocks, and a degree too small for any power sum
    ("pd-four-blocks", "pd", {"seed": 89, "pd": {"theta": 5.0, "n": 3000}}, []),
    ("pd-max-degree-1", "pd", {"seed": 17, "pd": {"theta": 1.0, "n": 100, "max_degree": 1}}, []),
] + [  # statistic indices outside 1..d, and an ergodic check on a single path
    (f"invariant-ergodic-{stat}", "invariant", {
        "seed": 97, "model": RANK3, "sampler": {"n": 1000, "method": "spacing"},
        "ergodic": {"T": 0.2, "dt": 1e-3, "paths": 2, "functions": [stat]}}, [])
    for stat in ("y0", "y5")
] + [
    ("invariant-ergodic-1-path", "invariant", {
        "seed": 97, "model": RANK3, "sampler": {"n": 1000, "method": "spacing"},
        "ergodic": {"T": 0.2, "dt": 1e-3, "paths": 1, "functions": ["y1"]}}, []),
    ("limit-y50", "limit", {"seed": 23, "pd": {"theta": 2.0, "tilt": [0.0]},
                            "schedule": {"d_list": [5, 10]},
                            "limit": {"n": 5000, "functions": ["y50"]}}, []),
] + [  # the largest seed over two path chunks, and many coordinates per step
    ("boundary-top-seed", "boundary", {"seed": 2 ** 64 - 1,
                                       "model": {"a": [1.5, 0.5], "gamma": [0.0, 0.0]},
                                       "boundary": {"k": 2, "T": 2.0, "paths": 40,
                                                    "eps": [1e-2, 1e-3]}}, ["--threads", "2"]),
    ("simulate-d40", "simulate", {"seed": 101, "model": {"a": [1.0] * 40, "gamma": [0.5] * 40},
                                  "sim": {"T": 0.2, "dt": 1e-3, "paths": 2}}, []),
] + [  # a hybrid beyond the permutation sums' d <= 6, and a named hybrid with abar_1 <= 0
    ("invariant-hybrid7", "invariant", {
        "seed": 103, "model": {"a": [1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.5],
                               "gamma": [0.3, -0.1, 0.2, 0.0, -0.2, 0.1, 0.4]},
        "sampler": {"n": 1000, "kind": "named"}}, []),
    ("invariant-hybrid-abar1-negative", "invariant", {
        "seed": 107, "model": {"a": [-3.0, 1.0, 0.8], "gamma": [0.1, 0.5, 0.2]},
        "sampler": {"n": 1000, "kind": "named"}}, []),
] + [  # a concentrated d = 6 hybrid: a and gamma scaled up together
    ("invariant-hybrid6-concentrated", "invariant", {
        "seed": 109, "model": {"a": [5.0] * 6, "gamma": [25.0, 20.0, 15.0, 10.0, 5.0, 0.0]},
        "sampler": {"n": 1000, "kind": "named"}}, []),
] + [  # a backtest over three unequal worker jobs, and the mass statistic phi1
    ("growth-7-paths-t3", "growth", {"seed": 113, "model": RANK3, "open_market_size": 1,
                                     "growth": {"n": 2000, "sim": {"T": 1.0, "dt": 1e-3,
                                                                   "paths": 7}}},
     ["--threads", "3"]),
    ("limit-phi1", "limit", {"seed": 127, "pd": {"theta": 2.0, "tilt": [0.5]},
                             "schedule": {"d_list": [10, 40]},
                             "limit": {"n": 5000, "functions": ["phi1"]}}, []),
] + [  # either side of the stick cap at theta = 312: risk 7.13e-07 refuses n = 1e5
    ("pd-theta312-n2", "pd", {"seed": 131, "pd": {"theta": 312.0, "n": 2}}, []),
    ("pd-theta312-refused", "pd", {"seed": 131, "pd": {"theta": 312.0, "n": 100000}}, []),
] + [  # time averages of four more statistics, joined over two path chunks
    ("invariant-ergodic-stats-40", "invariant", {
        "seed": 137, "model": RANK3, "sampler": {"n": 1000, "method": "spacing"},
        "ergodic": {"T": 0.5, "dt": 1e-3, "paths": 40,
                    "functions": ["y1^2", "phi2", "rank1_is_2", "x3"]}}, []),
]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("meta", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, cfg, extra in RUNS:
            config, out = Path(tmp) / f"{name}.json", Path(tmp) / name
            config.write_text(json.dumps(cfg))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = run([command, "--config", str(config), "--out", str(out), *extra])
            for path in sorted(out.iterdir()) if out.exists() else ():
                print(f"{digest(path)}  {name}/{path.name}")
            print(f"exit  {name}  {code}  {err.getvalue().strip()[:240]}")


if __name__ == "__main__":
    main()
