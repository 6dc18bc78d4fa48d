"""Shared plumbing: seeded RNG streams, JSON/CSV emission, simple statistics."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SEED_LIMIT = 1 << 64


def stream_key(master_seed: int, path_index: int) -> int:
    """The 128-bit Philox key ``master_seed << 64 | path_index``.  Both parts
    must lie in [0, 2**64), so distinct pairs never share a key."""
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError("master seed must be an integer in [0, 2**64)")
    if not 0 <= path_index < SEED_LIMIT:
        raise ValueError("path index must be an integer in [0, 2**64)")
    return int(master_seed) << 64 | int(path_index)


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (master seed, path index).

    Uses Philox so streams are independent and the assignment is
    order-free: path ``i`` always sees the same numbers no matter how
    many workers run or in which order paths are dispatched.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, path_index)))


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Deterministic named substream (for samplers, MC batches, etc.).

    The label enters through a 64-bit BLAKE2b digest of all its bytes, so
    labels sharing a prefix still get distinct streams.
    """
    digest = hashlib.blake2b(label.encode("utf8"), digest_size=8).digest()
    return path_stream(master_seed, int.from_bytes(digest, "little"))


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and its standard error along the first axis."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 2:
        return float(v.mean()), float("inf")
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(n))


def z_score(est_a: float, se_a: float, est_b: float, se_b: float) -> float:
    """Difference of two estimates in combined-standard-error units."""
    diff = est_a - est_b
    denom = math.hypot(se_a, se_b)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path, payload: dict, config_echo: dict, meta: dict | None = None) -> None:
    """Write a JSON report; the timestamp and the extra ``meta`` entries live
    in their own ``meta`` key so everything outside ``meta`` is byte-stable
    for a fixed config and seed."""
    doc = dict(to_jsonable(payload))
    doc["config"] = to_jsonable(config_echo)
    doc["meta"] = {"created_utc": datetime.now(timezone.utc).isoformat(), **(meta or {})}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV with CRLF line ends and floats as ``%.17g``.  A row of
    floats only is formatted with one format string; the csv writer takes
    rows that hold anything else, value by value, with the same bytes."""
    formats = {}                       # the float row format by row length
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, np.ndarray) and row.dtype.kind == "f":
                row = row.tolist()
            if all(isinstance(v, (float, np.floating)) for v in row):
                n = len(row)
                if n not in formats:
                    formats[n] = ",".join(["%.17g"] * n) + "\r\n"
                fh.write(formats[n] % tuple(row))
            else:
                writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (np.integer,)):
        return int(v)
    return v
