"""Report plumbing: residual statistics, canonical JSON, deterministic
chunked parallelism.

Reports must be byte-identical for a fixed (config, seed) regardless of the
thread-pool size, so chunk boundaries are fixed constants and reductions are
order-independent; nothing time- or host-dependent ever enters a report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

CHUNK = 8192


@dataclass(frozen=True)
class ResidualStats:
    max: float
    mean: float
    q95: float
    count: int
    non_finite: int = 0

    def within(self, tier: float) -> bool:
        """Every residual finite and below tier."""
        return self.non_finite == 0 and self.max < tier

    def to_json(self) -> dict:
        out = {"max": self.max, "mean": self.mean, "q95": self.q95,
               "count": self.count}
        if self.non_finite:
            out["non_finite"] = self.non_finite
        return out


def residual_stats(values: np.ndarray) -> ResidualStats:
    """Statistics over the finite residuals; ``count`` is every residual
    and ``non_finite`` the ones left out (each fails the family)."""
    values = np.asarray(values, dtype=float).ravel()
    finite = values[np.isfinite(values)]
    non_finite = values.size - finite.size
    if finite.size == 0:
        return ResidualStats(0.0, 0.0, 0.0, int(values.size), non_finite)
    return ResidualStats(
        max=float(np.max(finite)),
        mean=float(np.mean(finite)),
        q95=float(np.quantile(finite, 0.95)),
        count=int(values.size),
        non_finite=non_finite,
    )


def env_threads(override: int | None = None) -> int:
    """Worker count: explicit override, else BIHERM_THREADS, else 1."""
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get("BIHERM_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def chunked_map(fn, x: np.ndarray, threads: int = 1) -> dict:
    """Apply ``fn`` to slices of the leading axis of points x (n, ..., 4)
    and stitch the dicts of arrays it returns back in order.

    A slice holds at most CHUNK points, and at least one entry of the
    leading axis, which is never split between two calls of ``fn``.  ``fn``
    must be pure; chunk size never depends on the thread count, so the
    output is bitwise identical for any pool size.
    """
    x = np.asarray(x)
    n = x.shape[0]
    size = max(1, CHUNK // math.prod(x.shape[1:-1]))
    bounds = [(i, min(i + size, n)) for i in range(0, n, size)]
    if len(bounds) <= 1 or threads <= 1:
        parts = [fn(x[a:b]) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ab: fn(x[ab[0]:ab[1]]), bounds))
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(obj) -> str:
    """Content hash of a canonicalised config document."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
