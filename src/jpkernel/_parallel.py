"""Deterministic parallel map; JPK_THREADS caps the worker count."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    """Worker count: os.cpu_count() by default, capped by JPK_THREADS."""
    cap = os.cpu_count() or 1
    raw = os.environ.get("JPK_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"JPK_THREADS must be an integer, got {raw!r}") from None
        cap = min(cap, max(n, 1))
    return cap


def parallel_map(fn, items):
    """Map preserving input order regardless of completion order."""
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
