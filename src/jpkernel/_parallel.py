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


def pair_map(fn, pairs, symmetric):
    """fn(theta, phi) for each (theta, phi) of pairs, in order, each distinct
    pair evaluated once through parallel_map.

    With symmetric (fn symmetric in its arguments), each unordered pair is
    evaluated once, at theta <= phi, and every row of it takes that value.
    Only a pair strictly out of order is swapped, so a NaN stays in its pair
    (where fn rejects it) instead of being ordered away.
    """
    keys = [(ph, th) if symmetric and ph < th else (th, ph) for th, ph in pairs]
    distinct = list(dict.fromkeys(keys))
    vals = dict(zip(distinct, parallel_map(lambda key: fn(*key), distinct)))
    return [vals[key] for key in keys]
