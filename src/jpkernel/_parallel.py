"""Ordered maps over a scan's grid pairs, on the calling thread.

A scan's pairs are mostly pure-Python scalar work that holds the
interpreter lock; a thread pool made every benchmark workload slower.
Callers may still run scans on threads of their own.
"""

from __future__ import annotations


def thread_count() -> int:
    """Worker count of parallel_map: 1, since it runs on the calling thread.

    Kept for tracers that report how many workers a map used.
    """
    return 1


def parallel_map(fn, items):
    """[fn(x) for x in items], in order, on the calling thread."""
    return [fn(x) for x in items]


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
