"""Spans around the public entry points of each jpkernel layer.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces each
traced function with a wrapper in every jpkernel module that holds it (some
modules import names directly, so each is patched where its caller looks it
up), and ``uninstall`` puts the originals back.  A span records its name,
start, end, parent, thread and op id, plus a few layer facts (tensor size,
derivative index, error type).  Spans stay in memory until ``dump``.

A span's self time is its duration minus the part of its interval that its
child spans cover (children on worker threads may overlap, so the union is
taken).  At one worker thread every span nests inside its parent, so the self
times of a pass add up to the pass's root span.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

from jpkernel import czkernels, kernel, pi_measures, qpsi, sharp, specfun
from jpkernel import _parallel, basis

ROUTES = {"series": "series_H", "f4": "h_script_f4", "integral": "h_script_integral",
          "general": "h_script_general"}
RULES = ("density_rule", "profile_rule", "halfline_rule")
SPECFUN = ("gamma", "gammaln", "beta", "betainc_reg", "hyp2f1", "gammaincc_times_gamma",
           "roots_jacobi", "roots_legendre")
FAMILIES = {"MaximalKernel": "maximal", "RieszKernel": "riesz", "SquareFunctionKernel": "gfun",
            "LaplaceKernel": "laplace", "StieltjesKernel": "stieltjes"}
METHODS = {"norm": "norm", "grad_norms": "grad", "diff_norm": "diff"}


def _psi_info(args, kwargs, result):
    key = "".join(str(kwargs.get(k, 0)) for k in ("K", "R", "L", "N", "M"))
    return {"key": key, "elems": int(np.size(result))}


def _size_info(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _t_info(args, kwargs, result):
    return {"t": int(np.size(args[1] if len(args) > 1 else kwargs["t"]))}


def _rows_info(args, kwargs, result):
    return {"rows": len(result.rows)}


class Tracer:
    """Collects spans while installed; not reentrant across passes."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, op, info, leaf time)
        self._leaf_accs = []  # one {name: [calls, seconds]} per thread that made leaf calls
        self.op = 0
        self._warned = []  # one entry per RuntimeWarning; list.append is atomic
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self._catch = None

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, info=None, parent=None):
        sid = next(self._ids)
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        frame = [sid, 0.0]  # span id, time spent in leaf calls directly under it
        stack.append(frame)
        extra = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            extra = {"error": type(exc).__name__}
            raise
        else:
            if info is not None:
                extra = info(args, kwargs, result)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), self.op,
                               extra, frame[1]))

    def _leaf(self, name, fn, args, kwargs):
        """A call too small and frequent for a span of its own: its time is
        counted under `name` and charged to the enclosing span's children."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            stack = self._stack()
            if stack:
                stack[-1][1] += dur
            acc = getattr(self._local, "leaves", None)
            if acc is None:
                acc = self._local.leaves = defaultdict(lambda: [0, 0.0])
                self._leaf_accs.append(acc)
            acc[name][0] += 1
            acc[name][1] += dur

    def leaf_totals(self, name):
        """(calls, seconds) of the leaf calls counted under name."""
        rows = [acc[name] for acc in self._leaf_accs if name in acc]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        return self._call(name, fn, args, kwargs)

    def _wrap(self, name, fn, info=None, leaf=False):
        tracer = self

        if leaf:
            def traced(*args, **kwargs):
                return tracer._leaf(name, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs, info)

        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel_map(self, fn):
        tracer = self

        def traced_map(item_fn, items):
            def run(items):
                map_id = tracer._stack()[-1][0]

                def item(x):
                    return tracer._call("parallel.item", item_fn, (x,), {}, parent=map_id)

                return fn(item, items)

            items = list(items)
            return tracer._call("parallel.map", run, (items,), {},
                                info=lambda a, k, r: {"items": len(items),
                                                      "workers": min(_parallel.thread_count(), len(items))})

        traced_map.__wrapped__ = fn
        return traced_map

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Replace original by replacement wherever a jpkernel module holds it."""
        held = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "jpkernel" and not mod_name.startswith("jpkernel."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    held += 1
        if not held:
            raise RuntimeError(f"no jpkernel module holds {original!r}; nothing to trace")

    def _patch_attr(self, owner, attr, name, info=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, info))

    def install(self):
        self._patch_attr(qpsi.PsiEvaluator, "__call__", "qpsi", _psi_info)
        for rule in RULES:
            fn = getattr(pi_measures, rule)
            self._patch_everywhere(fn, self._wrap(f"pi_measures.{rule}", fn))
        fn = basis.trig_poly_table
        self._patch_everywhere(fn, self._wrap("basis.trig_poly_table", fn, _size_info))
        for name in SPECFUN:
            fn = getattr(specfun, name)
            self._patch_everywhere(fn, self._wrap("specfun", fn, leaf=True))
        for route, attr in ROUTES.items():
            fn = getattr(kernel, attr)
            self._patch_everywhere(fn, self._wrap(f"kernel.{route}", fn,
                                                  _t_info if route == "integral" else None))
        fn = kernel.kernel_H_batch
        self._patch_everywhere(fn, self._wrap("kernel.batch", fn))
        for cls_name, family in FAMILIES.items():
            cls = getattr(czkernels, cls_name)
            for method, short in METHODS.items():
                self._patch_attr(cls, method, f"czkernels.{family}.{short}")
        fn = czkernels._stabilized
        self._patch_everywhere(fn, self._wrap("czkernels.refine", fn))
        fn = sharp.ratio_scan
        self._patch_everywhere(fn, self._wrap("sharp.ratio_scan", fn, _rows_info))
        fn = sharp.long_time_fit
        self._patch_everywhere(fn, self._wrap("sharp.long_time_fit", fn))
        fn = _parallel.parallel_map
        self._patch_everywhere(fn, self._wrap_parallel_map(fn))
        self._catch = warnings.catch_warnings()
        self._catch.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning

    def _count_warning(self, message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            self._warned.append(1)

    @property
    def warnings(self):
        return len(self._warned)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._catch is not None:
            self._catch.__exit__(None, None, None)
            self._catch = None

    def rule_cache_info(self):
        """(hits, misses) summed over the cached quadrature rules."""
        infos = [getattr(pi_measures, r).cache_info() for r in RULES]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    # -- output ------------------------------------------------------------

    def dump(self, path, label):
        threads = {}
        with open(path, "a") as fh:
            for sid, name, start, end, parent, thread, op, extra, leaf in self.spans:
                rec = {"pass": label, "id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "thread": threads.setdefault(thread, len(threads)),
                       "op": op, "leaf": leaf}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Self time of every span, keyed by span id: its duration less the union
    of its child spans' intervals and the leaf calls made directly under it."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, *_, leaf in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered - leaf
    return out
