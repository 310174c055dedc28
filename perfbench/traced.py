"""The traced run (--trace 1): per-layer metrics, layer probes and tracing overhead.

The run makes three passes over the same rounds, each after emptying the
package's caches and running the same warm-up ops:

1. untraced at nproc threads, with every op checked; the rounds that take
   about a third of --seconds;
2. traced at nproc threads: the parallel.* metrics and trace.overhead;
3. traced at JPK_THREADS=1: every other layer metric.  At one thread no two
   spans overlap, so layer self times are free of contention and add up to
   the pass's wall time.

Counts and times are given per op (the ops of pass 1), so runs that complete
a different number of rounds stay comparable.  Then each layer is timed alone
at fixed points, the same in every workload: the kernel routes (ROADMAP L1),
the Psi integrand per derivative index, the operator kernels and the sharp
scan.  All spans are written to .perfbench/spans-<workload>-<seed>.jsonl at
the end.

The result line carries PER_LAYER, the metrics that every workload reaches,
in the order of BENCHMARK.json.  The metrics of layers that only some
workloads reach (czkernels spans, sharp rows, parallel maps, the f4 and
general routes, most derivative indices) are printed on "# layer" lines by
the workloads that reach them, and listed as unreached by the others.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import spans
import workloads
from jpkernel import czkernels, kernel, sharp
from jpkernel.params import JacobiParams
from jpkernel.qpsi import PsiEvaluator
from run import OUT, clear_caches, rounds_for, run_op, run_rounds

LNM = ["000"] + [f"{L}{N}{M}" for M, N, L in workloads.DERIVS]
QPSI_KEYS = [kr + lnm for lnm in LNM for kr in ("00", "10", "01", "11")]
PROBE_CASES = {"i": (0.5, 0.5), "iv": (-0.75, -0.75)}
PROBE_POINTS = {  # (t, theta, phi): small/large t, near/far from the diagonal
    "small_near": (0.01, 1.0, 1.1),
    "small_far": (0.01, 0.5, 2.5),
    "large_near": (1.0, 1.0, 1.1),
    "large_far": (1.0, 0.5, 2.5),
}
PROBE_REPEAT_BELOW_S = 0.25  # probes faster than this run three times, median kept
# Psi probes: one (t, u, v) tensor of 8 x 64 x 64 elements at case (i).
QPSI_PROBE = dict(t=np.geomspace(0.01, 1.0, 8).reshape(-1, 1, 1), theta=1.0, phi=1.1,
                  u=np.linspace(-0.95, 0.95, 64).reshape(1, -1, 1),
                  v=np.linspace(-0.95, 0.95, 64).reshape(1, 1, -1))
CZ_PROBE = (1.0, 1.6, 1.05)  # theta, phi, and theta2 of diff_norm, at case (i) and the scan preset
SHARP_PROBE = dict(t_grid=np.geomspace(0.05, 1.0, 6), theta_grid=np.array([0.5, 1.5, 2.5]))

PER_LAYER = (
    ["qpsi.calls", "qpsi.elems", "qpsi.self_s", "qpsi.ns_per_elem"]
    + [f"qpsi.ns_per_elem.{kr}000" for kr in ("00", "10", "01", "11")]
    + [f"kernel.{route}.{m}" for route in ("series", "integral")
       for m in ("calls", "ms_per_call", "self_ms_per_call")]
    + ["kernel.integral.t_per_call", "basis.table_calls", "basis.table_elems", "basis.ns_per_elem",
       "pi_measures.rule_calls", "pi_measures.rule_hit_ratio", "pi_measures.build_s",
       "specfun.calls", "specfun.self_s", "parallel.speedup", "trace.overhead", "trace.self_coverage"]
    + [f"kernel.{route}.probe_ms.{case}.{probe}" for case in PROBE_CASES for probe in PROBE_POINTS
       for route in spans.ROUTES]
    + [f"qpsi.probe_ns_per_elem.{key}" for key in QPSI_KEYS]
    + [f"czkernels.{family}.probe_ms.{short}" for family in workloads.CZ_FAMILIES
       for short in spans.METHODS.values()]
    + ["sharp.probe_ms_per_row"]
)


def _with_threads(n, fn, *args):
    old = os.environ.get("JPK_THREADS")
    os.environ["JPK_THREADS"] = str(n)
    try:
        return fn(*args)
    finally:
        if old is None:
            del os.environ["JPK_THREADS"]
        else:
            os.environ["JPK_THREADS"] = old


def _warm(call, warm):
    clear_caches()
    for op in warm:
        run_op(op, call)


def _traced_pass(call, ops, warm):
    """Replay ops under a fresh tracer; returns (tracer, rule cache (hits, misses))."""
    _warm(call, warm)
    tracer = spans.Tracer()
    h0, m0 = tracer.rule_cache_info()
    tracer.install()
    try:
        def loop():
            for i, op in enumerate(ops, 1):
                tracer.op = i
                try:
                    tracer.span("op", call, op)
                except Exception:  # failures were counted in the checked pass
                    pass
            tracer.op = 0

        tracer.span("run", loop)
    finally:
        tracer.uninstall()
    h1, m1 = tracer.rule_cache_info()
    return tracer, (h1 - h0, m1 - m0)


def _probe_ms(fn):
    """(ms, error): after one untimed call, the median of one to three timed
    calls.  A call that raises is timed to the raise, and its error returned."""
    error = None

    def timed():
        nonlocal error
        start = perf_counter()
        try:
            fn()
        except Exception as exc:  # reported by the caller
            error = error or exc
        return perf_counter() - start

    timed()
    times = [timed()]
    if times[0] < PROBE_REPEAT_BELOW_S:
        times += [timed(), timed()]
    return 1e3 * statistics.median(times), error


def _probe_calls():
    """(metric name, unit, scale, thunk) for every fixed-point probe."""
    out = []
    for case, ab in PROBE_CASES.items():
        p = JacobiParams(*ab)
        for probe, (t, theta, phi) in PROBE_POINTS.items():
            for route, attr in spans.ROUTES.items():
                fn = getattr(kernel, attr)
                out.append((f"kernel.{route}.probe_ms.{case}.{probe}", "ms", 1.0,
                            lambda fn=fn, p=p, t=t, theta=theta, phi=phi: fn(p, t, theta, phi)))
    p = JacobiParams(*PROBE_CASES["i"])
    psi, q = PsiEvaluator(p), QPSI_PROBE
    elems = np.broadcast_shapes(q["t"].shape, q["u"].shape, q["v"].shape)
    per_elem = 1e6 / np.prod(elems)  # ms per call -> ns per element
    for key in QPSI_KEYS:
        orders = dict(zip("KRLNM", map(int, key)))
        out.append((f"qpsi.probe_ns_per_elem.{key}", "ns", per_elem,
                    lambda orders=orders: psi(q["t"], q["theta"], q["phi"], q["u"], q["v"], **orders)))
    theta, phi, theta2 = CZ_PROBE
    for family in workloads.CZ_FAMILIES:
        k = czkernels.make_kernel(p, family, quality="scan", **workloads._cz_options(family))
        for method, short in spans.METHODS.items():
            args = (theta, theta2, phi) if method == "diff_norm" else (theta, phi)
            out.append((f"czkernels.{family}.probe_ms.{short}", "ms", 1.0,
                        lambda fn=getattr(k, method), args=args: fn(*args)))
    grid, rows = SHARP_PROBE["theta_grid"], SHARP_PROBE["t_grid"].size * SHARP_PROBE["theta_grid"].size ** 2
    out.append(("sharp.probe_ms_per_row", "ms", 1.0 / rows,
                lambda: sharp.ratio_scan(p, SHARP_PROBE["t_grid"], grid, grid)))
    return out


def probes():
    """Every layer alone at fixed points, untraced, at one thread: the same
    inputs in every workload (ROADMAP L1 for the routes)."""
    out, failures = {}, []
    for name, unit, scale, fn in _probe_calls():
        ms, error = _with_threads(1, _probe_ms, fn)
        out[name] = (scale * ms, unit)
        if error is not None:
            failures.append(f"# probe {name} raised {type(error).__name__}: {error} (timed to the raise)")
    return out, failures


def _by_name(tracer):
    """name -> list of (span, self time)."""
    self_t = spans.self_times(tracer.spans)
    groups = defaultdict(list)
    for s in tracer.spans:
        groups[s[1]].append((s, self_t[s[0]]))
    return groups, self_t


def _dur(s):
    return s[3] - s[2]


def _mean(xs):
    """Mean, or None (unreached) for no samples."""
    return sum(xs) / len(xs) if xs else None


def _ratio(a, b):
    return a / b if b else None


def layer_metrics(one, one_rules, many, untraced_s, n_ops):
    """Per-layer metrics from the 1-thread tracer `one` and the nproc tracer
    `many`; None marks a metric whose layer the workload does not reach."""
    g, _ = _by_name(one)
    m = {}

    qpsi = g["qpsi"]
    elems = sum(s[7]["elems"] for s, _ in qpsi)
    qself = sum(st for _, st in qpsi)
    m["qpsi.calls"] = (len(qpsi) / n_ops, "calls/op")
    m["qpsi.elems"] = (elems / n_ops, "elems/op")
    m["qpsi.self_s"] = (qself / n_ops, "s/op")
    m["qpsi.ns_per_elem"] = (_ratio(1e9 * qself, elems), "ns")
    per_key = defaultdict(lambda: [0.0, 0])
    for s, st in qpsi:
        per_key[s[7]["key"]][0] += st
        per_key[s[7]["key"]][1] += s[7]["elems"]
    for key in QPSI_KEYS:
        t, e = per_key.get(key, (0.0, 0))
        m[f"qpsi.ns_per_elem.{key}"] = (_ratio(1e9 * t, e), "ns")

    for route in spans.ROUTES:
        calls = g[f"kernel.{route}"]
        m[f"kernel.{route}.calls"] = (len(calls) / n_ops if calls else None, "calls/op")
        m[f"kernel.{route}.ms_per_call"] = (_mean([1e3 * _dur(s) for s, _ in calls]), "ms")
        m[f"kernel.{route}.self_ms_per_call"] = (_mean([1e3 * st for _, st in calls]), "ms")
        m[f"kernel.{route}.failed"] = (
            _mean([1.0 if s[7] and "error" in s[7] else 0.0 for s, _ in calls]), "frac")
    m["kernel.integral.t_per_call"] = (_mean([s[7]["t"] for s, _ in g["kernel.integral"]
                                              if s[7] and "t" in s[7]]), "t/call")
    m["kernel.batch.ms_per_call"] = (_mean([1e3 * _dur(s) for s, _ in g["kernel.batch"]]), "ms")
    m["kernel.warnings"] = (one.warnings / n_ops, "count/op")

    tables = g["basis.trig_poly_table"]
    t_elems = sum(s[7]["elems"] for s, _ in tables if s[7])
    m["basis.table_calls"] = (len(tables) / n_ops, "calls/op")
    m["basis.table_elems"] = (t_elems / n_ops, "elems/op")
    m["basis.ns_per_elem"] = (_ratio(1e9 * sum(st for _, st in tables), t_elems), "ns")

    rules = [x for r in spans.RULES for x in g[f"pi_measures.{r}"]]
    hits, misses = one_rules
    m["pi_measures.rule_calls"] = (len(rules) / n_ops, "calls/op")
    m["pi_measures.rule_hit_ratio"] = (_ratio(hits, hits + misses), "frac")
    m["pi_measures.build_s"] = (sum(st for _, st in rules) / n_ops, "s/op")
    calls, secs = one.leaf_totals("specfun")
    m["specfun.calls"] = (calls / n_ops, "calls/op")
    m["specfun.self_s"] = (secs / n_ops, "s/op")

    for family in spans.FAMILIES.values():
        for short in spans.METHODS.values():
            durs = [1e3 * _dur(s) for s, _ in g[f"czkernels.{family}.{short}"]]
            m[f"czkernels.{family}.ms_per_pair.{short}"] = (_mean(durs), "ms")
    op_time = sum(_dur(s) for s, _ in g["op"])
    refine = g["czkernels.refine"]
    m["czkernels.refine_share"] = (_ratio(sum(_dur(s) for s, _ in refine), op_time) if refine else None,
                                   "frac")
    scans = g["sharp.ratio_scan"]
    rows = sum(s[7]["rows"] for s, _ in scans if s[7])
    m["sharp.ms_per_row"] = (_ratio(1e3 * sum(_dur(s) for s, _ in scans), rows), "ms")

    gm, _ = _by_name(many)
    items = gm["parallel.item"]
    maps = gm["parallel.map"]
    capacity = sum(_dur(s) * s[7]["workers"] for s, _ in maps if s[7])
    many_ops = sum(_dur(s) for s, _ in gm["op"])
    in_maps = sum(_dur(s) for s, _ in maps)
    m["parallel.items"] = (len(items) / n_ops if items else None, "items/op")
    m["parallel.efficiency"] = (_ratio(sum(_dur(s) for s, _ in items), capacity), "frac")
    m["parallel.serial_share"] = (1.0 - in_maps / many_ops if maps else None, "frac")
    m["parallel.speedup"] = (_ratio(op_time, many_ops), "x")

    m["trace.overhead"] = (_ratio(many_ops, untraced_s), "x")
    # The share of wall time that the layers' own spans account for: the
    # self time of the run and op spans is time spent outside every layer.
    layer_self = sum(st for name, group in g.items() if name not in ("run", "op") for _, st in group)
    m["trace.self_coverage"] = ((layer_self + secs) / _dur(g["run"][0][0]), "frac")
    return m


def self_time_check(tracer):
    """(sum of every span's self time plus the specfun time, wall time of the pass)."""
    run_span = next(s for s in tracer.spans if s[1] == "run")
    return sum(spans.self_times(tracer.spans).values()) + tracer.leaf_totals("specfun")[1], _dur(run_span)


def _layer_lines(label, metrics, names):
    return [f"# layer {label} {name} {metrics[name][0]:.6g} {metrics[name][1]}" for name in names]


def traced_run(workload, seed, seconds):
    call, judge = workloads.CALL[workload], workloads.JUDGE[workload]
    warm = workloads.warmup_ops(workload, seed)
    nproc = int(os.environ["JPK_THREADS"])

    _warm(call, warm)
    results = []
    done = run_rounds(workloads.rounds(workload, seed), call, judge,
                      rounds_for(workload, seconds / 3.0), results)
    ops = [op for r in done for op in r]
    untraced_s = sum(r.latency for r in results)

    many, many_rules = _with_threads(nproc, _traced_pass, call, ops, warm)
    one, one_rules = _with_threads(1, _traced_pass, call, ops, warm)
    layers = layer_metrics(one, one_rules, many, untraced_s, len(ops))
    probe_metrics, failures = probes()
    layers.update(probe_metrics)
    metrics = {name: layers[name] for name in PER_LAYER}
    missing = [name for name, (value, _) in metrics.items() if value is None]
    for name in missing:  # every workload reaches these at the commit that added them
        metrics[name] = (0.0, metrics[name][1])
    others = [name for name in layers if name not in PER_LAYER]
    reached = [name for name in others if layers[name][0] is not None]
    many_layers = layer_metrics(many, many_rules, many, untraced_s, len(ops))
    lines = _layer_lines("threads=1", layers, reached)
    lines += _layer_lines(f"threads={nproc}", many_layers,
                          [n for n, (v, _) in many_layers.items() if v is not None])
    lines.append(f"# unreached on {workload}: {' '.join(n for n in others if n not in reached)}")
    total, wall = self_time_check(one)
    lines.append(f"# JPK_THREADS=1 pass: the self times of all {len(one.spans)} spans and the specfun "
                 f"time sum to {total:.6f} s of {wall:.6f} s wall")
    lines += failures
    if missing:
        lines.append(f"# WARNING: result-line metrics unreached on {workload}, reported as 0: {' '.join(missing)}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    path.unlink(missing_ok=True)
    many.dump(path, f"threads={nproc}")
    one.dump(path, "threads=1")
    notes = {"ops": len(ops), "rounds": len(done), "untraced_s": untraced_s,
             "spans": len(many.spans) + len(one.spans), "spans_file": str(path.relative_to(OUT.parent)),
             "failed_frac": sum(1 for r in results if r.problems) / len(results)}
    lines.append(f"# nproc={nproc} pass: {len(many.spans)} spans; JPK_THREADS=1 pass: {len(one.spans)} spans")
    return results, metrics, notes, lines
