"""The jpkernel benchmark: one workload per run, as a closed loop, every op checked.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

One caller issues the next op only after the previous one returned; the scans
inside an op fan out to at most nproc threads through parallel_map.  With
--trace 0 the run measures the end-to-end metrics with tracing off; with
--trace 1 it makes the traced run and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  perfbench/README.md describes every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

HELD_OUT_SEED = 7919  # never used while tuning; confirms a claimed gain (choosing-metrics 6.3)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# Wall time of one round, checks included, at the commit that added the
# benchmark, on a shared 2-CPU virtual machine.  A run does
# round(seconds / this) rounds, so every run of a workload does the same work
# whatever the machine's speed.
ROUND_SECONDS = {"pointwise": 7.5, "sharp": 8.3, "cz-scan": 11.6}
DIGITS_FLOOR = 1e-17  # deviations below this count as 17 correct digits


# ---------------------------------------------------------------------------
# the closed loop and its end-to-end metrics
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    op: dict
    latency: float
    deviation: float | None
    problems: list
    checked: bool = False  # the workload's check ran on the op's output


def run_op(op, call, judge=None):
    """Time one op; anything it raises, or any problem its check finds, marks it failed."""
    start = perf_counter()
    try:
        out = call(op)
    except Exception as exc:  # every failure counts and the run goes on
        return OpResult(op, perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"])
    latency = perf_counter() - start
    if judge is None:
        return OpResult(op, latency, None, [])
    try:
        deviation, problems = judge(op, out)
    except Exception as exc:  # the check itself calls the package, which may fail too
        deviation, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
    return OpResult(op, latency, deviation, problems, checked=True)


def run_rounds(rounds, call, judge, n_rounds, results):
    """Run n_rounds whole rounds, one op at a time; return the rounds run."""
    done = []
    for ops in itertools.islice(rounds, n_rounds):
        results.extend(run_op(op, call, judge) for op in ops)
        done.append(ops)
    return done


def verdict(results, expected_failure):
    """The result line's `correct`: every op was checked and passed, or failed
    in a way that expected_failure(op, problems) accepts (a known defect)."""
    return bool(results) and all(
        expected_failure(r.op, r.problems) if r.problems else r.checked for r in results)


def rounds_for(workload, seconds):
    """Rounds that take about `seconds` on the reference machine (README)."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def tail_percentile(n: int):
    """(p, beyond): the highest whole percentile p in [50, 99] with at least
    TAIL_BEYOND of n samples above its nearest-rank value, and how many lie
    above it.  Below 2 * TAIL_BEYOND samples the median is used."""
    best = 50
    for p in range(50, 100):
        if n - (-(-p * n // 100)) >= TAIL_BEYOND:
            best = p
    return best, n - (-(-best * n // 100))


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(-(-p * len(sorted_vals) // 100), 1)
    return sorted_vals[rank - 1]


def end_to_end(results, setup_s, peak_rss_mb):
    """(metrics, notes) for the measured ops; latencies are those of every op."""
    n = len(results)
    failed = sum(1 for r in results if r.problems)
    lat = sorted(r.latency for r in results)
    p, beyond = tail_percentile(n)
    devs = [r.deviation for r in results if r.deviation is not None]
    worst = max(max(devs), DIGITS_FLOOR) if devs else DIGITS_FLOOR
    metrics = {
        "throughput_ops_s": ((n - failed) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * percentile(lat, p), "ms"),
        "ok_frac": ((n - failed) / n, "frac"),
        "correct_digits": (-math.log10(worst), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {"latency_tail_percentile": p, "ops_beyond_tail": beyond, "ops": n,
             "failed_frac": failed / n, "deviation_samples": len(devs)}
    return metrics, notes


def peak_rss_mb():
    """Peak resident memory of this process so far (ru_maxrss, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up, environment and inputs
# ---------------------------------------------------------------------------

def measure_setup(workload, op):
    """Median over fresh interpreters of import + the op, cold (first_op.py)."""
    cmd = [sys.executable, str(HERE / "first_op.py"), "--workload", workload]
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, input=json.dumps(op), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"first_op.py failed on {op}: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment(nproc):
    import numpy
    import scipy

    commit, dirty = _git_state()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "JPK_THREADS": os.environ.get("JPK_THREADS"),
            "blas_threads": _blas_threads(), "git_commit": commit, "git_dirty": dirty,
            "machine": platform.machine()}


def inputs_digest(rounds):
    ops = [op for ops in rounds for op in ops]
    blob = json.dumps(ops, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "ops": len(ops), "rounds": len(rounds)}


def _bootstrap():
    """Put this checkout's src first on the path and refuse any other jpkernel."""
    if not (SRC / "jpkernel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jpkernel sources at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import jpkernel

    if Path(jpkernel.__file__).resolve().parent != SRC / "jpkernel":
        sys.exit(f"perfbench: imported jpkernel from {jpkernel.__file__}, not from {SRC}")


def clear_caches():
    """Empty every lru_cache in the package, so each pass warms up the same way."""
    for name, mod in list(sys.modules.items()):
        if name == "jpkernel" or name.startswith("jpkernel."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(workload, seed, results, metrics, notes, extra_lines=()):
    import workloads

    def known(op, problems):
        return workloads.expected_failure(workload, op, problems)

    failed = [r for r in results if r.problems]
    for r in failed:
        tag = "failed (known defect)" if known(r.op, r.problems) else "FAILED (unexpected)"
        print(f"# {tag} {json.dumps(r.op)} :: {'; '.join(r.problems)}")
    for line in extra_lines:
        print(line)
    print(f"# workload {workload} seed {seed}: {len(results)} ops, {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    # Not in the result line: end-to-end metrics must never read 0, and ok_frac carries it.
    print(f"{'failed_frac':48s} {len(failed) / len(results):16.6g} frac")
    print(f"# notes {json.dumps(notes)}")
    result = {
        "correct": verdict(results, known),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds):
    import workloads

    call, judge = workloads.CALL[workload], workloads.JUDGE[workload]
    stream = workloads.rounds(workload, seed)
    first = next(stream)
    # The design's first point, so that every seed times the same kind of op.
    setup_s = measure_setup(workload, min(first, key=lambda op: op["point"]))
    for op in workloads.warmup_ops(workload, seed):
        run_op(op, call)
    results = []

    def replay():
        yield first
        yield from stream

    start = perf_counter()
    done = run_rounds(replay(), call, judge, rounds_for(workload, seconds), results)
    wall = perf_counter() - start
    metrics, notes = end_to_end(results, setup_s, peak_rss_mb())
    notes["measured_wall_s"] = wall
    notes["inputs"] = inputs_digest(done)
    return results, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="jpkernel benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=["pointwise", "sharp", "cz-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Ops are serial but for the scans' parallel_map workers: numpy's BLAS runs
    # on the calling thread, so no op uses more than nproc threads.  Set before
    # numpy loads; set-up children inherit both settings.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _bootstrap()
    nproc = len(os.sched_getaffinity(0))
    os.environ.setdefault("JPK_THREADS", str(nproc))
    env = environment(nproc)
    print(f"# env {json.dumps(env)}")
    print(f"# seeds: this run {args.seed}; held-out confirmation seed {HELD_OUT_SEED}")
    if args.trace:
        import traced

        results, metrics, notes, lines = traced.traced_run(args.workload, args.seed, args.seconds)
    else:
        results, metrics, notes = measure(args.workload, args.seed, args.seconds)
        lines = ()
    emit(args.workload, args.seed, results, metrics, notes, lines)


if __name__ == "__main__":
    main()
