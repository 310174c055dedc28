"""Run the benchmark in alternated pairs on two checkouts and compare them.

    python tools/pairs.py PARENT CHANGE --workload W --seed S --pairs K

Each pair runs the command of BENCHMARK.json (perfbench/run.py) once in
each checkout, for its run_seconds and with --trace 0, one run after the
other; pair 1 runs PARENT first, pair 2 CHANGE first, and so on.  For
every end-to-end metric of BENCHMARK.json it prints each side's values in
run order, the two medians, the parent's interquartile range (IQR) and
the number of pairs the change won (ties count for neither side), and a
verdict against the metric's bound (see verdict).  It exits 1 if any run
is not `correct` or printed no result line, else 0.
BENCHMARK.json is read from the checkout this file sits in; perfbench is
neither imported nor changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def result_line(stdout: str):
    """The result of one run: the last stdout line that is a JSON object
    with a "correct" key, or None."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(result, dict) and "correct" in result:
                return result
    return None


def _quartiles(values):
    """(first quartile, third quartile) of values, inclusive method."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(p_vals, c_vals, metric):
    """"worse", "unresolved" or "within bound": how the change's values
    c_vals of one end-to-end metric stand against the parent's p_vals.

    worse: the change's median is worse than the parent's by more than
    bound times the parent's median.  unresolved: the parent's IQR exceeds
    bound times its median, and not every change run beats every parent run.
    """
    higher = metric["better"] == "higher"
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    slack = metric["bound"] * abs(p_med)
    if (p_med - c_med if higher else c_med - p_med) > slack:
        return "worse"
    q1, q3 = _quartiles(p_vals)
    beats_all = min(c_vals) > max(p_vals) if higher else max(c_vals) < min(p_vals)
    if q3 - q1 > slack and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(parent, change, metrics):
    """(report lines, every run correct) for two equally long lists of
    result lines (None for a run that printed none), pair by pair, over
    metrics, the end_to_end entries of BENCHMARK.json."""
    lines = []
    ok = True
    for side, results in (("parent", parent), ("change", change)):
        for i, result in enumerate(results, 1):
            if result is None:
                ok = False
                lines.append(f"{side} run {i}: no result line")
            elif not result["correct"]:
                ok = False
                lines.append(f"{side} run {i}: not correct ({result['failed']} of "
                             f"{result['attempted']} ops failed)")
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        if not both:
            lines.append("  no pair reports it")
            continue
        p_vals, c_vals = [p for p, _ in both], [c for _, c in both]
        wins = sum((c > p) if higher else (c < p) for p, c in both)
        q1, q3 = _quartiles(p_vals)
        lines.append("  parent " + " ".join(f"{v:.4g}" for v in p_vals))
        lines.append("  change " + " ".join(f"{v:.4g}" for v in c_vals))
        lines.append(f"  median parent {statistics.median(p_vals):.4g} (IQR {q3 - q1:.3g}), "
                     f"change {statistics.median(c_vals):.4g}; change wins {wins} of {len(both)}")
        lines.append(f"  verdict: {verdict(p_vals, c_vals, metric)} (bound {metric['bound']:g})")
    return lines, ok


def run_once(checkout: Path, workload: str, seed: int, bench: dict):
    """The result line of one untraced benchmark run in checkout, or None
    (after echoing the end of its stderr)."""
    cmd = [sys.executable if part in ("python", "python3") else part for part in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = result_line(proc.stdout)
    if result is None:
        print(f"{checkout}: exit {proc.returncode}, no result line\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = [], []
    for i in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        for checkout, results in (order if i % 2 == 0 else order[::-1]):
            results.append(run_once(checkout, args.workload, args.seed, bench))
        print(f"# pair {i + 1} of {args.pairs} done", file=sys.stderr, flush=True)
    print(f"# {args.workload} seed {args.seed}: {args.pairs} pairs, "
          f"parent {args.parent}, change {args.change}")
    lines, ok = summarize(parent, change, bench["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
