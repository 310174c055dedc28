"""Record the exact outputs of one benchmark round, and compare two records.

    python tools/replay.py --workload W --seed S --out FILE
    python tools/replay.py --compare A B [--rtol R]

The first form runs round 1 of a perfbench workload (`rounds` and `CALL` of
perfbench/workloads.py) against the src/ of the checkout this file sits in,
and writes one JSON line per op: the op and its output, exactly.  A float is
kept as its bits (float.hex), a scan report as its to_json(), and an
exception as its type and message; pointwise ops record every route.

The second form exits 1 and names every op whose records differ, or exits
0.  For each such op it prints every output key that differs (a route's
name, a report field, the exception's type or message), both values, and
the relative difference of two floats.  Running the first form in two
checkouts, say a parent commit and a change to it, and comparing the files
shows whether the change moved any value, last bits and error messages
included.  With --rtol R (default 0, exact), two floats within R relative
of each other count as equal, and an op whose every difference is such a
pair is counted, with the largest relative difference, but does not fail
the comparison; any other difference still does.  perfbench is only
imported.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exact(out):
    """out as JSON that keeps every bit."""
    if isinstance(out, BaseException):
        return {"raised": type(out).__name__, "message": str(out)}
    if isinstance(out, dict):
        return {name: _exact(v) for name, v in out.items()}
    if isinstance(out, tuple):
        return [_exact(v) for v in out]
    if hasattr(out, "to_json"):
        return {"report": out.to_json()}
    return float(out).hex()


def record(workload: str, seed: int, path: Path) -> int:
    """Run round 1 of workload at seed and write its records to path;
    returns the number of ops."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import jpkernel
    import workloads

    if Path(jpkernel.__file__).resolve().parent != ROOT / "src" / "jpkernel":
        sys.exit(f"replay: imported jpkernel from {jpkernel.__file__}, not from {ROOT / 'src'}")
    ops = next(workloads.rounds(workload, seed))
    call = workloads.CALL[workload]
    with open(path, "w") as fh:
        for op in ops:
            try:
                out = call(op)
            except Exception as exc:  # a raising op is recorded like any output
                out = exc
            fh.write(json.dumps({"op": op, "out": _exact(out)}, sort_keys=True) + "\n")
    return len(ops)


def _leaves(out, key="out"):
    """{key path: leaf} of a record's out; a scan report's JSON is opened up."""
    if isinstance(out, dict):
        items = out.items()
    elif isinstance(out, list):
        items = enumerate(out)
    else:
        return {key: out}
    leaves = {}
    for name, v in items:
        if name == "report" and isinstance(v, str):
            v = json.loads(v)
        leaves.update(_leaves(v, f"{key}.{name}"))
    return leaves


def _as_float(v):
    """v as a float if it is a number or a float's hex record, else None."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if isinstance(v, str) and v.lstrip("-").startswith("0x"):
        return float.fromhex(v)
    return None


def _relative(u, v):
    """The relative difference of two float leaves, or None unless both
    are floats and one is nonzero."""
    fu, fv = _as_float(u), _as_float(v)
    if fu is None or fv is None or max(abs(fu), abs(fv)) == 0.0:
        return None
    return abs(fu - fv) / max(abs(fu), abs(fv))


def _differences(x, y, rtol=0.0):
    """(one line per output key whose leaves differ between records x and
    y, the largest relative difference of the float pairs within rtol,
    which make no line); rtol = 0 keeps every difference."""
    left, right = _leaves(x["out"]), _leaves(y["out"])
    lines, close = [], 0.0
    for key in sorted(left.keys() | right.keys()):
        u, v = left.get(key, "<absent>"), right.get(key, "<absent>")
        if u == v:
            continue
        rel = _relative(u, v)
        if rtol > 0.0 and rel is not None and rel <= rtol:
            close = max(close, rel)
            continue
        line = f"  {key}: {u} != {v}"
        if rel is not None:
            line += f" (relative {rel:.2e})"
        lines.append(line)
    return lines, close


def compare(a: Path, b: Path, rtol: float = 0.0) -> int:
    """0 if the records of a and b are equal (their floats within rtol
    relative), else 1 after naming every op that differs and how."""
    with open(a) as fa, open(b) as fb:
        left, right = fa.read().splitlines(), fb.read().splitlines()
    differing = close = 0
    worst = 0.0
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            rx, ry = json.loads(x), json.loads(y)
            lines, rel = _differences(rx, ry, rtol)
            if not lines and rx["op"] != ry["op"]:
                lines = [f"  op: {rx['op']} != {ry['op']}"]
            if not lines:
                close, worst = close + 1, max(worst, rel)
                continue
            differing += 1
            print(f"op {i} differs: {rx['op']}")
            print("\n".join(lines))
    if differing:
        print(f"{differing} of {min(len(left), len(right))} ops differ between {a} and {b}")
    if len(left) != len(right):
        print(f"{a} holds {len(left)} ops, {b} holds {len(right)}")
        return 1
    if differing:
        return 1
    if close:
        print(f"{len(left)} ops equal within relative {rtol:g}: {close} not bitwise, "
              f"the largest relative difference {worst:.2e}")
    else:
        print(f"{len(left)} ops identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="with --compare: floats within this relative difference count as equal")
    args = parser.parse_args(argv)
    if not 0.0 <= args.rtol < math.inf:
        parser.error(f"--rtol must be nonnegative and finite, got {args.rtol}")
    if args.compare:
        return compare(*args.compare, rtol=args.rtol)
    if args.rtol:
        parser.error("--rtol goes with --compare A B")
    if args.workload is None or args.seed is None or args.out is None:
        parser.error("--workload, --seed and --out go together, or give --compare A B")
    n = record(args.workload, args.seed, args.out)
    print(f"{n} ops of {args.workload} round 1 (seed {args.seed}) written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
