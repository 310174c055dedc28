"""Record the exact outputs of one benchmark round, and compare two records.

    python tools/replay.py --workload W --seed S --out FILE
    python tools/replay.py --compare A B

The first form runs round 1 of a perfbench workload (`rounds` and `CALL` of
perfbench/workloads.py) against the src/ of the checkout this file sits in,
and writes one JSON line per op: the op and its output, exactly.  A float is
kept as its bits (float.hex), a scan report as its to_json(), and an
exception as its type and message; pointwise ops record every route.

The second form exits 1 and names the first op whose records differ, or
exits 0.  Running the first form in two checkouts, say a parent commit and
a change to it, and comparing the files shows whether the change moved any
value, last bits and error messages included.  perfbench is only imported.
"""

from __future__ import annotations

import argparse
import json
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


def compare(a: Path, b: Path) -> int:
    """0 if the records of a and b are equal, else 1 after naming the first
    op that differs."""
    with open(a) as fa, open(b) as fb:
        left, right = fa.read().splitlines(), fb.read().splitlines()
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            rx, ry = json.loads(x), json.loads(y)
            print(f"op {i} differs: {rx['op']}\n  {a}: {rx['out']}\n  {b}: {ry['out']}")
            return 1
    if len(left) != len(right):
        print(f"{a} holds {len(left)} ops, {b} holds {len(right)}")
        return 1
    print(f"{len(left)} ops identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.out is None:
        parser.error("--workload, --seed and --out go together, or give --compare A B")
    n = record(args.workload, args.seed, args.out)
    print(f"{n} ops of {args.workload} round 1 (seed {args.seed}) written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
