"""Set-up time of a workload: import jpkernel and complete one op, all caches cold.

run.py starts this in a fresh interpreter once per sample and sends the op as
JSON on stdin.  It prints the seconds from just before ``import jpkernel`` to
the op's return, the cost every ``jpk`` call pays before its first result.

    python3 perfbench/first_op.py --workload sharp < op.json
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    op = json.loads(sys.stdin.read())
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    import workloads  # imports jpkernel, numpy and scipy.special

    workloads.CALL[args.workload](op)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
