"""One round of each benchmark workload passes the benchmark's own checks.

perfbench/run.py reports `correct: false` when any op fails its check, unless
the op is a point that the workload's KNOWN_FAILURES records and it failed
only in a recorded way.  So a change that moves a value off its checker's
tolerance, or changes how a known failing point fails, is caught here, by
perfbench's own closed loop, checks and verdict on one round at seed 3.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_is_correct(workload):
    def known(op, problems):
        return workloads.expected_failure(workload, op, problems)

    results = []
    run.run_rounds(workloads.rounds(workload, SEED), workloads.CALL[workload],
                   workloads.JUDGE[workload], 1, results)
    unexpected = [(r.op, r.problems) for r in results if r.problems and not known(r.op, r.problems)]
    assert run.verdict(results, known), unexpected
