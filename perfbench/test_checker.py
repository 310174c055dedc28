"""Self-tests of the benchmark's checker and loop.

    python3 -m pytest -q perfbench/test_checker.py

They show that a route value perturbed by 1e-5 relative fails its check, that
an op raising any exception counts as failed while the run goes on, that one
unexpected failure turns `correct` false, and that the tail latency is read at
the right percentile for a given sample count.
"""

import json
import math

import pytest

import run

run._bootstrap()

import workloads  # noqa: E402  (needs the checkout's src on the path)
from jpkernel.errors import QuadratureError  # noqa: E402

VALUE_OP = dict(kind="value", alpha=0.5, beta=0.5, t=0.5, theta=1.0, phi=2.0)
CHEB_OP = dict(kind="value", alpha=-0.5, beta=-0.5, t=0.5, theta=1.0, phi=2.0)
DERIV_OP = dict(kind="deriv", alpha=-0.75, beta=0.5, t=0.3, theta=0.7, phi=2.2, deriv=[0, 1, 1])


@pytest.mark.parametrize("op", [VALUE_OP, CHEB_OP, DERIV_OP], ids=["value", "closed-form", "deriv"])
def test_route_perturbed_by_1e5_fails(op):
    out = workloads.call_pointwise(op)
    deviation, problems = workloads.judge_pointwise(op, out)
    assert problems == [] and deviation < 1e-7
    for route in out:
        bent = dict(out, **{route: out[route] * (1.0 + 1e-5)})
        result = run.run_op(op, lambda _op: bent, workloads.judge_pointwise)
        assert result.problems, f"a 1e-5 error in {route} passed the check"
        assert result.deviation >= 4e-6


def test_raising_ops_count_as_failed_and_run_continues():
    errors = [QuadratureError("did not stabilize"), ZeroDivisionError("0.0 cannot be raised"),
              ValueError("math domain error")]

    def call(op):
        if op["i"] % 2:
            raise errors[op["i"] // 2]
        return op["i"]

    rounds = [[{"i": i} for i in range(6)]]
    results = []
    done = run.run_rounds(iter(rounds), call, lambda op, out: (0.0, []), 1, results)
    assert done == rounds and len(results) == 6
    assert [bool(r.problems) for r in results] == [False, True] * 3
    assert "QuadratureError" in results[1].problems[0]
    assert "ZeroDivisionError" in results[3].problems[0]
    assert "math domain error" in results[5].problems[0]
    metrics, notes = run.end_to_end(results, setup_s=1.0, peak_rss_mb=100.0)
    assert notes["failed_frac"] == 0.5 and metrics["ok_frac"][0] == 0.5


def test_failed_check_is_counted():
    results = []
    run.run_rounds(iter([[{"i": 0}, {"i": 1}]]), lambda op: op,
                   lambda op, out: (1e-3, ["off"] if out["i"] else []), 1, results)
    assert [r.problems for r in results] == [[], ["off"]]
    assert run.end_to_end(results, 1.0, 100.0)[0]["correct_digits"][0] == pytest.approx(3.0)


@pytest.mark.parametrize("n, p, beyond", [
    (19, 50, 9),      # too few samples: the median, with fewer than ten beyond
    (20, 50, 10),
    (52, 80, 10),
    (100, 90, 10),
    (200, 95, 10),
    (1000, 99, 10),
    (5000, 99, 50),   # 99 is the highest percentile used
])
def test_tail_percentile(n, p, beyond):
    assert run.tail_percentile(n) == (p, beyond)
    samples = list(range(1, n + 1))
    value = run.percentile(samples, p)
    assert sum(1 for x in samples if x > value) == beyond


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 1001):
        p, beyond = run.tail_percentile(n)
        assert beyond >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_latencies_are_those_of_every_op():
    results = [run.OpResult({"point": k % 3}, latency=0.1 * (k + 1), deviation=None,
                            problems=[] if k != 4 else ["off"], checked=True) for k in range(6)]
    metrics, notes = run.end_to_end(results, 1.0, 123.0)
    assert notes["ops"] == 6
    assert metrics["latency_p50_ms"][0] == pytest.approx(350.0)
    assert metrics["throughput_ops_s"][0] == pytest.approx(5 / 2.1)
    assert metrics["peak_rss_mb"][0] == 123.0


def _pointwise_result(point, problems):
    return run.OpResult({"kind": "x", "point": point}, 0.1, None, problems, checked=True)


def _correct(results):
    return run.verdict(results, lambda op, problems: workloads.expected_failure("pointwise", op, problems))


TINY_1E8_ON_DIAGONAL = workloads._TINY_FIRST + 8
FIRST_DERIV = workloads.VALUE_OPS_PER_ROUND


def test_known_failures_keep_correct_true():
    results = [_pointwise_result(k, []) for k in range(workloads._TINY_FIRST)]
    results.append(_pointwise_result(
        TINY_1E8_ON_DIAGONAL, ["integral raised QuadratureError: did not stabilize",
                               "general raised ZeroDivisionError: 0.0 cannot be raised"]))
    results.append(_pointwise_result(
        workloads._TINY_FIRST, ["integral off the closed form by 8.11e-08 > 1e-09"]))
    results.append(_pointwise_result(FIRST_DERIV, ["integral raised QuadratureError: x"]))
    assert _correct(results)
    # a known failing point that passes (a fix) keeps correct true as well
    assert _correct(results + [_pointwise_result(TINY_1E8_ON_DIAGONAL, [])])


@pytest.mark.parametrize("point, problems", [
    (3, ["route spread 2e-05 > 1e-06 over ['f4', 'integral', 'series']"]),  # not a known point
    (3, ["raised ZeroDivisionError: float division by zero"]),
    (workloads._TINY_FIRST, ["route spread 2e-05 > 1e-06 over ['general', 'integral']"]),  # new kind
    (FIRST_DERIV, ["series raised QuadratureError: x"]),  # another route
    (FIRST_DERIV, ["check raised ValueError: math domain error"]),
])
def test_one_unexpected_failure_turns_correct_false(point, problems):
    results = [_pointwise_result(k, []) for k in range(10)] + [_pointwise_result(point, problems)]
    assert not _correct(results)


def test_unchecked_op_is_not_correct():
    assert not run.verdict([run.OpResult({"point": 0}, 0.1, None, [])], lambda op, problems: False)


def test_known_failures_are_the_tiny_t_slice_and_the_design_corner():
    ops = next(workloads.rounds("pointwise", 3))
    by_point = {op["point"]: op for op in ops}
    for point in workloads.KNOWN_FAILURES["pointwise"]:
        op = by_point[point]
        assert op["kind"] == "tiny" or (op["kind"] == "deriv" and op["deriv"] == [0, 1, 0])
    op = by_point[TINY_1E8_ON_DIAGONAL]
    assert op["t"] == 1e-8 and op["theta"] == op["phi"]


def test_result_line_names_match_benchmark_json():
    import traced

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(traced.PER_LAYER) == [m["name"] for m in spec["per_layer"]]
    metrics, _ = run.end_to_end([_pointwise_result(0, [])], 1.0, 1.0)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
