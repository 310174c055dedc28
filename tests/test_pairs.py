"""tools/pairs.py: the summary of alternated benchmark pairs.

The tool is loaded from its path; no benchmark is run.
"""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(throughput, p50, correct=True):
    """A canned result line of perfbench/run.py."""
    return json.dumps({
        "correct": correct, "attempted": 28, "failed": 0 if correct else 1,
        "metrics": {"throughput_ops_s": {"value": throughput, "unit": "1/s"},
                    "latency_p50_ms": {"value": p50, "unit": "ms"}},
    })


def _stdout(line):
    return "# env {}\n# workload sharp seed 3: 28 ops, 0 failed\n{\"not\": \"a result\"}\n" + line


def test_result_line_is_the_last_json_object_with_correct():
    assert pairs.result_line(_stdout(_line(40.0, 25.0)))["metrics"]["throughput_ops_s"] == {
        "value": 40.0, "unit": "1/s"}
    assert pairs.result_line("Traceback (most recent call last):\n  ...\n{bad json") is None


def test_summary_gives_values_medians_iqr_and_wins():
    parent = [pairs.result_line(_line(*v)) for v in [(36.0, 25.0), (38.0, 24.0), (37.0, 26.0),
                                                     (40.0, 24.5)]]
    change = [pairs.result_line(_line(*v)) for v in [(80.0, 9.0), (37.5, 12.0), (79.0, 26.0),
                                                     (81.0, 8.0)]]
    lines, ok = pairs.summarize(parent, change, METRICS)
    assert ok
    assert lines == [
        "throughput_ops_s (1/s, higher is better)",
        "  parent 36 38 37 40",
        "  change 80 37.5 79 81",
        "  median parent 37.5 (IQR 1.75), change 79.5; change wins 3 of 4",
        "latency_p50_ms (ms, lower is better)",
        "  parent 25 24 26 24.5",
        "  change 9 12 26 8",
        "  median parent 24.75 (IQR 0.875), change 10.5; change wins 3 of 4",
    ]


@pytest.mark.parametrize("bad", ["not correct", "missing"])
def test_a_run_that_is_not_correct_fails_the_summary(bad):
    parent = [pairs.result_line(_line(36.0, 25.0)), pairs.result_line(_line(38.0, 24.0))]
    change = [pairs.result_line(_line(80.0, 9.0)),
              pairs.result_line(_line(81.0, 8.0, correct=False)) if bad == "not correct" else None]
    lines, ok = pairs.summarize(parent, change, METRICS)
    assert not ok
    if bad == "not correct":
        assert lines[0] == "change run 2: not correct (1 of 28 ops failed)"
        assert "  median parent 37 (IQR 1), change 80.5; change wins 2 of 2" in lines
    else:
        assert lines[0] == "change run 2: no result line"
        assert "  median parent 36 (IQR 0), change 80; change wins 1 of 1" in lines
