"""tools/replay.py: exact records of a benchmark round and their comparison.

The tool is loaded from its path; no workload is run.
"""

import importlib.util
import json
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "replay.py"
_spec = importlib.util.spec_from_file_location("replay", _PATH)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

OPS = [["integral", 0.05, 1.0, 1.02], ["series", 0.5, 1.0, 2.0], ["f4", 0.5, 1.0, 2.0]]
OUTS = [30.6, 0.589073755416933, ValueError("t must be positive and finite, got 0.0")]


def _write(path, outs, ops=OPS):
    with open(path, "w") as fh:
        for op, out in zip(ops, outs):
            fh.write(json.dumps({"op": op, "out": replay._exact(out)}, sort_keys=True) + "\n")
    return path


def test_equal_records_compare_equal(tmp_path, capsys):
    a, b = _write(tmp_path / "a.jsonl", OUTS), _write(tmp_path / "b.jsonl", OUTS)
    assert replay.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3 ops identical\n"


def test_one_bit_names_the_first_differing_op(tmp_path, capsys):
    nudged = [OUTS[0], math.nextafter(OUTS[1], math.inf), OUTS[2]]
    a, b = _write(tmp_path / "a.jsonl", OUTS), _write(tmp_path / "b.jsonl", nudged)
    assert replay.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"op 1 differs: {OPS[1]}\n")
    assert OUTS[1].hex() in out and nudged[1].hex() in out


def test_every_differing_op_and_key_is_named(tmp_path, capsys):
    ops = OPS + [["pointwise", 0.1, 1.0, 1.05]]
    routes = {"f4": 0.25, "series": 0.25, "general": ValueError("no")}
    moved = {"f4": 0.25 * (1 + 2**-40), "series": 0.25, "general": ValueError("no!")}
    nudged = [OUTS[0] * 2, OUTS[1], OUTS[2], moved]
    a = _write(tmp_path / "a.jsonl", OUTS + [routes], ops)
    b = _write(tmp_path / "b.jsonl", nudged, ops)
    assert replay.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"op 0 differs: {OPS[0]}",
        f"  out: {(30.6).hex()} != {(61.2).hex()} (relative 5.00e-01)",
        f"op 3 differs: {ops[3]}",
        f"  out.f4: {(0.25).hex()} != {moved['f4'].hex()} (relative 9.09e-13)",
        "  out.general.message: no != no!",
        f"2 of 4 ops differ between {a} and {b}",
    ]


def test_rtol_counts_close_floats_as_equal(tmp_path, capsys):
    routes = {"f4": 0.25, "series": 0.25, "general": ValueError("no")}
    moved = {"f4": 0.25 * (1 + 2**-40), "series": 0.25, "general": ValueError("no")}
    ops = OPS + [["pointwise", 0.1, 1.0, 1.05]]
    a = _write(tmp_path / "a.jsonl", OUTS + [routes], ops)
    b = _write(tmp_path / "b.jsonl", [OUTS[0] * (1 + 1e-9)] + OUTS[1:] + [moved], ops)
    assert replay.main(["--compare", str(a), str(b), "--rtol", "1e-7"]) == 0
    assert capsys.readouterr().out == (
        "4 ops equal within relative 1e-07: 2 not bitwise, the largest relative difference 1.00e-09\n")
    # The default stays exact.
    assert replay.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"2 of 4 ops differ between {a} and {b}"


def test_rtol_keeps_every_other_difference(tmp_path, capsys):
    far = [OUTS[0] * (1 + 1e-6), OUTS[1] * (1 + 1e-9), ValueError("t must be positive")]
    a, b = _write(tmp_path / "a.jsonl", OUTS), _write(tmp_path / "b.jsonl", far)
    assert replay.main(["--compare", str(a), str(b), "--rtol", "1e-7"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"op 0 differs: {OPS[0]}",
        f"  out: {OUTS[0].hex()} != {far[0].hex()} (relative 1.00e-06)",
        f"op 2 differs: {OPS[2]}",
        f"  out.message: {OUTS[2]} != {far[2]}",
        f"2 of 3 ops differ between {a} and {b}",
    ]


@pytest.mark.parametrize("argv", [["--compare", "a", "b", "--rtol", "-1"],
                                  ["--compare", "a", "b", "--rtol", "nan"],
                                  ["--workload", "sharp", "--seed", "3", "--out", "x", "--rtol", "1e-7"]],
                         ids=["negative", "nan", "without-compare"])
def test_rtol_is_refused_where_it_means_nothing(argv, capsys):
    with pytest.raises(SystemExit) as info:
        replay.main(argv)
    assert info.value.code == 2
    assert "--rtol" in capsys.readouterr().err


def test_record_counts_differ(tmp_path, capsys):
    a, b = _write(tmp_path / "a.jsonl", OUTS), _write(tmp_path / "b.jsonl", OUTS[:2])
    assert replay.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"{a} holds 3 ops, {b} holds 2\n"


def test_exact_keeps_bits_and_exceptions():
    assert replay._exact(0.1) == "0x1.999999999999ap-4"
    assert float.fromhex(replay._exact(OUTS[1])) == OUTS[1]
    assert replay._exact(OUTS[2]) == {"raised": "ValueError",
                                     "message": "t must be positive and finite, got 0.0"}
    assert replay._exact({"value": 1.0, "deriv": (2.0, -0.5)}) == {
        "value": "0x1.0000000000000p+0", "deriv": ["0x1.0000000000000p+1", "-0x1.0000000000000p-1"]}


def test_workload_needs_seed_and_out(capsys):
    with pytest.raises(SystemExit) as info:
        replay.main(["--workload", "sharp"])
    assert info.value.code == 2
    assert "--workload, --seed and --out go together" in capsys.readouterr().err
