"""CLI contract tests: flags, exit codes, config precedence, goldens."""

import inspect
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from jpkernel import czkernels, operators, sharp
from jpkernel.cli import main
from jpkernel.kernel import closed_form_chebyshev
from jpkernel.params import JacobiParams
from jpkernel.report import format_float

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_chebyshev_value_fifteen_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "-0.5", "--beta", "-0.5",
            "--t", "1", "--theta", "1", "--phi", "2",
        )
        assert code == 0
        value = float(out.strip())
        assert value == pytest.approx(closed_form_chebyshev(1.0, 1.0, 2.0), rel=1e-12)
        assert len(out.strip().replace("-", "").replace(".", "").lstrip("0")) >= 14

    def test_f4_zero_argument_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "-0.75", "--beta", "-0.8",
            "--t", "0.7", "--theta", "0", "--phi", "3.141592653589793",
            "--method", "f4",
        )
        assert code == 0
        from jpkernel.kernel import jph_correction
        from jpkernel.params import JacobiParams

        p = JacobiParams(-0.75, -0.8)
        ref = p.c_ab * math.sinh(0.35) / math.cosh(0.35) ** p.sigma + jph_correction(p, 0.7)
        assert out.strip() == f"{ref:.15g}"

    def test_out_gets_the_value_line(self, capsys, tmp_path):
        # --out used to be ignored: the value went to stdout and no file was made.
        argv = ("kernel", "--alpha", "0.5", "--beta", "0.5", "--t", "1", "--theta", "1",
                "--phi", "2")
        _, printed, _ = run_cli(capsys, *argv)
        out_path = tmp_path / "k.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == printed == "0.589073755416933\n"

    def test_invalid_alpha_usage_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--alpha", "-1.5", "--beta", "0",
            "--t", "1", "--theta", "1", "--phi", "2",
        )
        assert code == 2
        assert "alpha must exceed -1" in err

    def test_numeric_failure_exit(self, capsys):
        # F4 too close to its convergence boundary
        code, _, err = run_cli(
            capsys, "kernel", "--alpha", "0", "--beta", "0",
            "--t", "0.0001", "--theta", "1", "--phi", "1", "--method", "f4",
        )
        assert code == 3
        assert "numeric failure" in err

    def test_large_t_series_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "0.5", "--beta", "0.5",
            "--t", "1000", "--theta", "1", "--phi", "2",
        )
        assert code == 0
        from jpkernel.kernel import series_H
        from jpkernel.params import JacobiParams

        assert out.strip() == f"{series_H(JacobiParams(0.5, 0.5), 1000.0, 1.0, 2.0):.15g}"

    def test_deriv_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "0.5", "--beta", "0.5",
            "--t", "1", "--theta", "1", "--phi", "2", "--deriv", "1,0,0",
            "--method", "series",
        )
        assert code == 0
        from jpkernel.kernel import series_H
        from jpkernel.params import JacobiParams

        ref = series_H(JacobiParams(0.5, 0.5), 1.0, 1.0, 2.0, M=1)
        assert out.strip() == f"{ref:.15g}"


class TestCompareCommand:
    def test_pass_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", "0.5", "--beta", "0.5",
            "--t-grid", "0.5", "--theta-grid", "0.4,1.9", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["summary"]["pass"] is True
        header = out_path.read_text().splitlines()[0]
        assert header == "t,theta,phi,series,f4,integral,general,max_rel_diff"

    def test_tolerance_violation_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", "0.5", "--beta", "0.5",
            "--t-grid", "0.5", "--theta-grid", "0.4", "--tol", "1e-18",
        )
        assert code == 4

    def test_non_finite_tol_usage_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--alpha", "0.5", "--beta", "0.5",
            "--t-grid", "0.5", "--theta-grid", "0.4", "--tol", "nan",
        )
        assert code == 2
        assert "tol" in err
        assert out == ""

    def test_empty_grid_usage_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--alpha", "0.5", "--beta", "0.5", "--t-grid", "",
        )
        assert code == 2

    def test_theta_outside_range_usage_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--alpha", "0", "--beta", "0", "--t-grid", "0.5",
            "--theta-grid", "4.0", "--phi-grid", "1.0",
        )
        assert code == 2
        assert "theta must lie in [0, pi], got 4.0" in err
        assert out == ""

    def test_nonpositive_t_usage_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--alpha", "0", "--beta", "0", "--t-grid", "-0.5",
            "--theta-grid", "1.0",
        )
        assert code == 2
        assert "t must be positive and finite, got -0.5" in err
        assert "failed" not in err
        assert out == ""


class TestParseErrors:
    SCAN = ("scan", "--scan", "growth", "--kernel", "stieltjes", "--alpha", "0", "--beta", "0")

    @pytest.mark.parametrize("argv, flag", [
        (SCAN + ("--atoms", "1.0"), "--atoms"),
        (SCAN + ("--atoms", "1:x"), "--atoms"),
        (SCAN + ("--theta-grid", "0:1"), "--theta-grid"),
        (SCAN + ("--theta-grid", "0.5:1:x"), "--theta-grid"),
        (SCAN + ("--phi-grid", "0.5,y"), "--phi-grid"),
        (("compare", "--alpha", "0", "--beta", "0", "--t-grid", "0.1:0.5"), "--t-grid"),
        (("kernel", "--alpha", "0", "--beta", "0", "--t", "1", "--theta", "1", "--phi", "2",
          "--deriv", "1,x,0"), "--deriv"),
        (("apply", "--op", "riesz", "--alpha", "0", "--beta", "0", "--eval-at", "0:1"),
         "--eval-at"),
        (("scan", "--scan", "growth", "--kernel", "laplace", "--alpha", "0", "--beta", "0",
          "--laplace-profile", "imaginary:abc"), "--laplace-profile"),
    ], ids=lambda v: " ".join(v[-2:]) if isinstance(v, tuple) else v)
    def test_malformed_value_names_the_flag(self, capsys, tmp_path, argv, flag):
        if argv[0] == "apply":
            expansion = tmp_path / "f.json"
            expansion.write_text('{"alpha": 0.0, "beta": 0.0, "n_max": 1, "coeffs": [1.0, 0.5]}')
            argv = argv + ("--in", str(expansion))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert flag in err
        assert "wants" in err


class TestScanCommand:
    def test_cap_violation_still_emits_report(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--scan", "growth", "--kernel", "stieltjes",
            "--atoms", "1:100", "--alpha", "-0.5", "--beta", "-0.5",
            "--theta-grid", "0.6,2.0", "--cap", "1.5", "--out", str(out_path),
        )
        assert code == 4
        assert out_path.exists()
        summary = json.loads(capsys_last_line(out))
        assert summary["summary"]["pass"] is False

    def test_sharp_scan_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--scan", "sharp", "--alpha", "-0.5", "--beta", "-0.5",
            "--t-grid", "0.1,0.5", "--theta-grid", "0.5,2.0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["summary"]) == {"min", "max", "cap", "pass"}
        assert payload["columns"] == ["t", "theta", "phi", "kernel", "comparator", "ratio"]

    def test_empty_grid_usage_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--scan", "sharp", "--alpha", "0", "--beta", "0",
            "--t-grid", "", "--theta-grid", "",
        )
        assert code == 2

    @pytest.mark.parametrize("cap", ["0.5", "nan", "inf"])
    def test_cap_below_one_usage_exit(self, capsys, cap):
        code, _, err = run_cli(
            capsys, "scan", "--scan", "growth", "--kernel", "stieltjes",
            "--alpha", "0", "--beta", "0", "--theta-grid", "0.6,2.0", "--cap", cap,
        )
        assert code == 2
        assert "cap" in err

    def test_samples_below_one_usage_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--scan", "smoothness", "--kernel", "stieltjes",
            "--alpha", "0", "--beta", "0", "--samples", "0",
        )
        assert code == 2
        assert "samples" in err

    @pytest.mark.parametrize("flag, grid", [("--theta-grid", "4,5"), ("--phi-grid", "1.0,2.0")])
    def test_smoothness_refuses_grids(self, capsys, flag, grid):
        # the smoothness scan samples its own angles; a grid would be ignored
        code, out, err = run_cli(
            capsys, "scan", "--scan", "smoothness", "--kernel", "stieltjes",
            "--alpha", "0", "--beta", "0", flag, grid, "--samples", "2",
        )
        assert code == 2
        assert flag in err
        assert out == ""

    def test_smoothness_refuses_grid_config_key(self, capsys, tmp_path):
        config = tmp_path / "scan.json"
        config.write_text('{"phi-grid": "1.0,2.0"}')
        code, out, err = run_cli(
            capsys, "scan", "--scan", "smoothness", "--kernel", "stieltjes",
            "--alpha", "0", "--beta", "0", "--samples", "2", "--config", str(config),
        )
        assert code == 2
        assert "--phi-grid" in err
        assert out == ""

    @pytest.mark.parametrize("scan", ["sharp", "growth"])
    def test_grid_angle_outside_range_usage_exit(self, capsys, scan):
        code, out, err = run_cli(
            capsys, "scan", "--scan", scan, "--kernel", "stieltjes", "--alpha", "0",
            "--beta", "0", "--theta-grid", "4,5", "--t-grid", "0.5",
        )
        assert code == 2
        assert "theta must lie in [0, pi], got 4.0" in err
        assert out == ""

    def test_diagonal_only_grid_usage_exit(self, capsys):
        # the only grid pair lies on the diagonal, so the scan has no points
        code, out, err = run_cli(
            capsys, "scan", "--scan", "growth", "--kernel", "stieltjes",
            "--alpha", "0", "--beta", "0", "--theta-grid", "1.0",
        )
        assert code == 2
        assert "growth" in err
        assert out == ""


class TestExplicitEmptyValues:
    """A flag given an empty value is refused, not taken as unset."""

    CHEB = ("--alpha", "-0.5", "--beta", "-0.5")

    @pytest.mark.parametrize("argv, match", [
        (("compare",) + CHEB + ("--t-grid", "0.5", "--theta-grid", "1.0", "--phi-grid", ""),
         "--phi-grid"),
        (("scan", "--scan", "growth") + CHEB + ("--theta-grid", "1.0,2.0", "--phi-grid", ""),
         "--phi-grid"),
        (("scan", "--scan", "growth", "--kernel", "stieltjes") + CHEB
         + ("--theta-grid", "1.0,2.0", "--atoms", ""), "--atoms"),
        (("apply", "--op", "semigroup", "--t", "0.5", "--eval-at", ""), "--eval-at"),
        (("apply", "--op", "multiplier", "--laplace-profile", "", "--atoms", "1:1"),
         "unknown laplace profile ''"),
    ], ids=["compare-phi-grid", "scan-phi-grid", "scan-atoms", "apply-eval-at",
            "apply-laplace-profile"])
    def test_usage_exit(self, capsys, argv, match):
        if argv[0] == "apply":
            argv = argv + ("--in", str(GOLDEN / "expansion_in.json"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert match in err
        assert out == ""

    def test_config_value_usage_exit(self, capsys, tmp_path):
        config = tmp_path / "scan.json"
        config.write_text('{"phi-grid": ""}')
        code, out, err = run_cli(capsys, "scan", "--scan", "growth", *self.CHEB,
                                 "--theta-grid", "1.0,2.0", "--config", str(config))
        assert code == 2
        assert "--phi-grid" in err
        assert out == ""


class TestLibraryDefaults:
    """A scan without the optional flags runs at the library's defaults."""

    CHEB = ("--alpha", "-0.5", "--beta", "-0.5")

    def test_sharp_cap(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--scan", "sharp", *self.CHEB,
                               "--t-grid", "0.1,0.5", "--theta-grid", "0.6,2.0")
        assert code == 0
        default = inspect.signature(sharp.ratio_scan).parameters["cap"].default
        assert json.loads(capsys_last_line(out))["summary"]["cap"] == default

    @pytest.mark.parametrize("kernel, name", [("riesz", "riesz1"), ("gfun", "gfun10")])
    def test_kernel_orders(self, capsys, kernel, name):
        code, out, _ = run_cli(capsys, "scan", "--scan", "growth", "--kernel", kernel,
                               *self.CHEB, "--theta-grid", "0.6,2.0", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["kernel"] == name

    def test_smoothness_samples_and_seed(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--scan", "smoothness", "--kernel", "stieltjes",
                               *self.CHEB)
        assert code == 0
        report = czkernels.smoothness_check(JacobiParams(-0.5, -0.5), "stieltjes")
        assert out.splitlines()[:-1] == report.to_csv().splitlines()


def capsys_last_line(out: str) -> str:
    return out.strip().splitlines()[-1]


class TestApplyCommand:
    def test_semigroup_time_zero_identity(self, capsys, tmp_path):
        src = tmp_path / "e.json"
        src.write_text('{"alpha": -0.5, "beta": -0.5, "n_max": 2, "coeffs": [0.5, 1.0, -0.25]}')
        code, out, _ = run_cli(capsys, "apply", "--op", "semigroup", "--t", "0", "--in", str(src))
        assert code == 0
        assert json.loads(out)["coeffs"] == [0.5, 1.0, -0.25]

    def test_riesz_eval(self, capsys, tmp_path):
        src = tmp_path / "e1.json"
        src.write_text('{"alpha": -0.5, "beta": -0.5, "n_max": 1, "coeffs": [0, 1]}')
        code, out, _ = run_cli(
            capsys, "apply", "--op", "riesz", "--N", "1", "--in", str(src),
            "--eval-at", "0.5",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(-math.sqrt(2 / math.pi) * math.sin(0.5), rel=1e-12)

    @pytest.mark.parametrize("op", ["riesz", "gfun"])
    def test_complex_expansion_samples(self, capsys, tmp_path, op):
        src = tmp_path / "c.json"
        src.write_text('{"alpha": 0.5, "beta": 0.5, "n_max": 3, '
                       '"coeffs": [[1, 0.5], [0.2, 0], [0, 1], [0.1, 0.1]]}')
        code, out, _ = run_cli(capsys, "apply", "--op", op, "--in", str(src),
                               "--eval-at", "0.5,1.0")
        assert code == 0
        exp = operators.expansion_from_dict(json.loads(src.read_text()))
        want = ([operators.riesz_apply(exp, 1)(th) for th in (0.5, 1.0)] if op == "riesz"
                else operators.g_function(exp, 1, 0, [0.5, 1.0]))
        assert out.splitlines() == ["theta,value"] + [
            f"{th!r},{format_float(v)}" for th, v in zip((0.5, 1.0), want)]

    def test_multiplier_const_echoes_input(self, capsys, tmp_path):
        src = tmp_path / "e.json"
        src.write_text('{"alpha": 0.5, "beta": 0.5, "n_max": 2, "coeffs": [0.5, 1.0, -0.25]}')
        code, out, _ = run_cli(
            capsys, "apply", "--op", "multiplier", "--laplace-profile", "const1",
            "--in", str(src),
        )
        assert code == 0
        got = json.loads(out)["coeffs"]
        assert got == pytest.approx([0.5, 1.0, -0.25], abs=1e-10)

    @pytest.mark.parametrize("flag, value, match", [
        ("--atoms", "1:nan", "atom weights must be finite"),
        ("--atoms", "inf:1", "atom locations must be positive and finite"),
        ("--laplace-profile", "imaginary:nan", "gamma must be finite, got nan"),
    ], ids=["atom-weight-nan", "atom-time-inf", "gamma-nan"])
    def test_non_finite_multiplier_usage_exit(self, capsys, flag, value, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "apply", "--op", "multiplier", flag, value,
                                     "--in", str(GOLDEN / "expansion_in.json"))
        assert code == 2
        assert match in err
        assert out == ""

    def test_malformed_expansion_usage_exit(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text('{"alpha": 0.5}')
        code, _, err = run_cli(capsys, "apply", "--op", "semigroup", "--t", "1", "--in", str(src))
        assert code == 2


class TestCoeffsCommand:
    def test_sampled_cosine(self, capsys, tmp_path):
        th = np.linspace(1e-3, math.pi - 1e-3, 400)
        src = tmp_path / "samples.csv"
        np.savetxt(src, np.column_stack([th, np.cos(2 * th)]), delimiter=",")
        code, out, _ = run_cli(
            capsys, "coeffs", "--alpha", "-0.5", "--beta", "-0.5", "--n-max", "4",
            "--in", str(src),
        )
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert coeffs[2] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-3)


class TestConfigPrecedence:
    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 0.5, "beta": 0.5, "t": 9.0}')
        code, out, _ = run_cli(
            capsys, "kernel", "--config", str(cfg), "--t", "1", "--theta", "1", "--phi", "2",
        )
        assert code == 0
        from jpkernel.kernel import series_H
        from jpkernel.params import JacobiParams

        assert out.strip() == f"{series_H(JacobiParams(0.5, 0.5), 1.0, 1.0, 2.0):.15g}"


class TestGoldens:
    """Byte-exact schema pins (shortest round-trip float formatting)."""

    def test_compare_csv(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", "-0.5", "--beta", "-0.5",
            "--t-grid", "0.5,1.0", "--theta-grid", "0.6,2.1", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "compare_cheb.csv").read_bytes()
        assert out.encode() == (GOLDEN / "compare_cheb_summary.json").read_bytes()

    def test_scan_csv_and_json(self, capsys, tmp_path):
        args = ["scan", "--scan", "growth", "--kernel", "stieltjes", "--atoms", "1:1,3:0.5",
                "--alpha", "-0.5", "--beta", "-0.5", "--theta-grid", "0.6,1.5,2.4"]
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, *args, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "scan_growth_cheb.csv").read_bytes()
        out_json = tmp_path / "scan.json"
        code, _, _ = run_cli(capsys, *args, "--format", "json", "--out", str(out_json))
        assert code == 0
        assert out_json.read_bytes() == (GOLDEN / "scan_growth_cheb.json").read_bytes()

    def test_apply_json(self, capsys, tmp_path):
        out_path = tmp_path / "apply.json"
        code, _, _ = run_cli(
            capsys, "apply", "--op", "semigroup", "--t", "0.5",
            "--in", str(GOLDEN / "expansion_in.json"), "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "apply_semigroup.json").read_bytes()


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jpkernel.cli", "kernel", "--alpha", "-0.5", "--beta", "-0.5",
             "--t", "1", "--theta", "1", "--phi", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        value = float(proc.stdout.strip())
        assert value == pytest.approx(closed_form_chebyshev(1.0, 1.0, 2.0), rel=1e-12)
