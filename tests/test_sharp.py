"""Tests for the sharp-bound comparator and ratio scans."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jpkernel import sharp
from jpkernel.basis import mu_total
from jpkernel.kernel import jph_correction, kernel_H_batch, series_H
from jpkernel.params import JacobiParams
from jpkernel.sharp import comparator, long_time_fit, ratio_scan

from _oracles import chebyshev_H


class TestComparator:
    def test_direct_substitution(self):
        p = JacobiParams(0.3, -0.6)
        got = comparator(p, 1.0, math.pi / 2, math.pi / 2)
        pi2 = math.pi**2
        ref = (1 + pi2 / 2) ** (-p.alpha - 0.5) * (1 + pi2 / 2) ** (-p.beta - 0.5)
        assert_allclose(got, ref, rtol=1e-13)

    def test_long_time_nonnegative_shift(self):
        p = JacobiParams(0.5, 0.5)
        assert_allclose(comparator(p, 5.0, 1.0, 2.0, which="H"), math.exp(-2.5 * p.lam),
                        rtol=1e-14)
        assert comparator(p, 5.0, 1.0, 2.0, "H") == comparator(p, 5.0, 1.0, 2.0, "Hscript")

    def test_long_time_negative_shift(self):
        p = JacobiParams(-0.75, -0.75)
        assert_allclose(comparator(p, 10.0, 1.0, 2.0, "H"), math.exp(-10 * 0.25), rtol=1e-14)
        assert_allclose(comparator(p, 10.0, 1.0, 2.0, "Hscript"), math.exp(2.5), rtol=1e-14)

    def test_value_ordering_invariant(self):
        for a, b in [(0.5, 0.5), (-0.75, -0.75), (0.0, 0.0)]:
            p = JacobiParams(a, b)
            short = comparator(p, 0.5, 1.0, 1.5, "H")
            assert short > 0 and short == comparator(p, 0.5, 1.0, 1.5, "Hscript")
            long_h, long_script = (comparator(p, 3.0, 1.0, 1.5, w) for w in ("H", "Hscript"))
            assert long_h > 0 and long_script > 0
            if p.lam >= 0:
                assert long_h == long_script
            else:
                assert long_h < long_script

    def test_validation(self):
        p = JacobiParams(0, 0)
        with pytest.raises(ValueError):
            comparator(p, -1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            comparator(p, 1.0, 1.0, 2.0, which="bogus")

    @pytest.mark.parametrize("theta, phi, match", [
        (-1.0, 2.0, "theta must lie in \\[0, pi\\], got -1.0"),
        (1.0, 4.0, "phi must lie in \\[0, pi\\], got 4.0"),
        (math.nan, 2.0, "theta must be finite, got nan"),
    ])
    @pytest.mark.parametrize("t", [0.5, 2.0], ids=["short", "long"])
    def test_angles_outside_the_range_are_refused(self, t, theta, phi, match):
        # comparator(HALF, 0.5, -1.0, 2.0) used to return 5.5e-4.
        with pytest.raises(ValueError, match=match):
            comparator(JacobiParams(0.5, 0.5), t, theta, phi)


class TestRatioScan:
    def test_chebyshev_reference(self):
        # ratios computed against the closed cosine form stay in a tight band
        p = JacobiParams(-0.5, -0.5)
        t_grid = np.array([0.1, 0.3, 1.0])
        grid = np.linspace(0.2, math.pi - 0.2, 6)
        report = ratio_scan(p, t_grid, grid, grid)
        for row in report.rows:
            t, theta, phi, kernel, comp, ratio = row
            assert_allclose(kernel, chebyshev_H(t, theta, phi), rtol=1e-8)
            assert ratio > 0
        assert report.ratio_max / report.ratio_min < 50

    def test_single_point_row(self):
        p = JacobiParams(0.0, 0.0)
        report = ratio_scan(p, [0.5], [0.0], [math.pi])
        assert len(report.rows) == 1
        t, theta, phi, kernel, comp, ratio = report.rows[0]
        assert ratio == kernel / comp > 0

    def test_empty_grids_rejected(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError, match="sharp"):
            ratio_scan(p, [], [1.0], [2.0])
        with pytest.raises(ValueError, match="sharp"):
            ratio_scan(p, [0.5], [], [])

    def test_near_minus_one_is_flagged(self):
        p = JacobiParams(-0.95, 0.0)
        report = ratio_scan(p, [0.5], [1.0], [2.0])
        assert report.meta["excluded_from_pass"] is True


@pytest.fixture
def batch_calls(monkeypatch):
    """The (theta, phi) of every kernel_H_batch call ratio_scan makes."""
    calls = []

    def counted(params, t_arr, theta, phi, *args, **kwargs):
        calls.append((theta, phi))
        return kernel_H_batch(params, t_arr, theta, phi, *args, **kwargs)

    monkeypatch.setattr(sharp, "kernel_H_batch", counted)
    return calls


def per_pair_rows(p, t_grid, theta_grid, phi_grid, which="H"):
    """The kernel column as one batch per ordered pair computes it."""
    out = []
    for th in theta_grid:
        for ph in phi_grid:
            h = kernel_H_batch(p, np.asarray(t_grid), th, ph, rtol=1e-7)
            if which == "Hscript":
                h = h - jph_correction(p, np.asarray(t_grid))
            out.extend(h)
    return np.array(out)


class TestMirrorPairs:
    T_GRID = [0.05, 0.5]

    def test_square_grid_evaluates_each_unordered_pair_once(self, batch_calls):
        p = JacobiParams(0.5, -0.75)
        grid = np.linspace(0.3, 2.8, 5)
        report = ratio_scan(p, self.T_GRID, grid, grid)
        assert len(batch_calls) == 15
        assert all(th <= ph for th, ph in batch_calls)
        assert len(report.rows) == 5 * 5 * len(self.T_GRID)
        expected = [(t, th, ph) for th in grid for ph in grid for t in self.T_GRID]
        assert [row[:3] for row in report.rows] == expected
        by_point = {row[:3]: row for row in report.rows}
        for t, th, ph in expected:
            mirror = by_point[(t, ph, th)]
            assert by_point[(t, th, ph)][3] == mirror[3]
            assert by_point[(t, th, ph)][4] == comparator(p, t, th, ph)

    def test_reversed_grid_evaluates_each_unordered_pair_once(self, batch_calls):
        grid = np.linspace(2.8, 0.3, 5)
        report = ratio_scan(JacobiParams(0.5, -0.75), self.T_GRID, grid, grid)
        assert len(batch_calls) == 15 and all(th <= ph for th, ph in batch_calls)
        kernel_col = {row[:3]: row[3] for row in report.rows}
        assert all(kernel_col[(t, th, ph)] == kernel_col[(t, ph, th)]
                   for t, th, ph in kernel_col)

    @pytest.mark.parametrize("which", ["H", "Hscript"])
    @pytest.mark.parametrize("theta_grid, phi_grid", [
        pytest.param([0.4, 1.7, 2.9], [1.1, 2.2], id="rectangular"),
        pytest.param([0.4, 1.7, 2.9], [2.9, 1.7, 0.9, 2.2], id="overlapping"),
    ])
    def test_grids_match_per_pair_evaluation(self, batch_calls, theta_grid, phi_grid, which):
        p = JacobiParams(-0.75, -0.75)  # lam < 0: Hscript differs from H
        report = ratio_scan(p, self.T_GRID, theta_grid, phi_grid, which=which)
        unordered = {tuple(sorted(pair)) for pair in
                     [(th, ph) for th in theta_grid for ph in phi_grid]}
        assert len(batch_calls) == len(unordered)
        kernel_col = np.array([row[3] for row in report.rows])
        assert_allclose(kernel_col, per_pair_rows(p, self.T_GRID, theta_grid, phi_grid, which),
                        rtol=1e-14, atol=0)

    @pytest.mark.parametrize("which", ["H", "Hscript"])
    def test_square_grid_diagonal_rows_are_series_values(self, which):
        p = JacobiParams(-0.75, -0.75)  # lam < 0: Hscript differs from H
        t_grid = np.array([0.05, 0.1, 0.5])
        grid = [0.0, 1.2, math.pi]
        report = ratio_scan(p, t_grid, grid, grid, which=which)
        for th in grid:
            want = series_H(p, t_grid, th, th)
            if which == "Hscript":
                want = want - jph_correction(p, t_grid)
            got = [row[3] for row in report.rows if row[1] == row[2] == th]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("theta_grid, phi_grid", [
        ([1.0], [math.nan]), ([math.nan], [1.0]), ([1.0, math.nan], [1.0, math.nan]),
    ])
    def test_nan_in_a_grid_raises(self, theta_grid, phi_grid):
        with pytest.raises(ValueError, match="must be finite, got nan"):
            ratio_scan(JacobiParams(0.0, 0.0), [0.05], theta_grid, phi_grid)


class TestScanValidation:
    @pytest.mark.parametrize("theta_grid, phi_grid, match", [
        ([1.0, 4.0], [1.0], r"theta must lie in \[0, pi\], got 4.0"),
        ([1.0], [-0.5, 2.0], r"phi must lie in \[0, pi\], got -0.5"),
    ], ids=["theta-above-pi", "phi-below-0"])
    def test_angle_outside_range_rejected_before_any_evaluation(self, batch_calls, theta_grid,
                                                                 phi_grid, match):
        with pytest.raises(ValueError, match=match):
            ratio_scan(JacobiParams(0.0, 0.0), [0.05], theta_grid, phi_grid)
        assert batch_calls == []

    @pytest.mark.parametrize("kwargs, match", [
        (dict(which="bogus"), "which must be 'H' or 'Hscript', got 'bogus'"),
        (dict(cap=math.nan), "cap must be positive and finite, got nan"),
        (dict(cap=math.inf), "cap must be positive and finite, got inf"),
        (dict(cap=0.0), "cap must be positive and finite, got 0.0"),
        (dict(cap=-5.0), "cap must be positive and finite, got -5.0"),
    ])
    def test_rejected_before_any_kernel_evaluation(self, batch_calls, kwargs, match):
        grid = np.linspace(0.3, 2.8, 5)
        with pytest.raises(ValueError, match=match):
            ratio_scan(JacobiParams(0.0, 0.0), [0.05, 0.5], grid, grid, **kwargs)
        assert batch_calls == []


class TestLongTime:
    def test_lam_zero_ratio_converges_to_constant(self):
        # exp(t |shift|) H_t -> 1/mu_total, so H / comparator -> 1/pi here
        p = JacobiParams(-0.5, -0.5)
        ts = np.array([5.0, 10.0, 20.0])
        h = kernel_H_batch(p, ts, 1.3, 2.0)
        ratio = h / np.exp(-0.5 * ts * abs(p.lam))
        limit = 1.0 / mu_total(p)
        assert_allclose(ratio, limit, rtol=2e-3)
        assert abs(ratio[2] - limit) < abs(ratio[0] - limit)

    def test_fit_refuses_an_angle_outside_the_range(self):
        # long_time_fit(HALF, 5.0, 1.0) used to return a fit.
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got 5.0"):
            long_time_fit(JacobiParams(0.5, 0.5), 5.0, 1.0)

    def test_fit_rate_meets_bound(self):
        for a, b in [(0.5, 0.5), (-0.75, -0.75)]:
            p = JacobiParams(a, b)
            rate, _ = long_time_fit(p, 0.9, 2.1)
            eps = min(a + b + 2.0, 1.0)
            assert rate >= 0.8 * eps / 2.0
