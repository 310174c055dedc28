"""Tests for the four kernel evaluation routes and their dispatch."""

import csv
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jpkernel import czkernels, kernel, pi_measures
from jpkernel.basis import theta_quad_rule, trig_poly_table
from jpkernel.errors import (
    QuadratureError,
    SlowConvergenceError,
    TruncationError,
    UnsupportedOrderError,
)
from jpkernel.kernel import (
    KernelQuery,
    _integral_terms,
    closed_form_chebyshev,
    h_script_f4,
    h_script_general,
    h_script_integral,
    jph_correction,
    kernel_eval,
    series_H,
)
from jpkernel.params import JacobiParams
from jpkernel.qpsi import psi_evaluator

from _f4_reference import h_script_f4_reference
from _integral_reference import (
    integral_sum,
    psi_integrand,
    row_sums,
    t_integral_integrand,
    weighted_rows,
)
from _oracles import chebyshev_H, trig_H

CHEB = JacobiParams(-0.5, -0.5)
NON_FINITE = [math.inf, -math.inf, math.nan]

with open(Path(__file__).parent / "golden" / "compare_cheb.csv", newline="") as _fh:
    _COMPARE_POINTS = [(CHEB, float(r["t"]), float(r["theta"]), float(r["phi"]))
                       for r in csv.DictReader(_fh)]
# (params, t, theta, phi) where the F4 route is checked against the reference
# loop.  On the sweep path, equal bit for bit: the compare golden (at most 419
# anti-diagonals); the theta = 0, phi = pi corner; and 801 diagonals at
# alpha = beta = 0, close below the switch.  On the column path, within
# F4_RTOL, because the columns sum the same series in another order:
# theta = 0 (x = 0, 1,267 diagonals) and phi = pi (y ~ 4e-33, 1,927
# diagonals), whose zero and underflowing entries meet the sweep's
# renormalization mask, and rho = 1/cosh(0.05) ~ 0.99875 (10,426 diagonals).
F4_SWEEP_POINTS = _COMPARE_POINTS + [
    (JacobiParams(0.0, 0.0), 0.7, 0.0, math.pi),
    (JacobiParams(0.0, 0.0), 0.3, 1.5, 1.3),
]
F4_COLUMN_POINTS = [
    (JacobiParams(0.5, -0.75), 0.05, 0.0, 0.3),
    (JacobiParams(-0.75, 0.5), 0.05, 2.9, math.pi),
    (JacobiParams(2.0, -0.25), 0.1, 1.2, 1.2),
]
# The column path near the case boundary alpha, beta = -1/2, where the
# recurrence's first denominator gamma + 1/2 + 2m would vanish at m = 0 for
# the summed axis's gamma, and at the edge of the parameter range.  Each set
# is checked at one point with x < y (columns over alpha's axis) and one
# with x > y (over beta's).
_NEAR_HALF = [-0.5 + d for d in (0.0, 1e-3, -1e-3, 1e-9, -1e-9, 1e-12, -1e-12)]
F4_COLUMN_SETS = ([(g, 0.3) for g in _NEAR_HALF] + [(0.3, g) for g in _NEAR_HALF]
                  + [(-0.5, -0.5), (-0.99, -0.99), (-0.99, 0.3), (0.3, -0.99)])
F4_ORIENTED_POINTS = [(0.05, 0.5, 0.6), (0.05, 2.6, 2.7)]  # x < y, x > y

# The general route's sweep: the acceptance sets at angle pairs near 0, near
# pi, mid-range and 1e-3 off the diagonal.  Near the diagonal (or the
# antipode) at small t the route's terms cancel past its rtol for the larger
# alpha + beta + 2, and it refuses with QuadratureError at these points;
# without its roundoff floor it returned values 4.7e-7 and 1.4e-4 off at the
# first and third.
GENERAL_SWEEP_SETS = [(0.5, 0.5), (-0.75, 0.5), (0.5, -0.75), (-0.75, -0.75), (0.0, 0.0),
                      (2.0, -0.25)]
GENERAL_SWEEP_ANGLES = [(0.02, 0.05), (math.pi - 0.05, math.pi - 0.02), (1.0, 2.0), (1.2, 1.201)]
GENERAL_SWEEP_REFUSED = {
    ((0.5, 0.5), 0.01, 1.2, 1.201),
    ((2.0, -0.25), 0.01, math.pi - 0.05, math.pi - 0.02),
    ((2.0, -0.25), 0.01, 1.2, 1.201),
    ((2.0, -0.25), 0.03, math.pi - 0.05, math.pi - 0.02),
    ((2.0, -0.25), 0.03, 1.2, 1.201),
}


class TestClosedForm:
    def test_large_t_limit(self):
        assert_allclose(closed_form_chebyshev(60.0, 1.0, 2.0), 1 / math.pi, rtol=1e-12)

    def test_antipodal_simplification(self):
        t = 0.8
        r = math.exp(-t)
        assert_allclose(
            closed_form_chebyshev(t, 0.0, math.pi), (1 / math.pi) * (1 - r) / (1 + r),
            rtol=1e-13,
        )

    def test_matches_independent_writeup(self):
        for t, th, ph in [(0.3, 0.7, 2.1), (1.5, 3.0, 0.2)]:
            assert_allclose(closed_form_chebyshev(t, th, ph), chebyshev_H(t, th, ph), rtol=1e-14)


class TestSeries:
    def test_chebyshev_point(self):
        got = series_H(CHEB, 1.0, math.pi / 2, math.pi / 2)
        assert_allclose(got, closed_form_chebyshev(1.0, math.pi / 2, math.pi / 2), rtol=1e-12)

    def test_mass_identity(self, acceptance_params):
        p = acceptance_params
        rule = theta_quad_rule(p, 256)
        vals = series_H(p, 1.0, 1.1, rule.nodes)
        assert_allclose(np.sum(rule.weights * vals), math.exp(-0.5 * abs(p.lam)), atol=1e-10)

    def test_long_time_leading_term(self):
        p = JacobiParams(0.0, 0.0)
        t = 30.0
        got = math.exp(0.5 * t * abs(p.lam)) * series_H(p, t, 0.9, 2.0)
        assert_allclose(got, 2.0**p.lam * p.c_ab, rtol=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            series_H(JacobiParams(0, 0), 1e-6, 1.0, 2.0)

    @pytest.mark.parametrize("t", [50.0, 400.0, 1e3, 1e6], ids=str)
    def test_large_t(self, t):
        # At large t the cut's fixed-point iteration falls below one term;
        # it must keep the floor of eight terms, not take the log of n <= 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(series_H(CHEB, t, 1.0, 2.0), closed_form_chebyshev(t, 1.0, 2.0),
                            rtol=1e-13)
            for ab in [(5.0, 5.0), (0.5, 0.5), (-0.5, -0.5)]:
                for M, N, L in [(0, 0, 0), (0, 1, 0), (1, 2, 0), (1, 2, 1)]:
                    assert np.isfinite(series_H(JacobiParams(*ab), t, 1.0, 2.0, M=M, N=N, L=L))
            query = KernelQuery(t=t, theta=1.0, phi=2.0, deriv=(1, 2, 0))
            assert np.isfinite(kernel_eval(JacobiParams(0.5, 0.5), query))


def _f4_point_id(v):
    return f"{v:g}" if isinstance(v, float) else f"a{v.alpha}_b{v.beta}"


@pytest.fixture
def column_calls(monkeypatch):
    """The argument tuples of every kernel._f4_columns call in the test."""
    return _spy_on(monkeypatch, "_f4_columns")


class TestF4:
    def test_zero_argument_case(self):
        # theta = 0, phi = pi kills both series variables
        for a, b in [(-0.5, -0.5), (0.5, -0.75), (-0.75, -0.8)]:
            p = JacobiParams(a, b)
            t = 0.7
            got = h_script_f4(p, t, 0.0, math.pi)
            ref = p.c_ab * math.sinh(0.5 * t) / math.cosh(0.5 * t) ** p.sigma
            assert_allclose(got, ref, rtol=1e-12)

    def test_cross_method_chebyshev(self):
        got = h_script_f4(CHEB, 1.0, math.pi / 3, 2 * math.pi / 3)
        ref = series_H(CHEB, 1.0, math.pi / 3, 2 * math.pi / 3) - jph_correction(CHEB, 1.0)
        assert_allclose(got, ref, rtol=1e-9)

    def test_cross_method_profile_regime(self):
        p = JacobiParams(-0.75, -0.8)
        got = h_script_f4(p, 0.5, math.pi / 2, math.pi / 2)
        ref = float(h_script_integral(p, 0.5, math.pi / 2, math.pi / 2))
        assert got > 0
        assert_allclose(got, ref, rtol=1e-7)

    def test_slow_convergence_guard(self):
        with pytest.raises(SlowConvergenceError):
            h_script_f4(JacobiParams(0, 0), 1e-4, 1.0, 1.0)

    @pytest.mark.parametrize("p, t, th, ph", F4_SWEEP_POINTS, ids=_f4_point_id)
    def test_sweep_is_bitwise_the_reference_loop(self, p, t, th, ph, column_calls):
        assert h_script_f4(p, t, th, ph) == h_script_f4_reference(p, t, th, ph)
        assert column_calls == []

    @pytest.mark.parametrize("p, t, th, ph", F4_COLUMN_POINTS, ids=_f4_point_id)
    def test_columns_match_the_reference_loop(self, p, t, th, ph, column_calls):
        assert_allclose(h_script_f4(p, t, th, ph), h_script_f4_reference(p, t, th, ph),
                        rtol=kernel.F4_RTOL, atol=0.0)
        assert len(column_calls) == 1

    @pytest.mark.parametrize("t, th, ph", F4_ORIENTED_POINTS, ids=["x<y", "x>y"])
    @pytest.mark.parametrize("ab", F4_COLUMN_SETS, ids=str)
    def test_columns_against_the_series(self, ab, t, th, ph, column_calls):
        p = JacobiParams(*ab)
        ref = series_H(p, t, th, ph) - jph_correction(p, t)
        assert_allclose(h_script_f4(p, t, th, ph), ref, rtol=kernel.F4_RTOL, atol=0.0)
        assert len(column_calls) == 1

    # H^(alpha,beta)(theta, phi) = H^(beta,alpha)(pi - theta, pi - phi) swaps
    # x and y, so one side of each pair sums its columns over x and the other
    # over y.  The two sides reach x and y through different roundings
    # (pi - theta, and a sine against a cosine), which move H by up to about
    # 7e-14 at these points.
    @pytest.mark.parametrize("t, th, ph", [(0.05, 0.5, 0.6), (0.05, 1.5, 1.6), (0.1, 2.6, 2.7),
                                           (0.01, 1.0, 1.1), (0.05, 0.0, 0.2)], ids=str)
    @pytest.mark.parametrize("ab", [(-0.75, 0.5), (2.0, -0.25), (-0.5, 0.3), (0.5, 0.5),
                                    (-0.99, 0.3)], ids=str)
    def test_reflection_swaps_the_column_orientation(self, ab, t, th, ph):
        got = h_script_f4(JacobiParams(*ab), t, th, ph)
        mirrored = h_script_f4(JacobiParams(ab[1], ab[0]), t, math.pi - th, math.pi - ph)
        assert_allclose(got, mirrored, rtol=1e-13, atol=0.0)

    # About 23,000 anti-diagonals each (rho ~ 0.99944), where the full
    # reference loop would take seconds: checked against independent values.
    # theta = 0 (x = 0) and phi = pi (y ~ 4e-33) take four columns.
    @pytest.mark.parametrize("p, t, th, ph", [
        (CHEB, 0.0269, 2.698, 2.759),
        (JacobiParams(-0.75, 0.5), 0.0445, 1.351, 1.401),
        (CHEB, 0.0269, 0.0, 0.0613),
        (CHEB, 0.0269, math.pi - 0.0613, math.pi),
    ], ids=["cheb", "a-0.75_b0.5", "theta0", "phipi"])
    def test_long_sweep_against_independent_value(self, p, t, th, ph):
        if p == CHEB:
            ref = closed_form_chebyshev(t, th, ph)
        else:
            ref = series_H(p, t, th, ph) - jph_correction(p, t)
        assert_allclose(h_script_f4(p, t, th, ph), ref, rtol=1e-10)


class TestIntegral:
    def test_cross_method_all_cases(self, acceptance_params):
        p = acceptance_params
        for (t, th, ph) in [(1.0, 1.0, 2.0), (0.5, 0.01, math.pi / 2), (0.1, 1.2, 1.2)]:
            ref = series_H(p, t, th, ph) - float(jph_correction(p, t))
            got = float(h_script_integral(p, t, th, ph))
            assert_allclose(got, ref, rtol=1e-7)

    def test_component_integrals_nonnegative(self):
        # every double integral of the case split (one sum per (K, R) term)
        # is individually >= 0
        for a, b in [(0.5, 0.5), (-0.75, 0.5), (0.5, -0.75), (-0.75, -0.75)]:
            p = JacobiParams(a, b)
            half_pi = math.pi / 2
            evaluate = psi_integrand(p, half_pi, half_pi, 0, 0, 0)
            tc = np.full((1, 1), 0.5)
            grading = kernel._grading(p, 0.5, half_pi, half_pi, pi_measures.DELTA_FLOOR)
            parts = [float(row_sums(weighted_rows(evaluate, tc, *term))[0][0])
                     for term in _integral_terms(p, grading, 96)]
            assert all(x >= 0 for x in parts)
            assert_allclose(sum(parts), float(h_script_integral(p, 0.5, math.pi / 2, math.pi / 2)),
                            rtol=1e-9)

    def test_derivative_against_series(self):
        p = JacobiParams(0.5, -0.75)
        for deriv in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 1)]:
            M, N, L = deriv
            got = float(h_script_integral(p, 0.6, 1.0, 2.2, deriv=deriv))
            if N == 0 and L == 0:
                got += float(jph_correction(p, 0.6, M=M))
            ref = series_H(p, 0.6, 1.0, 2.2, M=M, N=N, L=L)
            assert_allclose(got, ref, rtol=1e-6)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            h_script_integral(JacobiParams(0, 0), 0.5, 1.0, 2.0, deriv=(0, 0, 2))

    def test_atomic_sum_is_correctly_rounded(self):
        # At alpha = beta = -1/2 both axes are the atoms +-1 with weight 1/2, so
        # the route is a sum of four exact terms psi / 4; the compare golden
        # (tests/golden/compare_cheb.csv) pins its correctly rounded value.
        psi = psi_evaluator(CHEB)
        for t in (0.5, 1.0):
            for th in (0.6, 2.1):
                for ph in (0.6, 2.1):
                    terms = [0.25 * float(psi(t, th, ph, u, v))
                             for u in (-1.0, 1.0) for v in (-1.0, 1.0)]
                    got = float(h_script_integral(CHEB, t, th, ph))
                    assert got == math.fsum(terms), (
                        f"integral route at alpha = beta = -1/2, (t, theta, phi) = "
                        f"{(t, th, ph)}: {got!r} is not the correctly rounded sum "
                        f"{math.fsum(terms)!r} of its quadrature terms"
                    )

    def test_refuses_values_below_roundoff_floor(self):
        # d/dtheta H vanishes at theta = 0 by evenness; what the quadrature
        # returns there is roundoff of terms whose absolute sum is about 1e8,
        # never a value.
        p = JacobiParams(0.5, 0.5)
        t, th, ph = 0.01, 0.0, 0.01
        assert series_H(p, t, th, ph, N=1) == 0.0
        with pytest.raises(QuadratureError):
            h_script_integral(p, t, th, ph, deriv=(0, 1, 0))
        assert_allclose(float(h_script_integral(p, t, th, ph)), series_H(p, t, th, ph),
                        rtol=1e-7)
        # With atoms on both axes every resolution agrees, so only the floor
        # can refuse: the four terms cancel to roundoff.
        with pytest.raises(QuadratureError, match="roundoff floor"):
            h_script_integral(CHEB, 0.5, 0.0, 1.0, deriv=(0, 1, 0))

    def test_odd_derivative_vanishes_at_theta_zero(self):
        # every term of dtheta H at theta = phi = 0 is an exact zero
        p = JacobiParams(0.5, 0.5)
        assert series_H(p, 0.5, 0.0, 0.0, N=1) == 0.0
        assert h_script_integral(p, 0.5, 0.0, 0.0, deriv=(0, 1, 0)) == 0.0

    def test_singularity_raises_without_warnings(self):
        # D underflows to 0 at t = 1e-8 on the diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="t_min=1e-08, theta=1, phi=1"):
                h_script_integral(CHEB, 1e-8, 1.0, 1.0)


class TestGeneral:
    def test_matches_integral_density_case(self):
        p = JacobiParams(0.5, 0.5)
        got = h_script_general(p, 1.0, 1.0, 2.0)
        assert_allclose(got, float(h_script_integral(p, 1.0, 1.0, 2.0)), rtol=1e-8)

    def test_matches_integral_deep_profile(self):
        p = JacobiParams(-0.9, -0.6)
        got = h_script_general(p, 1.0, 0.5, 2.5)
        assert_allclose(got, float(h_script_integral(p, 1.0, 0.5, 2.5)), rtol=1e-6)

    def test_antipodal_reduces_to_zero_argument_value(self):
        p = JacobiParams(-0.75, 0.5)
        t = 0.9
        got = h_script_general(p, t, 0.0, math.pi)
        ref = p.c_ab * math.sinh(0.5 * t) / math.cosh(0.5 * t) ** p.sigma
        assert_allclose(got, ref, rtol=1e-10)

    @pytest.mark.parametrize("t, theta, phi", [(0.3, 1.0, 2.0), (0.01, 1.2, 1.201),
                                               (0.05, 0.02, 3.1), (1.0, 3.0, 3.1)])
    def test_each_corner_grades_by_its_own_distance(self, t, theta, phi):
        # _grading_delta forms each corner's d as cosh(t/2) - 1 plus 2 sin^2
        # or 2 cos^2 of a quarter angle; it is D at (u, v) = (xi, eta)
        p_c, q_c = kernel._pq(theta, phi)
        for xi, eta in kernel._CORNERS:
            d = (math.cosh(0.5 * t) - 1.0) + (1.0 - xi * p_c - eta * q_c)
            for coupling in (p_c, q_c):
                want = pi_measures.snap_delta(max(0.25 * d / coupling, 2.0**-40))
                got = kernel._grading_delta(t, theta, phi, coupling, corner=(xi, eta))
                assert got == want

    # (t, theta, phi) at alpha = beta = 1.5 where the value is a cancellation
    # beyond rtol = 5e-8 of terms up to 5e15 times larger.  Without the
    # floor, the doubling check passes on 160.0 and 36.375 (series 170.6633,
    # 36.3475).
    @pytest.mark.parametrize("t, theta, phi", [(0.03, 1.5, 1.501), (0.01, 1.0, 1.05)])
    def test_refuses_values_below_its_roundoff_floor(self, t, theta, phi):
        with pytest.raises(QuadratureError):
            h_script_general(JacobiParams(1.5, 1.5), t, theta, phi)

    @pytest.mark.parametrize("t", [0.01, 0.03, 0.1, 0.5])
    @pytest.mark.parametrize("ab", GENERAL_SWEEP_SETS, ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
    def test_sweep_matches_integral(self, ab, t):
        # the integral route is the reference, an independent representation:
        # the series is limited by roundoff where H is small (alpha = beta =
        # 1.5, t = 0.01, theta = 0.05, phi = 3.1: 3e-5 off)
        p = JacobiParams(*ab)
        checked = 0
        for theta, phi in GENERAL_SWEEP_ANGLES:
            if (ab, t, theta, phi) in GENERAL_SWEEP_REFUSED:
                with pytest.raises(QuadratureError):
                    h_script_general(p, t, theta, phi)
                continue
            ref = float(h_script_integral(p, t, theta, phi))
            assert_allclose(h_script_general(p, t, theta, phi), ref, rtol=1e-7)
            checked += 1
        assert checked >= 2


class TestKernelEval:
    def test_correction_indicator(self):
        # above the threshold the companion kernel needs no correction
        p = JacobiParams(0.5, 0.5)
        assert jph_correction(p, 1.0) == 0.0
        q = KernelQuery(t=1.0, theta=1.0, phi=2.0, method="integral")
        assert kernel_eval(p, q) == float(h_script_integral(p, 1.0, 1.0, 2.0))

    def test_correction_applied_below_threshold(self):
        p = JacobiParams(-0.75, -0.75)
        assert jph_correction(p, 2.0) < 0.0
        got = kernel_eval(p, KernelQuery(t=2.0, theta=1.0, phi=1.0, method="integral"))
        ref = series_H(p, 2.0, 1.0, 1.0)
        assert_allclose(got, ref, rtol=1e-7)

    def test_chebyshev_oracle(self):
        got = kernel_eval(CHEB, KernelQuery(t=0.7, theta=2.0, phi=2.2))
        assert_allclose(got, closed_form_chebyshev(0.7, 2.0, 2.2), rtol=1e-10)

    def test_auto_dispatch(self, column_calls, monkeypatch):
        # Below AUTO_SPLIT_T away from the diagonal auto sums a value by F4
        # columns and a derivative by the integral route; from the split on
        # it takes the series.
        p = JacobiParams(0.0, 0.0)
        integral_calls = _spy_on(monkeypatch, "h_script_integral")
        small = kernel_eval(p, KernelQuery(t=0.1, theta=1.0, phi=1.5))
        assert len(column_calls) == 1 and integral_calls == []
        assert_allclose(small, h_script_f4(p, 0.1, 1.0, 1.5), rtol=kernel.F4_RTOL)
        d_theta = kernel_eval(p, KernelQuery(t=0.1, theta=1.0, phi=1.5, deriv=(0, 1, 0)))
        assert len(column_calls) == 1 and len(integral_calls) == 1
        assert d_theta == h_script_integral(p, 0.1, 1.0, 1.5, deriv=(0, 1, 0))
        large = kernel_eval(p, KernelQuery(t=1.0, theta=1.0, phi=1.5))
        assert_allclose(large, series_H(p, 1.0, 1.0, 1.5), rtol=1e-14)
        assert len(column_calls) == 1 and len(integral_calls) == 1
        assert small == kernel._f4_column_value(p, 0.1, 1.0, 1.5)  # lam > 0: no correction

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.floats(0.25, 5.0),
        theta=st.floats(0.01, math.pi - 0.01),
        phi=st.floats(0.01, math.pi - 0.01),
    )
    def test_symmetry(self, t, theta, phi):
        p = JacobiParams(-0.75, 0.5)
        a = kernel_eval(p, KernelQuery(t=t, theta=theta, phi=phi))
        b = kernel_eval(p, KernelQuery(t=t, theta=phi, phi=theta))
        assert_allclose(a, b, rtol=1e-12, atol=1e-300)

    def test_positivity(self, acceptance_params, rng):
        p = acceptance_params
        for _ in range(10):
            t = float(rng.uniform(0.05, 3.0))
            th = float(rng.uniform(0, math.pi))
            ph = float(rng.uniform(0, math.pi))
            h = kernel_eval(p, KernelQuery(t=t, theta=th, phi=ph))
            assert h > 0
            assert h - float(jph_correction(p, t)) > 0

    def test_semigroup_identity(self):
        p = JacobiParams(0.5, -0.75)
        rule = theta_quad_rule(p, 256)
        s, t = 0.4, 0.9
        th, ph = 0.8, 2.3
        left = series_H(p, s, th, rule.nodes)
        right = series_H(p, t, ph, rule.nodes)
        composed = float(np.sum(rule.weights * left * right))
        assert_allclose(composed, series_H(p, s + t, th, ph), rtol=1e-8)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            KernelQuery(t=-1.0, theta=1.0, phi=1.0)
        with pytest.raises(ValueError):
            KernelQuery(t=1.0, theta=4.0, phi=1.0)
        with pytest.raises(UnsupportedOrderError):
            KernelQuery(t=1.0, theta=1.0, phi=1.0, deriv=(2, 2, 0))
        with pytest.raises(UnsupportedOrderError):
            KernelQuery(t=1.0, theta=1.0, phi=1.0, deriv=(1, 0, 0), method="f4")


@pytest.mark.parametrize("deriv", [None, (0, 0), (0, 0, 0, 0), [0, 0, 0], 1], ids=repr)
def test_query_refuses_a_deriv_that_is_not_three_orders(deriv):
    # None used to raise a bare TypeError from unpacking, and a tuple of the
    # wrong length a ValueError that named no argument.
    with pytest.raises(UnsupportedOrderError,
                       match=r"^deriv must be a tuple of three integer orders \(M, N, L\), got "):
        KernelQuery(t=1.0, theta=1.0, phi=2.0, deriv=deriv)


@pytest.mark.parametrize("t", NON_FINITE, ids=str)
@pytest.mark.parametrize("method", ["series", "f4", "integral", "general", "auto"])
def test_query_rejects_non_finite_t(method, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite, got {t}"):
            KernelQuery(t=t, theta=1.0, phi=2.0, method=method)


@pytest.mark.parametrize("t", NON_FINITE + [0.0, -1.0], ids=str)
@pytest.mark.parametrize("route", [series_H, h_script_f4, h_script_integral, h_script_general],
                         ids=lambda f: f.__name__)
def test_routes_reject_non_finite_t(route, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite, got {t}"):
            route(JacobiParams(0.5, -0.75), t, 1.0, 2.0)


@pytest.mark.parametrize("rtol", [0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("route", [h_script_integral], ids=lambda f: f.__name__)
def test_routes_reject_bad_rtol(route, rtol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"rtol must be positive and finite, got {rtol}"):
            route(JacobiParams(0.5, -0.75), 0.1, 1.0, 2.0, rtol=rtol)


@pytest.mark.parametrize("angle", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("which", ["theta", "phi"])
@pytest.mark.parametrize("route", [series_H, h_script_f4, h_script_integral, h_script_general],
                         ids=lambda f: f.__name__)
def test_routes_reject_non_finite_angles(route, which, angle):
    theta, phi = (angle, 2.0) if which == "theta" else (1.0, angle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{which} must be finite, got {angle}"):
            route(JacobiParams(0.5, -0.75), 1.0, theta, phi)


# Where p + c rounds above 1, D at the corner (u, v) = (1, 1) rounds below
# zero at tiny t.  Unrefused, the integral route returns H = -286,708 at
# t = 1e-9 and -8.6e6 at t = 3e-8 (the closed form gives about 3.2e8 and
# 1.1e7), and the general route's D^(-sigma) turns complex (numpy's
# UFuncTypeError).  At t = 3e-8 the general route's own math.cosh D stays
# positive (8.3e-17) while the integrand's form rounds to -1.4e-16; unrefused
# there, it returns 1.43e7, 35% off, and passes its doubling check.
@pytest.mark.parametrize("route, ab, t, angle", [
    (h_script_integral, (-0.5, -0.5), 1e-9, 2.1),
    (h_script_integral, (-0.5, -0.5), 3e-8, 2.1),
    (h_script_general, (0.3, 0.2), 1e-9, 1.3),
    (h_script_general, (-0.5, -0.5), 3e-8, 2.1),
], ids=["integral-1e-9", "integral-3e-8", "general-1e-9", "general-3e-8"])
def test_routes_refuse_a_negative_corner_d(route, ab, t, angle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"D at a corner rounds to -\S+ < 0"):
            route(JacobiParams(*ab), t, angle, angle)


def test_general_route_refuses_non_finite_values_without_warnings(monkeypatch):
    # The general route shares the integral route's acceptance rule, so it
    # refuses without a RuntimeWarning: here at a negative corner D, where
    # log1p would otherwise turn its brackets into NaN.
    p = JacobiParams(0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            h_script_general(p, 1e-9, 2.1, 2.1)
        # a NaN from the corner sums themselves is refused as non-finite
        monkeypatch.setattr(kernel, "_general_once",
                            lambda *args: (np.log1p(np.float64(-2.0)), None))
        with pytest.raises(QuadratureError, match="general route hit the integrand's "
                                                  "singularity: non-finite value"):
            h_script_general(p, 0.5, 1.0, 2.0)


def test_integral_batch_equals_its_log_bands_alone():
    # The integral route grades each log-band [t_min 4^k, t_min 4^(k+1)) of a
    # batch by the band's own smallest t, so a band evaluated alone gives the
    # same bits; the first band's 100 t fill several blocks of t rows.
    p = JacobiParams(0.5, -0.75)
    t_min = 1e-3
    ts = np.concatenate([np.linspace(t_min, 4.0 * t_min, 100, endpoint=False),
                         np.geomspace(4.0 * t_min, 0.5, 20)])
    ts = np.random.default_rng(5).permutation(ts)
    opts = dict(base_nodes=10, max_doublings=0)
    whole = h_script_integral(p, ts, 1.0, 2.0, **opts)
    lo, seen = t_min, 0
    while lo <= ts.max():
        band = (ts >= lo) & (ts < 4.0 * lo)
        if np.any(band):
            assert np.array_equal(whole[band], h_script_integral(p, ts[band], 1.0, 2.0, **opts))
            seen += 1
        lo *= 4.0
    assert seen >= 4


# Every derivative order (M, N, L) the integral route takes: L <= 1, N + M <= 3.
ROUTE_DERIVS = [(M, N, L) for L in (0, 1) for N in range(4) for M in range(4 - N)]


@pytest.mark.parametrize("with_mass", [False, True], ids=["values", "mass"])
@pytest.mark.parametrize("n_t, block_rows", [
    pytest.param(1, 3, id="one-t"),
    pytest.param(3, 3, id="one-block"),
    pytest.param(7, 3, id="short-last-block"),
    pytest.param(64, 3, id="64-t"),
    pytest.param(5, 0.4, id="row-in-slices"),
    pytest.param(1, 0, id="row-in-single-nodes"),
    pytest.param(0, 3, id="t-integral"),
    pytest.param(0, 0.4, id="t-integral-row-in-slices"),
])
def test_blocked_sum_is_the_full_tensor_sum(monkeypatch, n_t, block_rows, with_mass):
    # At alpha = beta = -3/4 both axes are profiles, so the terms take every
    # (K, R): both axes are graded, so (1, 1) is a corner-graded point cloud
    # and the terms with the atoms are tensors.  The budget holds block_rows
    # rows of the largest term, the cloud: below one row, a row is filled in
    # slices of points (at 0.4, three slices, the last one short; at 0, one
    # point, or one u node of a tensor, each).  The 64 t span two log-bands.
    # n_t = 0 stands for the t-integral's one-row batch at t = 0, at the
    # orders (N, L) with N >= 1 that it takes.
    p = JacobiParams(-0.75, -0.75)
    theta, phi, n_nodes, floor = 1.0, 1.3, 6, 2.0**-40
    if n_t:
        ts = np.linspace(0.02, 0.3 if n_t == 64 else 0.06, n_t)
        cases = [((M, N, L), psi_integrand(p, theta, phi, M, N, L)) for M, N, L in ROUTE_DERIVS]
    else:
        ts = np.zeros(1)
        cases = [((N, L), t_integral_integrand(p, theta, phi, N, L))
                 for L in (0, 1) for N in (1, 2, 3)]
    grading = kernel._grading(p, float(ts.min()), theta, phi, floor)
    largest = max(w.size for _, _, w, *_ in _integral_terms(p, grading, n_nodes))
    monkeypatch.setattr(kernel, "_BLOCK_ELEMS", max(1, int(block_rows * largest)))
    for orders, evaluate in cases:
        got = kernel._integral_sum(p, ts, theta, phi, evaluate, floor, n_nodes, with_mass,
                                   kernel._Workspace())
        want = integral_sum(p, ts, theta, phi, evaluate, floor, n_nodes, with_mass)
        assert np.array_equal(got[0], want[0]), orders
        assert (got[1] is None) if not with_mass else np.array_equal(got[1], want[1]), orders


def test_blocked_sum_at_full_size():
    # The default budget: the density x profile term's corner-graded cloud
    # holds 10,800 points at the smallest t, twelve rows to a block; the
    # atoms' tensor fits the whole band in one block.
    p = JacobiParams(0.5, -0.75)
    ts = np.geomspace(0.01, 0.19, 64)
    for M, N, L in [(0, 0, 0), (1, 1, 0), (0, 2, 1)]:
        evaluate = psi_integrand(p, 1.0, 2.0, M, N, L)
        got = kernel._integral_sum(p, ts, 1.0, 2.0, evaluate, 2.0**-40, 24, True,
                                   kernel._Workspace())
        want = integral_sum(p, ts, 1.0, 2.0, evaluate, 2.0**-40, 24, True)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (M, N, L)


# The scan preset's t rule: 40 nodes over [1e-5, 1], nine log-bands, at the
# scan preset's 10 nodes and floor 2^-16.  At theta = 1, phi = 2 all nine
# snap to one grading, 2 sin^2(1/4) outweighing cosh(t/2) - 1; at phi = 1.05
# the first six share one and the last three grade alone.  An atomic axis
# takes no grading, so at alpha = beta = -1/2 all nine share one.
SCAN_TS = czkernels._small_t_rule(1e-5, 5, 8)[0]
SCAN_FLOOR, SCAN_NODES = 2.0**-16, 10
SCAN_ANGLES = pytest.mark.parametrize("theta, phi", [(1.0, 2.0), (1.0, 1.05)],
                                      ids=["one-grading", "four-gradings"])


def _log_band_gradings(p, ts, theta, phi, floor):
    """(delta_u, delta_v) of each nonempty log-band [lo, 4 lo) of ts, from
    _grading_delta at the band's smallest t, or 1/2 on an atomic axis."""
    P, Q = kernel._pq(theta, phi)
    gradings, lo = [], float(ts.min())
    while lo <= ts.max():
        band = ts[(ts >= lo) & (ts < 4.0 * lo)]
        if band.size:
            t_min = float(band.min())
            gradings.append(tuple(
                0.5 if gamma == -0.5 else kernel._grading_delta(t_min, theta, phi, c, floor)
                for gamma, c in [(p.alpha, P), (p.beta, Q)]))
        lo *= 4.0
    return gradings


GRADING_SETS = [(-0.75, -0.75), (0.5, 0.5), (-0.5, -0.5)]
GRADING_IDS = ["profiles", "densities", "atoms"]


@pytest.mark.parametrize("block_rows", [None, 3, 0.4], ids=["one-block", "3-rows", "slices"])
@pytest.mark.parametrize("with_mass", [False, True], ids=["values", "mass"])
@pytest.mark.parametrize("ab", GRADING_SETS, ids=GRADING_IDS)
@SCAN_ANGLES
def test_merged_bands_are_the_per_band_sum(monkeypatch, theta, phi, ab, with_mass, block_rows):
    # Log-bands with equal gradings are evaluated as one band, with one term
    # build; every t row must still be the per-band reference's, bit for
    # bit.  At -3/4 the terms are a corner cloud and the atoms' tensors; at
    # -1/2 the one term is the atoms' tensor, which every band shares.
    # block_rows sizes the budget in rows of the largest term: 3 rows split
    # the merged band into several blocks, 0.4 fills each row in slices.
    p = JacobiParams(*ab)
    gradings = _log_band_gradings(p, SCAN_TS, theta, phi, SCAN_FLOOR)
    assert len(set(gradings)) < len(gradings)
    if block_rows is not None:
        grading = kernel._grading(p, float(SCAN_TS.min()), theta, phi, SCAN_FLOOR)
        largest = max(w.size for _, _, w, *_ in _integral_terms(p, grading, SCAN_NODES))
        monkeypatch.setattr(kernel, "_BLOCK_ELEMS", max(1, int(block_rows * largest)))
    for M, N, L in ROUTE_DERIVS:
        evaluate = psi_integrand(p, theta, phi, M, N, L)
        got = kernel._integral_sum(p, SCAN_TS, theta, phi, evaluate, SCAN_FLOOR, SCAN_NODES,
                                   with_mass, kernel._Workspace())
        want = integral_sum(p, SCAN_TS, theta, phi, evaluate, SCAN_FLOOR, SCAN_NODES, with_mass)
        assert np.array_equal(got[0], want[0]), (M, N, L)
        assert (got[1] is None) if not with_mass else np.array_equal(got[1], want[1]), (M, N, L)


@pytest.mark.parametrize("ab", GRADING_SETS + [(-0.5, 0.5)], ids=GRADING_IDS + ["atoms-density"])
@SCAN_ANGLES
def test_one_term_build_per_grading(monkeypatch, theta, phi, ab):
    # A work-count guard: one resolution of a batch builds its terms once per
    # distinct grading of its log-bands, not once per band.  An atomic axis
    # takes no grading: at alpha = beta = -1/2 the four gradings of phi =
    # 1.05 are one, at (-1/2, 1/2) the v axis keeps them four.  Each build
    # is passed its run's grading, in increasing t.
    p = JacobiParams(*ab)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _integral_terms(*args, **kwargs)

    monkeypatch.setattr(kernel, "_integral_terms", counted)
    h_script_integral(p, SCAN_TS, theta, phi, base_nodes=SCAN_NODES, max_doublings=0,
                      delta_floor=SCAN_FLOOR)
    gradings = _log_band_gradings(p, SCAN_TS, theta, phi, SCAN_FLOOR)
    assert calls == list(dict.fromkeys(gradings))
    assert len(calls) < len(gradings)


@pytest.mark.parametrize("ab", GRADING_SETS + [(-0.5, 0.5)], ids=GRADING_IDS + ["atoms-density"])
@SCAN_ANGLES
def test_one_grading_per_log_band(monkeypatch, theta, phi, ab):
    # Each log-band's grading is worked out once, where the batch is split
    # (_graded_bands); the term build takes it as given and grades nothing
    # again.
    p = JacobiParams(*ab)
    calls = []
    grading = kernel._grading

    def counted(*args, **kwargs):
        calls.append(args)
        return grading(*args, **kwargs)

    monkeypatch.setattr(kernel, "_grading", counted)
    h_script_integral(p, SCAN_TS, theta, phi, base_nodes=SCAN_NODES, max_doublings=0,
                      delta_floor=SCAN_FLOOR)
    assert len(calls) == len(_log_band_gradings(p, SCAN_TS, theta, phi, SCAN_FLOOR)) == 9


def test_concurrent_calls_keep_their_buffers(monkeypatch):
    # The evaluator is shared through its cache, so each call must own its
    # block buffers.  Four threads (more than the cores) at two (alpha, beta)
    # and two points each, blocks of a few rows, a short switch interval.
    monkeypatch.setattr(kernel, "_BLOCK_ELEMS", 2048)
    jobs = [(JacobiParams(a, b), th, ph) for a, b in [(0.5, -0.75), (-0.75, 0.5)]
            for th, ph in [(1.0, 2.0), (0.7, 2.5)]]
    ts = np.linspace(0.02, 0.15, 40)
    opts = dict(base_nodes=8, max_doublings=0)
    serial = [h_script_integral(p, ts, th, ph, **opts) for p, th, ph in jobs]
    results = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def run(i):
        barrier.wait(timeout=30)
        p, th, ph = jobs[i]
        for _ in range(3):
            results[i] = h_script_integral(p, ts, th, ph, **opts)
            if not np.array_equal(results[i], serial[i]):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


HALF = JacobiParams(0.5, 0.5)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, M=-1),
                 r"orders \(M, N, L\) must be nonnegative, got \(-1, 0, 0\)", id="M=-1"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, N=-1),
                 r"orders \(M, N, L\) must be nonnegative, got \(0, -1, 0\)", id="N=-1"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, L=-1),
                 r"orders \(M, N, L\) must be nonnegative, got \(0, 0, -1\)", id="L=-1"),
    pytest.param(lambda: trig_poly_table(HALF, -1, 1.0),
                 "n_max must be nonnegative, got -1", id="n_max=-1"),
])
def test_series_path_rejects_bad_arguments(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("call, orders", [
    pytest.param(lambda: kernel_eval(HALF, KernelQuery(1.0, 1.0, 2.0, deriv=(0.5, 0, 0))),
                 "(0.5, 0, 0)", id="query-M=0.5"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, M=0.5), "(0.5, 0, 0)", id="series-M=0.5"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, N=1.5), "(0, 1.5, 0)", id="series-N=1.5"),
    pytest.param(lambda: h_script_integral(HALF, 0.1, 1.0, 2.0, deriv=(0, 1.0, 0)),
                 "(0, 1.0, 0)", id="integral-N=1.0"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 2.0, 1.5, 0), "(1.5, 0)",
                 id="t-integral-N=1.5"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [0.1, 1.0], 1.0, 2.0, 0, 0.5, 0),
                 "(0, 0.5, 0)", id="batch-N=0.5"),
    pytest.param(lambda: trig_poly_table(HALF, 10, 1.0, order=1.5), "1.5", id="table-order=1.5"),
])
def test_non_integer_orders_are_refused(call, orders):
    # These used to give nan with a RuntimeWarning (a fractional M) or a bare
    # TypeError from range() (a fractional N, L or table order).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedOrderError) as info:
            call()
    assert str(info.value) == f"derivative orders must be integers, got {orders}"


@pytest.mark.parametrize("ts", [[1.0], [0.1, 1.0]], ids=["series-only", "mixed"])
def test_batch_refuses_a_keyword_the_integral_route_does_not_take(ts):
    # The series-only batch used to drop the misspelled keyword and return a value.
    with pytest.raises(TypeError, match="unexpected keyword argument 'rtoll'"):
        kernel.kernel_H_batch(HALF, ts, 1.0, 2.0, rtoll=1e-7)


def test_series_only_batch_keeps_its_orders():
    # The keyword check does not hold the series path to the integral route's L <= 1.
    got = kernel.kernel_H_batch(HALF, [1.0], 1.0, 2.0, 0, 2, 2, rtol=1e-7)
    assert np.array_equal(got, series_H(HALF, [1.0], 1.0, 2.0, N=2, L=2))


@pytest.mark.parametrize("t_shape", [(1, 2), (2, 1, 2), (2,)], ids=str)
def test_integral_route_keeps_the_shape_of_t(t_shape):
    ts = np.linspace(0.1, 0.15, math.prod(t_shape)).reshape(t_shape)
    got = h_script_integral(HALF, ts, 1.0, 2.0)
    assert got.shape == t_shape
    assert np.array_equal(got.ravel(), h_script_integral(HALF, ts.ravel(), 1.0, 2.0))
    # A derivative below the split takes the integral route, a value here F4 columns.
    d_theta = h_script_integral(HALF, ts, 1.0, 2.0, deriv=(0, 1, 0))
    assert d_theta.shape == t_shape
    assert np.array_equal(d_theta, kernel.kernel_H_batch(HALF, ts, 1.0, 2.0, N=1, split=math.inf))
    values = kernel.kernel_H_batch(HALF, ts, 1.0, 2.0, split=math.inf)
    assert values.shape == t_shape
    assert np.array_equal(values.ravel(),
                          [kernel._f4_column_value(HALF, t, 1.0, 2.0) for t in ts.ravel()])
    assert_allclose(values, got, rtol=kernel.INTEGRAL_RTOL, atol=0.0)


@pytest.mark.parametrize("t_shape", [(0,), (0, 3), (2, 0)], ids=str)
def test_empty_t_gives_an_empty_array(t_shape):
    ts = np.empty(t_shape)
    for got in (h_script_integral(HALF, ts, 1.0, 2.0), series_H(HALF, ts, 1.0, 2.0),
                kernel.kernel_H_batch(HALF, ts, 1.0, 2.0)):
        assert isinstance(got, np.ndarray) and got.shape == t_shape
    assert series_H(HALF, ts, 1.0, np.array([2.0, 2.5])).shape == t_shape + (2,)


def test_series_keeps_the_shape_of_t():
    ts = np.array([[0.5, 0.7, 0.9]])
    got = series_H(HALF, ts, 1.0, 2.0, N=1)
    assert got.shape == (1, 3)
    assert np.array_equal(got[0], series_H(HALF, ts[0], 1.0, 2.0, N=1))


# ---------------------------------------------------------------------------
# auto's cost rule: values below the split by F4 columns where few are needed
# ---------------------------------------------------------------------------

def _spy_on(monkeypatch, name):
    """The argument tuples of every call of kernel.<name> in the test."""
    calls, fn = [], getattr(kernel, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(kernel, name, spy)
    return calls


def test_mixed_batch_equals_each_route(monkeypatch, column_calls):
    # At theta = 1, phi = 1.1 the predicted column count falls from about
    # 2,500 at t <= 0.02 (integral) to about 560 at t = 0.19 (F4); t >= 0.2
    # takes the series, which must not reach t = 1e-3 (below T_MIN_SERIES).
    p, theta, phi = JacobiParams(-0.75, -0.75), 1.0, 1.1  # lam < 0: a nonzero correction
    ts = np.array([0.5, 0.19, 1e-3, 1.0, 0.02, 0.185])
    f4, integral, series = [1, 5], [2, 4], [0, 3]
    integral_calls = _spy_on(monkeypatch, "h_script_integral")
    series_calls = _spy_on(monkeypatch, "series_H")
    got = kernel.kernel_H_batch(p, ts, theta, phi)
    assert [args[1].tolist() for args in integral_calls] == [ts[integral].tolist()]
    assert [args[1].tolist() for args in series_calls] == [ts[series].tolist()]
    assert len(column_calls) == len(f4)
    assert np.array_equal(got[integral], h_script_integral(p, ts[integral], theta, phi)
                          + jph_correction(p, ts[integral]))
    assert np.array_equal(got[series], series_H(p, ts[series], theta, phi))
    for i in f4:
        corr = float(jph_correction(p, ts[i]))
        assert got[i] == kernel._f4_column_value(p, ts[i], theta, phi) + corr
        assert_allclose(got[i], h_script_f4(p, ts[i], theta, phi) + corr, rtol=kernel.F4_RTOL)


@pytest.mark.parametrize("deriv", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 1)], ids=str)
def test_derivatives_never_reach_the_columns(column_calls, deriv):
    got = kernel.kernel_H_batch(HALF, [0.05, 0.1, 0.5], 0.4, 2.5, *deriv)
    assert column_calls == []
    assert np.array_equal(got[:2], h_script_integral(HALF, [0.05, 0.1], 0.4, 2.5, deriv=deriv))


@pytest.mark.parametrize("ab", [(0.5, 0.5), (-0.75, 0.5), (2.0, -0.25)], ids=str)
def test_diagonal_and_out_of_domain_values_never_raise(column_calls, ab):
    # On the diagonal rho = 1 / cosh(t/2), outside F4's domain below
    # t = 0.063; inside it, near the diagonal, the count is large until t
    # nears the split, and next to theta = phi = 0 or pi it is 0 (x or y is
    # 0).  On the diagonal itself the series takes every t whose truncation
    # is short (0.1 and 0.19 here, and 0.02 but at (2, -1/4)).
    p = JacobiParams(*ab)
    ts = np.array([0.005, 0.02, 0.1, 0.19])
    for theta, phi in [(0.0, 0.0), (0.0, 1e-7), (1.0, 1.0), (1.0, 1.0 + 1e-7),
                       (math.pi, math.pi), (math.pi - 1e-7, math.pi)]:
        got = kernel.kernel_H_batch(p, ts, theta, phi)
        assert np.all(np.isfinite(got) & (got > 0.0))
    # Some t next to the diagonal did take F4: (0, 1e-7) and (pi - 1e-7, pi)
    # at t >= 0.1, (1, 1 + 1e-7) at 0.19.
    assert len(column_calls) >= 5


# ---------------------------------------------------------------------------
# auto's diagonal rule: values at theta == phi by the series where it is short
# ---------------------------------------------------------------------------

def _series_terms_reference(params, t_min, M, N, L):
    """kernel._series_terms as sixty steps of its fixed-point map, with no
    early stop."""
    p = 2.0 * params.sigma + 3.0 * (N + L) + M + 1.0
    log_goal = math.log(1.0 / kernel.SERIES_RTOL) + math.log(1.0 / -math.expm1(-t_min)) + 1.0
    n = 20.0 / t_min + 20.0
    for _ in range(60):
        n = (log_goal + p * math.log(max(n, 1.0))) / t_min
    return max(int(math.ceil(n)), 8)


def test_series_terms_stop_at_the_fixed_point(rng):
    for _ in range(2000):
        ab = rng.uniform(-0.99, 6.0, size=2)
        t = 10.0 ** rng.uniform(-5.0, 1.5)
        M, N, L = (int(k) for k in rng.integers(0, 4, size=3))
        p = JacobiParams(*ab)
        assert kernel._series_terms(p, t, M, N, L) == _series_terms_reference(p, t, M, N, L)


@pytest.mark.parametrize("theta", [0.0, 1.0, math.pi], ids=str)
def test_diagonal_values_below_the_split_take_the_series(monkeypatch, column_calls,
                                                          acceptance_params, theta):
    p, ts = acceptance_params, np.array([0.05, 0.1, 0.19])
    integral_calls = _spy_on(monkeypatch, "h_script_integral")
    got = kernel.kernel_H_batch(p, ts, theta, theta)
    assert integral_calls == [] and column_calls == []
    assert np.array_equal(got, series_H(p, ts, theta, theta))


@pytest.mark.parametrize("ab, theta", [((0.5, 0.5), 3.0), ((-0.75, 0.5), 1.0), ((5.0, 5.0), 0.3)],
                         ids=str)
def test_mixed_diagonal_batch_equals_each_route(monkeypatch, ab, theta):
    # t = 1e-4 lies below T_MIN_SERIES and t = 0.005 needs 15,957 to 62,459
    # terms, above AUTO_SERIES_TERMS: both stay on the integral route, and
    # neither prediction raises.  0.05 (1,327 to 4,931 terms) takes the
    # series below the split, in one call with 0.5 from the split on.
    p = JacobiParams(*ab)
    ts = np.array([0.05, 1e-4, 0.5, 0.005])
    integral, series = [1, 3], [0, 2]
    series_calls = _spy_on(monkeypatch, "series_H")
    got = kernel.kernel_H_batch(p, ts, theta, theta)
    assert [args[1].tolist() for args in series_calls] == [ts[series].tolist()]
    assert np.array_equal(got[series], series_H(p, ts[series], theta, theta))
    assert np.array_equal(got[integral], h_script_integral(p, ts[integral], theta, theta)
                          + jph_correction(p, ts[integral]))


@pytest.mark.parametrize("deriv", [(1, 0, 0), (0, 1, 0)], ids=str)
def test_diagonal_derivatives_take_the_integral_route(monkeypatch, deriv):
    p, ts = JacobiParams(-0.75, -0.75), np.array([0.05, 0.1])  # lam < 0
    series_calls = _spy_on(monkeypatch, "series_H")
    got = kernel.kernel_H_batch(p, ts, 1.0, 1.0, *deriv)
    want = h_script_integral(p, ts, 1.0, 1.0, deriv=deriv)
    if deriv[1] == 0:
        want = want + jph_correction(p, ts, M=deriv[0])
    assert series_calls == [] and np.array_equal(got, want)


@pytest.mark.parametrize("M, N", [(0, 0), (1, 0), (0, 1), (1, 2)], ids=str)
def test_one_table_series_is_the_two_table_product(acceptance_params, M, N):
    p, ts = acceptance_params, np.array([0.05, 0.3])
    n_cut = kernel._series_cut(p, 0.05, M, N, N)
    rates = p.rates(n_cut)
    for theta in (0.0, 0.3, 1.5, 3.0, math.pi):
        coef = (trig_poly_table(p, n_cut, np.float64(theta), order=N)[:, None]
                * trig_poly_table(p, n_cut, np.array([theta]), order=N))
        if M:
            coef = coef * ((-rates) ** M)[:, None]
        want = (np.exp(-np.outer(ts, rates)) @ coef)[:, 0]
        assert np.array_equal(series_H(p, ts, theta, theta, M=M, N=N, L=N), want)


def _columns_taken(monkeypatch, args):
    """The least F4_MAX_DIAGONALS at which _f4_columns(*args) returns, one
    less than the number of columns it sums (a cap K allows K - 1
    recurrence steps after the two columns from hyp2f1)."""
    cap = kernel.F4_MAX_DIAGONALS
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(kernel, "F4_MAX_DIAGONALS", mid)
        try:
            kernel._f4_columns(*args)
            hi = mid
        except SlowConvergenceError:
            lo = mid + 1
    monkeypatch.setattr(kernel, "F4_MAX_DIAGONALS", cap)
    return lo


@pytest.mark.parametrize("t, theta, phi", [
    (0.01, 0.4, 2.5), (0.1, 1.0, 1.5), (0.05, 0.5, 0.6), (0.19, 1.0, 1.1), (0.1, 2.9, 3.0),
    (0.19, 1.0, 1.0), (0.01, 3.0, 3.1), (0.05, 0.0, 1.0), (0.15, 1.5, 1.52)], ids=str)
def test_column_estimate_bounds_the_columns_taken(monkeypatch, acceptance_params, t, theta, phi):
    # The columns' ratio tends to r from below, after a peak that the stop
    # rule's geo and F4_RTOL margin lengthen: n_hat <= taken <= 1.3 n_hat + 5
    # (five columns at least; up to 1.27 n_hat on these points).
    n_hat = float(kernel._f4_column_estimate(np.array([t]), theta, phi)[0])
    (a, b, c, c2, x, y, geo), _, _ = kernel._f4_head(acceptance_params, t, theta, phi)
    args = (a, b, c, c2, x, y, geo) if x <= y else (a, b, c2, c, y, x, geo)
    taken = _columns_taken(monkeypatch, args)
    assert n_hat <= taken <= 1.3 * n_hat + 5, (n_hat, taken)


@pytest.mark.parametrize("method", ["integral", "series"])
def test_named_routes_never_call_the_columns(column_calls, method):
    p = JacobiParams(-0.75, -0.75)
    for t, theta, phi in [(0.05, 0.4, 2.5), (0.1, 1.0, 1.5), (0.15, 0.0, 1.0)]:
        got = kernel_eval(p, KernelQuery(t=t, theta=theta, phi=phi, method=method))
        if method == "integral":
            assert got == float(h_script_integral(p, t, theta, phi)) + float(jph_correction(p, t))
        else:
            assert got == series_H(p, t, theta, phi)
    assert column_calls == []


@pytest.mark.parametrize("theta, phi, match", [
    (4.0, 2.0, r"theta must lie in \[0, pi\], got 4.0"),
    (0.5, -1e-9, r"phi must lie in \[0, pi\], got -1e-09"),
    (math.inf, 2.0, "theta must be finite, got inf"),
])
def test_batch_refuses_angles_outside_the_range(monkeypatch, theta, phi, match):
    # kernel_H_batch(HALF, [0.5], 4.0, 2.0) used to return 2.5665.
    monkeypatch.setattr(kernel, "series_H", _no_evaluation)
    monkeypatch.setattr(kernel, "_integral_terms", _no_evaluation)
    for ts in ([0.5], [0.05, 0.5]):
        with pytest.raises(ValueError, match=match):
            kernel.kernel_H_batch(HALF, ts, theta, phi)


@pytest.mark.parametrize("ab", [(0.5, 0.5), (-0.75, -0.75)], ids=str)
@pytest.mark.parametrize("M, match", [(0.5, "derivative orders must be integers, got 0.5"),
                                      (1.0, "derivative orders must be integers, got 1.0"),
                                      (-1, "derivative order M must be nonnegative, got -1")])
def test_correction_refuses_orders_that_are_not_nonnegative_integers(ab, M, match):
    # M = 0.5 used to raise a bare TypeError at alpha + beta < -1, and M = -1
    # returned -1.11 there.
    with pytest.raises(UnsupportedOrderError, match=match):
        jph_correction(JacobiParams(*ab), 0.5, M=M)


def _no_evaluation(*args, **kwargs):
    raise AssertionError("evaluated before the arguments were checked")


@pytest.mark.parametrize("N, L", [(0, 0), (0, 1), (4, 0), (1, 2), (2, -1)], ids=str)
def test_t_integral_refuses_orders_before_any_work(monkeypatch, N, L):
    # N = 0 used to reach qpsi's plain ValueError after the rules were built,
    # and L = 2 returned a value that nothing validates.  On the diagonal the
    # order check still comes first.
    monkeypatch.setattr(kernel, "_integral_terms", _no_evaluation)
    for theta, phi in [(1.0, 2.0), (1.0, 1.0)]:
        with pytest.raises(UnsupportedOrderError, match=f"got N={N}, L={L}"):
            kernel.t_integral_H(HALF, theta, phi, N, L, 10, 0, 2.0**-16)


FLOOR_RANGE = r"delta_floor must lie in \[2\^-40, 1/2\], got "


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: h_script_integral(HALF, 0.1, 1.0, 2.0, max_doublings=-1),
                 "max_doublings must be nonnegative, got -1", id="integral-max_doublings=-1"),
    pytest.param(lambda: h_script_integral(HALF, 0.1, 1.0, 2.0, base_nodes=0),
                 "base_nodes must be at least 1, got 0", id="integral-base_nodes=0"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [0.1, 0.5], 1.0, 2.0, base_nodes=-3),
                 "base_nodes must be at least 1, got -3", id="batch-base_nodes=-3"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 2.0, 1, 0, 0, 0, 2.0**-16),
                 "base_nodes must be at least 1, got 0", id="t-integral-base_nodes=0"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 2.0, 1, 0, 10, -1, 2.0**-16),
                 "max_doublings must be nonnegative, got -1", id="t-integral-max_doublings=-1"),
    pytest.param(lambda: h_script_integral(HALF, 0.05, 1.0, 1.02, base_nodes=2.5),
                 "base_nodes must be an integer, got 2.5", id="integral-base_nodes=2.5"),
    pytest.param(lambda: h_script_integral(HALF, 0.05, 1.0, 1.02, max_doublings=1.5),
                 "max_doublings must be an integer, got 1.5", id="integral-max_doublings=1.5"),
    *[pytest.param(lambda floor=floor: h_script_integral(HALF, 0.05, 1.0, 1.02, delta_floor=floor),
                   FLOOR_RANGE + str(floor), id=f"integral-delta_floor={floor}")
      for floor in [0.0, -1.0, math.nan, 1.0, math.inf, 1e-20]],
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 1.02, 1, 0, 10.0, 0, 2.0**-16),
                 "base_nodes must be an integer, got 10.0", id="t-integral-base_nodes=10.0"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 1.02, 1, 0, 10, 0, 0.0),
                 FLOOR_RANGE + "0.0", id="t-integral-delta_floor=0"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 1.02, 1, 0, 10, 0, math.inf),
                 FLOOR_RANGE + "inf", id="t-integral-delta_floor=inf"),
    pytest.param(lambda: kernel.t_integral_H(HALF, 1.0, 1.02, 1, 0, 10, 0, 1e-20),
                 FLOOR_RANGE + "1e-20", id="t-integral-delta_floor=1e-20"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [0.05, 0.5], 1.0, 1.02, max_doublings=1.5),
                 "max_doublings must be an integer, got 1.5", id="batch-max_doublings=1.5"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [0.05, 0.5], 1.0, 1.02, delta_floor=math.nan),
                 FLOOR_RANGE + "nan", id="batch-delta_floor=nan"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [0.05, 0.5], 1.0, 1.02, delta_floor=1e-20),
                 FLOOR_RANGE + "1e-20", id="batch-delta_floor=1e-20"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [1.0], 1.0, 2.0, base_nodes=2.5),
                 "base_nodes must be an integer, got 2.5", id="series-only-batch-base_nodes=2.5"),
    pytest.param(lambda: kernel.kernel_H_batch(HALF, [1.0], 1.0, 2.0, rtol=0.0),
                 "rtol must be positive and finite, got 0.0", id="series-only-batch-rtol=0"),
])
def test_quadrature_routes_reject_bad_resolutions(monkeypatch, call, match):
    # These used to raise QuadratureError ("did not stabilize at 24 nodes per
    # piece", "Gauss-Jacobi node solver failed for n=0") after evaluating; a
    # fractional base_nodes reached that solver too, a fractional
    # max_doublings raised a bare TypeError, and snap_delta clamped a
    # delta_floor of 0, -1, nan or 1e-20 (below its 2^-40), or let 1 or inf
    # turn the grading off.  A batch with no t below the split returned the
    # series' value.
    monkeypatch.setattr(kernel, "_integral_terms", _no_evaluation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


# Corner-graded rule.  Points (t_min, theta, phi) where both axes are graded
# (deep on the diagonal, shallow 0.05 off it, unequal depths near the poles),
# and where one axis or both are ungraded.
GRADED_POINTS = [(1e-3, 1.2, 1.2), (0.01, 1.2, 1.201), (0.05, 1.0, 1.05), (1e-4, 0.3, 0.3),
                 (0.01, 2.8, 2.8)]
UNGRADED_POINTS = [(0.5, 0.3, 2.0), (0.01, 0.05, 3.0), (0.1, 0.0, 0.5)]


def _axis_integral(gamma, K, f):
    """int f against one axis term's measure by an accurate ungraded rule:
    the density, the half-atoms, or the profile folded onto +-u (K = 1)."""
    if gamma > -0.5:
        nodes, weights = pi_measures.density_rule(gamma, 40)
        return np.sum(weights * f(nodes))
    if K == 0:
        return 0.5 * (f(np.float64(1.0)) + f(np.float64(-1.0)))
    nodes, weights = pi_measures.profile_rule(gamma, 40)
    return np.sum(weights * (f(nodes) - f(-nodes)))


@pytest.mark.parametrize("n", [6, 24, 48])
def test_corner_clouds_integrate_products_as_the_tensor(acceptance_params, n):
    # The corner cells tile the square, so a term's cloud integrates f(u) g(v)
    # as the tensor of its two axes' rules does: no further from the exact
    # product (by 40-node ungraded rules) than that tensor plus 1e-14 of the
    # weights' scale for f = g = 1 (the masses) at n >= 24, and plus 1e-13
    # for smooth f and g and at n = 6.  The graded rules are not exact on
    # their own: at alpha = 2, beta = -1/4 and n = 24 the tensor's mass is
    # 4e-13 off, where the cloud's, whose tails carry the singular weight,
    # is 3e-14 off.
    p = acceptance_params
    smooth = [lambda x: np.ones_like(x), np.exp, lambda x: np.cos(3.0 * x) + x**3]
    for t_min, theta, phi in GRADED_POINTS + UNGRADED_POINTS:
        P, Q = kernel._pq(theta, phi)
        u_terms = kernel._axis_terms(p.alpha, n, kernel._grading_delta(t_min, theta, phi, P))
        v_terms = kernel._axis_terms(p.beta, n, kernel._grading_delta(t_min, theta, phi, Q))
        grading = kernel._grading(p, t_min, theta, phi, pi_measures.DELTA_FLOOR)
        terms = iter(kernel._integral_terms(p, grading, n))
        for un, uw, K, _ in u_terms:
            for vn, vw, R, _ in v_terms:
                *arrays, K_term, R_term = next(terms)
                assert (K_term, R_term) == (K, R)
                u, v, w = arrays
                scale = np.sum(np.abs(uw)) * np.sum(np.abs(vw))
                for k, (f, g) in enumerate([(smooth[0], smooth[0]), (smooth[1], smooth[2]),
                                            (smooth[2], smooth[1])]):
                    exact = _axis_integral(p.alpha, K, f) * _axis_integral(p.beta, R, g)
                    tensor = np.sum(uw * f(un)) * np.sum(vw * g(vn))
                    tol = (1e-14 if k == 0 and n >= 24 else 1e-13) * scale
                    assert (abs(np.sum(w * f(u) * g(v)) - exact)
                            <= abs(tensor - exact) + tol), (t_min, theta, phi, K, R, k)


@pytest.mark.parametrize("ab", [(0.5, 0.5), (-0.75, 0.5), (0.5, -0.75), (-0.75, -0.75),
                                (-0.5, 0.5), (0.5, -0.5), (-0.5, -0.5)], ids=str)
def test_ungraded_and_atomic_terms_are_the_flattened_tensor(ab):
    # Every term, corner-graded or not, is one flat cloud: 1-D u, v and w of
    # one length.  A term with an ungraded or atomic axis is the u-major
    # flattening of the two axes' tensor.
    p = JacobiParams(*ab)
    seen = 0
    for t_min, theta, phi in GRADED_POINTS + UNGRADED_POINTS:
        P, Q = kernel._pq(theta, phi)
        u_terms = kernel._axis_terms(p.alpha, 24, kernel._grading_delta(t_min, theta, phi, P))
        v_terms = kernel._axis_terms(p.beta, 24, kernel._grading_delta(t_min, theta, phi, Q))
        grading = kernel._grading(p, t_min, theta, phi, pi_measures.DELTA_FLOOR)
        terms = iter(kernel._integral_terms(p, grading, 24))
        for un, uw, _, u_pieces in u_terms:
            for vn, vw, _, v_pieces in v_terms:
                arrays = next(terms)[:3]
                assert all(a.ndim == 1 and a.size == arrays[2].size for a in arrays)
                if u_pieces is not None and v_pieces is not None:
                    continue
                want = (np.repeat(un, vn.size), np.tile(vn, un.size), np.outer(uw, vw).ravel())
                assert all(np.array_equal(a, b) for a, b in zip(arrays, want))
                seen += 1
    assert seen >= len(UNGRADED_POINTS)


SWEEP_DERIVS = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0),
                (1, 0, 1), (0, 3, 0), (1, 2, 1)]


def _errors(p, t, theta, phi, deriv):
    """Relative error of the integral route against the series, or the
    type of the error it raised."""
    M, N, L = deriv
    try:
        got = h_script_integral(p, t, theta, phi, deriv=deriv)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)
    if N == 0 and L == 0:
        got = got + jph_correction(p, t, M=M)
    ref = series_H(p, t, theta, phi, M=M, N=N, L=L)
    return np.abs(got - ref) / np.abs(ref)


@pytest.mark.parametrize("sep", [0.0, 1e-3, 0.05])
def test_corner_rule_is_as_accurate_as_the_tensor_rule(monkeypatch, acceptance_params, sep):
    # Against the series at t in {0.01, 0.03, 0.1} (one batch, so 0.01 and
    # 0.03 share a band) for the value and the derivative orders the scans
    # and the benchmark take: the corner rule's error stays within the full
    # graded tensor's (the rule it replaced, with corner_pieces off) plus
    # 1e-12, and no call changes whether it raises.  Near the diagonal at
    # t = 0.01 both rules sit at the roundoff floor of D = cosh(t/2) - 1 + q,
    # whose cancellation moves the tensor rule's error by 7e-12 to 2e-10 at
    # the orders where the corner rule exceeds that bound (by at most 2.6e-12)
    # when theta moves by one ulp; there the bound adds that move.
    p, theta = acceptance_params, 1.2
    ts = np.array([0.01, 0.03, 0.1])
    for deriv in SWEEP_DERIVS:
        corner = _errors(p, ts, theta, theta + sep, deriv)
        with monkeypatch.context() as patch:
            patch.setattr(pi_measures, "corner_pieces", lambda *args: None)
            tensor = _errors(p, ts, theta, theta + sep, deriv)
            if isinstance(tensor, type) or isinstance(corner, type):
                assert corner == tensor, deriv
                continue
            excess = corner - tensor - 1e-12
            if np.any(excess > 0):
                nudged = _errors(p, ts, np.nextafter(theta, 2.0), theta + sep, deriv)
                assert np.all(excess <= np.abs(nudged - tensor)), (deriv, corner, tensor, nudged)


# The closed forms at the four trigonometric pairs (_oracles.trig_H) against
# every route that takes the point, each at its own tolerance: the series
# where t >= T_MIN_SERIES, F4 inside its convergence domain, the integral
# and general routes plus jph_correction.  The angles lie on the diagonal,
# 1e-7 off it, far from it, next to theta = 0 and next to theta = phi = pi.
TRIG_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5)]
TRIG_TS = [1e-4, 0.01, 0.3, 2.0]
TRIG_ANGLES = [(1.0, 1.0), (1.0, 1.0 + 1e-7), (0.4, 2.5), (1e-6, 0.3), (3.1, 3.1)]
_NEAR_DIAGONAL = [TRIG_ANGLES[i] for i in (0, 1, 4)]
_FAR = TRIG_ANGLES[2:4]
# Where a route fails today.  At t = 1e-4 on or 1e-7 off the diagonal the
# integral and general routes miss by 2.6e-8 to 8.3e-8 or refuse: D
# cancels (ROADMAP item 3).  At t = 0.01 away from the diagonal the series
# misses SERIES_RTOL by 1.5e-13 to 3.1e-10: its terms cancel (item 6).  At
# t = 0.01 on and next to the diagonal at alpha = beta = 1/2 the general
# route refuses at its roundoff floor (item 3).
_REFUSED = {  # (route, (alpha, beta), t, (theta, phi)) that raise QuadratureError
    ("integral", (0.5, 0.5), 1e-4, TRIG_ANGLES[0]), ("integral", (0.5, 0.5), 1e-4, TRIG_ANGLES[1]),
    ("integral", (-0.5, 0.5), 1e-4, TRIG_ANGLES[1]),
    *[("general", (0.5, 0.5), 1e-4, a) for a in _NEAR_DIAGONAL],
    *[("general", (-0.5, 0.5), 1e-4, a) for a in TRIG_ANGLES[:2]],
    *[("general", (0.5, -0.5), 1e-4, a) for a in _NEAR_DIAGONAL],
    *[("general", (0.5, 0.5), 0.01, a) for a in TRIG_ANGLES[:2]],
}
_OFF = {  # (route, t, (theta, phi)) that miss at every pair, unless refused
    *[(route, 1e-4, a) for route in ("integral", "general") for a in _NEAR_DIAGONAL],
    *[("series", 0.01, a) for a in _FAR],
}


def _trig_cases():
    for ab in TRIG_PAIRS:
        for t in TRIG_TS:
            for theta, phi in TRIG_ANGLES:
                routes = ["integral", "general"]
                if math.cos(0.5 * (theta - phi)) / math.cosh(0.5 * t) < 1.0 - kernel.F4_EPS_CONV:
                    routes.insert(0, "f4")
                if t >= kernel.T_MIN_SERIES:
                    routes.insert(0, "series")
                for route in routes:
                    case = (route, ab, t, (theta, phi))
                    marks = []
                    if case in _REFUSED:
                        marks = pytest.mark.xfail(strict=True, raises=QuadratureError,
                                                  reason="refused: ROADMAP item 3")
                    elif (route, t, (theta, phi)) in _OFF:
                        item = 6 if route == "series" else 3
                        marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                                  reason=f"off the closed form: ROADMAP item {item}")
                    yield pytest.param(*case, marks=marks,
                                       id=f"{route}-{ab}-t={t:g}-({theta:g}, {phi:.8g})")


@pytest.mark.parametrize("route, ab, t, angles", _trig_cases())
def test_routes_match_the_trigonometric_forms(route, ab, t, angles):
    p, (theta, phi) = JacobiParams(*ab), angles
    if route == "series":
        got, rtol = series_H(p, t, theta, phi), kernel.SERIES_RTOL
    else:
        fn, rtol = {"f4": (h_script_f4, kernel.F4_RTOL),
                    "integral": (h_script_integral, kernel.INTEGRAL_RTOL),
                    "general": (h_script_general, kernel.GENERAL_RTOL)}[route]
        got = float(fn(p, t, theta, phi)) + float(jph_correction(p, t))
    want = trig_H(*ab, t, theta, phi)
    assert abs(got - want) <= rtol * abs(want), (got, want)


# auto's values where the cost rule picks F4 columns, against the same forms.
@pytest.mark.parametrize("ab", TRIG_PAIRS, ids=str)
def test_auto_matches_the_trigonometric_forms_on_f4_points(column_calls, ab):
    p = JacobiParams(*ab)
    points = [(t, theta, phi) for t in (0.01, 0.05, 0.15)
              for theta, phi in [(0.4, 2.5), (1e-6, 0.3), (1.0, 1.3), (2.9, 3.1)]]
    for t, theta, phi in points:
        got = kernel_eval(p, KernelQuery(t=t, theta=theta, phi=phi))
        want = trig_H(*ab, t, theta, phi)
        assert abs(got - want) <= kernel.F4_RTOL * abs(want), (t, theta, phi, got, want)
    assert len(column_calls) == len(points)


# auto on the diagonal, where the series takes every t below the split
# here (at most 1,723 terms), against the same forms: within 2.5e-14, where
# the integral route read 5.9e-13 to 7.3e-13 off at each pair.
@pytest.mark.parametrize("ab", TRIG_PAIRS, ids=str)
def test_auto_matches_the_trigonometric_forms_on_the_diagonal(ab):
    p, ts = JacobiParams(*ab), np.array([0.05, 0.1, 0.15, 0.19])
    for theta in (0.0, 0.01, 0.3, 1.5, 3.0, math.pi - 0.01, math.pi):
        got = kernel.kernel_H_batch(p, ts, theta, theta)
        for t, h in zip(ts.tolist(), got.tolist()):
            want = trig_H(*ab, t, theta, theta)
            assert abs(h - want) <= 1e-13 * abs(want), (t, theta, h, want)
