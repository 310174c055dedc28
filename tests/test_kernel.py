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

from jpkernel import kernel, pi_measures
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
    cloud,
    integral_sum,
    psi_integrand,
    row_sums,
    t_integral_integrand,
    weighted_rows,
)
from _oracles import chebyshev_H

CHEB = JacobiParams(-0.5, -0.5)
NON_FINITE = [math.inf, -math.inf, math.nan]

with open(Path(__file__).parent / "golden" / "compare_cheb.csv", newline="") as _fh:
    _COMPARE_POINTS = [(CHEB, float(r["t"]), float(r["theta"]), float(r["phi"]))
                       for r in csv.DictReader(_fh)]
# (params, t, theta, phi) where the F4 sweep is checked against the reference
# loop: the compare golden (at most 419 anti-diagonals); theta = 0 (x = 0,
# 1,267 diagonals) and phi = pi (y ~ 4e-33, 1,927 diagonals), whose zero and
# underflowing entries meet the renormalization mask; the theta = 0, phi = pi
# corner; 801 diagonals at alpha = beta = 0, whose last bit a window trimmed
# from the first diagonal would change; and rho = 1/cosh(0.05) ~ 0.99875
# (10,426 diagonals).  All but the last must be equal bit for bit: the
# golden and the 801-diagonal points end before F4_WINDOW_START, and past it
# the edges' window drops only exact zeros (x = 0) or entries below half an
# ulp of their block (y ~ 4e-33).  The last point's window drops entries
# below eps rtol of the sum, so it sums in another order and agrees to 1e-13.
F4_WINDOWED_POINT = (JacobiParams(2.0, -0.25), 0.1, 1.2, 1.2)
F4_SWEEP_POINTS = _COMPARE_POINTS + [
    (JacobiParams(0.5, -0.75), 0.05, 0.0, 0.3),
    (JacobiParams(-0.75, 0.5), 0.05, 2.9, math.pi),
    (JacobiParams(0.0, 0.0), 0.7, 0.0, math.pi),
    (JacobiParams(0.0, 0.0), 0.3, 1.5, 1.3),
    F4_WINDOWED_POINT,
]

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

    @pytest.mark.parametrize(
        "p, t, th, ph", F4_SWEEP_POINTS,
        ids=lambda v: f"{v:g}" if isinstance(v, float) else f"a{v.alpha}_b{v.beta}",
    )
    def test_sweep_is_bitwise_the_reference_loop(self, p, t, th, ph):
        got, ref = h_script_f4(p, t, th, ph), h_script_f4_reference(p, t, th, ph)
        if (p, t, th, ph) == F4_WINDOWED_POINT:
            assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        else:
            assert got == ref

    # About 23,000 anti-diagonals each (rho ~ 0.99944), where the full
    # reference loop would take seconds: checked against independent values.
    # theta = 0 (x = 0) and phi = pi (y ~ 4e-33) leave one live column.
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
            tc = np.full((1, 1, 1), 0.5)
            parts = [float(row_sums(weighted_rows(evaluate, tc, *term))[0][0])
                     for term in _integral_terms(p, 0.5, half_pi, half_pi, 96)]
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

    def test_auto_dispatch(self):
        p = JacobiParams(0.0, 0.0)
        small = kernel_eval(p, KernelQuery(t=0.1, theta=1.0, phi=1.5))
        assert_allclose(small, float(h_script_integral(p, 0.1, 1.0, 1.5)), rtol=1e-12)
        large = kernel_eval(p, KernelQuery(t=1.0, theta=1.0, phi=1.5))
        assert_allclose(large, series_H(p, 1.0, 1.0, 1.5), rtol=1e-14)

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
@pytest.mark.parametrize("route", [h_script_f4, h_script_integral, h_script_general],
                         ids=lambda f: f.__name__)
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
    largest = max(w.size for _, _, w, *_ in _integral_terms(p, float(ts.min()), theta, phi,
                                                           n_nodes))
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
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, rtol=0.0),
                 "rtol must be positive and finite, got 0.0", id="rtol=0"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, rtol=-1e-13),
                 "rtol must be positive and finite, got -1e-13", id="rtol<0"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, rtol=math.nan),
                 "rtol must be positive and finite, got nan", id="rtol=nan"),
    pytest.param(lambda: series_H(HALF, 1.0, 1.0, 2.0, rtol=math.inf),
                 "rtol must be positive and finite, got inf", id="rtol=inf"),
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


@pytest.mark.parametrize("t_shape", [(1, 2), (2, 1, 2), (2,)], ids=str)
def test_integral_route_keeps_the_shape_of_t(t_shape):
    ts = np.linspace(0.1, 0.15, math.prod(t_shape)).reshape(t_shape)
    got = h_script_integral(HALF, ts, 1.0, 2.0)
    assert got.shape == t_shape
    assert np.array_equal(got.ravel(), h_script_integral(HALF, ts.ravel(), 1.0, 2.0))
    assert np.array_equal(got, kernel.kernel_H_batch(HALF, ts, 1.0, 2.0, split=math.inf))


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
])
def test_quadrature_routes_reject_bad_resolutions(monkeypatch, call, match):
    # These used to raise QuadratureError ("did not stabilize at 24 nodes per
    # piece", "Gauss-Jacobi node solver failed for n=0") after evaluating.
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
        terms = iter(kernel._integral_terms(p, t_min, theta, phi, n))
        for un, uw, K, _ in u_terms:
            for vn, vw, R, _ in v_terms:
                *arrays, K_term, R_term = next(terms)
                assert (K_term, R_term) == (K, R)
                u, v, w = cloud(*arrays)
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
    p = JacobiParams(*ab)
    seen = 0
    for t_min, theta, phi in GRADED_POINTS + UNGRADED_POINTS:
        P, Q = kernel._pq(theta, phi)
        u_terms = kernel._axis_terms(p.alpha, 24, kernel._grading_delta(t_min, theta, phi, P))
        v_terms = kernel._axis_terms(p.beta, 24, kernel._grading_delta(t_min, theta, phi, Q))
        terms = iter(kernel._integral_terms(p, t_min, theta, phi, 24))
        for un, uw, _, u_pieces in u_terms:
            for vn, vw, _, v_pieces in v_terms:
                arrays = next(terms)[:3]
                if u_pieces is not None and v_pieces is not None:
                    continue
                want = (np.repeat(un, vn.size), np.tile(vn, un.size), np.outer(uw, vw).ravel())
                assert all(np.array_equal(a, b) for a, b in zip(cloud(*arrays), want))
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
