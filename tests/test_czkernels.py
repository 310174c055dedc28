"""Tests for the operator kernels and their estimate scans."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from jpkernel import czkernels
from jpkernel._parallel import thread_count
from jpkernel.basis import OrthonormalBasis, mu_total, theta_quad_rule, trig_poly_table
from jpkernel.czkernels import (
    LaplaceKernel,
    MaximalKernel,
    RieszKernel,
    SquareFunctionKernel,
    StieltjesAtoms,
    StieltjesKernel,
    _golden_max,
    _maximal_t_grid,
    constant_profile,
    gradient_check,
    growth_check,
    imaginary_power_profile,
    make_kernel,
    smoothness_check,
)
from jpkernel.errors import TailError
from jpkernel.kernel import closed_form_chebyshev
from jpkernel.params import JacobiParams

from _basis_reference import trig_poly_deriv
from _riesz_reference import riesz1_value
from conftest import ACCEPTANCE_SETS

CHEB = JacobiParams(-0.5, -0.5)
# The acceptance sets and sigma = 1 off the Chebyshev case.
RIESZ_SETS = ACCEPTANCE_SETS + [(-0.75, -0.25)]


def _cheb_dt(t, theta, phi, h=1e-6):
    return (closed_form_chebyshev(t + h, theta, phi)
            - closed_form_chebyshev(t - h, theta, phi)) / (2 * h)


def _cheb_dth(t, theta, phi, h=1e-6):
    return (closed_form_chebyshev(t, theta + h, phi)
            - closed_form_chebyshev(t, theta - h, phi)) / (2 * h)


class TestMaximal:
    def test_matches_closed_form_pipeline(self):
        refined = MaximalKernel(CHEB).norm(1.0, 2.0)
        preset_grid = _maximal_t_grid(1e-4, 64)
        vals = closed_form_chebyshev(preset_grid, 1.0, 2.0)
        i = int(np.argmax(vals))
        ref = max(
            float(vals[i]),
            _golden_max(
                lambda lt: closed_form_chebyshev(math.exp(lt), 1.0, 2.0),
                math.log(preset_grid[max(i - 1, 0)]), math.log(preset_grid[i + 1]), iters=36,
            ),
        )
        ref = max(ref, 1.0 / mu_total(CHEB))
        assert_allclose(refined, ref, rtol=1e-8)

    def test_far_pair_is_finite_and_small(self):
        p = JacobiParams(0.5, -0.75)
        refined = MaximalKernel(p).norm(0.1, 3.0)
        assert 0 < refined < 10.0

    def test_lam_zero_limit_candidate(self):
        # the t -> infinity limit 1/mu_total is part of the sup
        refined = MaximalKernel(CHEB).norm(1.0, 1.2)
        assert refined >= 1.0 / mu_total(CHEB) - 1e-14

    @pytest.mark.parametrize("kernel_id, options, quality, theta", [
        ("maximal", {}, "accurate", 1.0), ("riesz", {"N": 1}, "accurate", 1.0),
        ("gfun", {"M": 1, "N": 0}, "accurate", 1.0), ("laplace", {}, "accurate", 1.0),
        ("riesz", {"N": 1}, "scan", 1.0), ("riesz", {"N": 1}, "accurate", math.nan),
        ("riesz", {"N": 1}, "scan", math.nan),
    ], ids=["maximal", "riesz", "gfun", "laplace", "riesz-scan", "riesz-nan", "riesz-scan-nan"])
    def test_diagonal_rejected(self, kernel_id, options, quality, theta):
        # refused before any work, without a RuntimeWarning
        k = make_kernel(CHEB, kernel_id, quality=quality, **options)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                k.norm(theta, 1.0)


class TestRiesz:
    def test_order_one_mpmath_style_oracle(self):
        # adaptive quadrature of the closed-form t-integrand
        got = RieszKernel(CHEB, 1)._value(1.0, 2.3)
        ref, _ = integrate.quad(lambda t: _cheb_dth(t, 1.0, 2.3), 0, 60, limit=300)
        assert_allclose(got, ref, rtol=1e-7)

    def test_order_two_oracle(self):
        got = RieszKernel(CHEB, 2)._value(1.2, 2.4)

        def s2(t, x):
            # S(x) = sum_k r^k cos kx, D = 1 - 2 r cos x + r^2:
            # S''(x) = -(1 - r^2)/2 [2 r cos x / D^2 - 8 r^2 sin^2 x / D^3]
            r = math.exp(-t)
            d = 1.0 - 2.0 * r * math.cos(x) + r * r
            return -(1.0 - r * r) / 2.0 * (2.0 * r * math.cos(x) / d**2
                                           - 8.0 * r * r * math.sin(x) ** 2 / d**3)

        def d2(t):
            # exact d_theta^2 of closed_form_chebyshev
            return (s2(t, 1.2 - 2.4) + s2(t, 1.2 + 2.4)) / math.pi

        ref, _ = integrate.quad(lambda t: d2(t) * t, 0, 60, limit=300)
        assert_allclose(got, ref, rtol=1e-5)

    @pytest.mark.parametrize("quality, tol", [("accurate", 1e-12), ("scan", 1e-10)])
    def test_order_one_chebyshev_exact(self, quality, tol):
        # alpha = beta = -1/2 (sigma = 1): R_1 = -[cot(x/2) + cot(y/2)] / (2 pi),
        # x, y = theta -+ phi, and its theta and phi derivatives
        k = RieszKernel(CHEB, 1, quality)
        for theta, phi in [(0.3, 2.8), (2.6, 0.4), (1.0, 2.0), (2.1, 1.4), (1.2, 1.3),
                           (2.5, 2.4)]:
            a, b = 0.5 * (theta - phi), 0.5 * (theta + phi)
            csc2_a, csc2_b = 1.0 / math.sin(a) ** 2, 1.0 / math.sin(b) ** 2
            exact = {(0, 0): -(1.0 / math.tan(a) + 1.0 / math.tan(b)) / (2.0 * math.pi),
                     (1, 0): (csc2_a + csc2_b) / (4.0 * math.pi),
                     (0, 1): (csc2_b - csc2_a) / (4.0 * math.pi)}
            for (dth, dph), ref in exact.items():
                assert_allclose(k._value(theta, phi, dth, dph), ref, rtol=tol,
                                err_msg=f"{(theta, phi, dth, dph)}")

    @pytest.mark.parametrize("ab", RIESZ_SETS, ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
    def test_order_one_matches_t_quadrature(self, ab):
        # The reference takes up to 10 s per value near the diagonal, so
        # there each set checks one of the three derivatives, in turn.
        k = RieszKernel(JacobiParams(*ab), 1)
        derivs = [(0, 0), (1, 0), (0, 1)]
        i = RIESZ_SETS.index(ab)
        cases = [(0.3, 2.8, d) for d in derivs] + [(2.2, 1.2, derivs[(i + 1) % 3]),
                                                   (1.5, 1.51, derivs[i % 3])]
        for theta, phi, (dth, dph) in cases:
            assert_allclose(k._value(theta, phi, dth, dph),
                            riesz1_value(k, theta, phi, dth, dph), rtol=1e-10,
                            err_msg=f"{(theta, phi, dth, dph)}")

    def test_order_must_be_one_or_two(self):
        for N in (0, 3):
            with pytest.raises(ValueError, match="Riesz order"):
                RieszKernel(CHEB, N)

    def test_no_symmetry_but_finite(self):
        p = JacobiParams(0.5, -0.75)
        a = RieszKernel(p, 1)._value(0.9, 2.0)
        b = RieszKernel(p, 1)._value(2.0, 0.9)
        assert math.isfinite(a) and math.isfinite(b)

    def test_spectral_consistency_five_points(self):
        # action on basis functions reproduces the inverse-rate symbol
        import sys
        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
        from _dualroute import RieszKernelRoute

        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 8)
        for theta in (0.4, 1.0, 1.7, 2.3, 2.9):
            route = RieszKernelRoute(p, 1, theta)
            table = trig_poly_table(p, 8, route.rule.nodes)
            for n in range(1, 7):
                got = route.apply(table[n])
                a_n = abs(n + 0.5 * p.lam)
                ref = a_n ** (-1.0) * trig_poly_deriv(basis, n, theta, 1)
                assert_allclose(got, ref, rtol=1e-5)


class TestSquareFunction:
    def test_order_10_oracle(self):
        got = SquareFunctionKernel(CHEB, 1, 0).norm(1.0, 2.5)
        ref, _ = integrate.quad(lambda t: _cheb_dt(t, 1.0, 2.5) ** 2 * t, 0, 80, limit=300)
        assert_allclose(got, math.sqrt(ref), rtol=1e-6)

    def test_order_01_positive_finite(self):
        p = JacobiParams(-0.75, 0.5)
        val = SquareFunctionKernel(p, 0, 1).norm(1.0, 2.0)
        assert 0 < val < 1e3

    def test_order_validation(self):
        with pytest.raises(ValueError):
            SquareFunctionKernel(CHEB, 0, 0)
        with pytest.raises(ValueError):
            SquareFunctionKernel(CHEB, 2, 1)


class TestLaplace:
    def test_constant_profile_telescopes(self):
        # -int d_t H dt = H(0+) - H(inf); off-diagonal the first term is 0
        # and for zero spectral shift the second is 1/mu_total
        lk = LaplaceKernel(CHEB, constant_profile())
        assert_allclose(lk._value(1.0, 2.0), -1.0 / mu_total(CHEB), rtol=5e-9)

    def test_constant_profile_positive_shift(self):
        # both limits vanish off-diagonal, so the kernel is tiny
        p = JacobiParams(0.5, 0.5)
        lk = LaplaceKernel(p, constant_profile())
        assert abs(lk._value(1.0, 2.0)) < 1e-6

    def test_imaginary_profile_complex_value(self):
        p = JacobiParams(0.5, -0.75)
        lk = LaplaceKernel(p, imaginary_power_profile(0.5))
        val = lk._value(1.0, 2.2)
        assert isinstance(val, complex)
        assert math.isfinite(abs(val))

    def test_tiny_spectral_gap_tail_error(self):
        with pytest.raises(TailError):
            LaplaceKernel(JacobiParams(-0.5, -0.5 + 1e-5), constant_profile())


class TestStieltjes:
    def test_single_atom(self):
        got = StieltjesKernel(CHEB, StieltjesAtoms((0.9,), (1.0,)))._value(0.7, 2.1)
        assert_allclose(got, closed_form_chebyshev(0.9, 0.7, 2.1), rtol=1e-10)

    def test_difference_of_atoms(self):
        got = StieltjesKernel(CHEB, StieltjesAtoms((1.0, 2.0), (1.0, -1.0)))._value(0.7, 2.1)
        ref = closed_form_chebyshev(1.0, 0.7, 2.1) - closed_form_chebyshev(2.0, 0.7, 2.1)
        assert_allclose(got, ref, rtol=1e-10)

    def test_mass_identity_per_atom(self):
        p = JacobiParams(0.5, -0.75)
        atoms = StieltjesAtoms((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        rule = theta_quad_rule(p, 256)
        theta = 1.1
        kernel = StieltjesKernel(p, atoms)
        vals = np.array([kernel._value(theta, float(ph)) for ph in rule.nodes])
        mass = float(np.sum(rule.weights * vals))
        ref = sum(math.exp(-j * abs(p.lam) / 2) for j in (1.0, 2.0, 3.0))
        assert_allclose(mass, ref, atol=1e-8)

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            StieltjesAtoms((), ())
        with pytest.raises(ValueError):
            StieltjesAtoms((-1.0,), (1.0,))


class TestChecks:
    def test_growth_rows_and_full_ball(self):
        p = JacobiParams(0.5, -0.75)
        report = growth_check(p, "stieltjes", [0.0, 1.0], [math.pi, 2.0],
                              options={"atoms": StieltjesAtoms((5.0,), (1.0,))})
        assert report.passed
        row = next(r for r in report.rows if r[0] == 0.0 and r[1] == math.pi)
        assert_allclose(row[3], 1.0 / mu_total(p), rtol=1e-10)  # full-ball bound

    def test_laplace_const_coarse_grid(self):
        # degenerate identity-multiplier profile: finite (noise-level) ratios
        grid = np.linspace(0.3, math.pi - 0.3, 5)
        report = growth_check(CHEB, "laplace", grid, grid)
        assert report.passed
        assert all(math.isfinite(r) for r in report.ratios)

    def test_gradient_check_riesz_chebyshev(self):
        grid = np.linspace(0.4, math.pi - 0.4, 4)
        report = gradient_check(CHEB, "riesz", grid, grid, options={"N": 1})
        assert report.passed
        assert report.meta["stabilized"] in (True, None)

    @pytest.mark.parametrize("check", [growth_check, gradient_check], ids=["growth", "gradient"])
    def test_gradient_report_symmetric_scan_layout(self, check):
        # scan rows come in both orders of each pair, with equal norms
        grid = np.array([0.5, 1.5, 2.5])
        report = check(JacobiParams(0.0, 0.0), "maximal", grid, grid)
        norms = {(r[0], r[1]): r[2] for r in report.rows}
        assert (0.5, 1.5) in norms and (1.5, 0.5) in norms
        for theta, phi in norms:
            assert norms[(phi, theta)] == norms[(theta, phi)]

    def test_symmetric_scan_probes_each_unordered_pair_once(self, monkeypatch):
        calls = []
        norm = StieltjesKernel.norm

        def counted(self, theta, phi):
            calls.append((self.quality, theta, phi))
            return norm(self, theta, phi)

        monkeypatch.setattr(StieltjesKernel, "norm", counted)
        grid = [2.5, 1.5, 0.5]  # decreasing: each pair meets its mirror first at theta > phi
        report = growth_check(JacobiParams(0.5, 0.5), "stieltjes", grid, grid)
        scan_calls = [call[1:] for call in calls if call[0] == "scan"]
        assert sorted(scan_calls) == [(0.5, 1.5), (0.5, 2.5), (1.5, 2.5)]
        # the one other probe is the scan_fine re-check of the worst pair
        assert report.meta["stabilized"] is not None
        assert [call[0] for call in calls if call[0] != "scan"] == ["scan_fine"]
        norms = {(r[0], r[1]): r[2] for r in report.rows}
        assert len(norms) == 6
        for theta, phi in norms:
            assert norms[(phi, theta)] == norms[(theta, phi)]

    def test_smoothness_sampling(self):
        report = smoothness_check(JacobiParams(0.5, 0.5), "riesz", n_samples=20,
                                  options={"N": 1})
        assert len(report.rows) == 20
        assert report.passed

    def test_empty_scans_rejected(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError, match="smoothness"):
            smoothness_check(p, "stieltjes", n_samples=0)
        with pytest.raises(ValueError, match="growth"):
            growth_check(p, "stieltjes", [1.0], [1.0])

    @pytest.mark.parametrize("cap", [math.nan, -1.0, 0.0, math.inf], ids=str)
    @pytest.mark.parametrize("scan", ["growth", "gradient", "smoothness"])
    def test_cap_outside_open_half_line_rejected_before_any_evaluation(self, monkeypatch,
                                                                       scan, cap):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built before the cap was checked")

        monkeypatch.setattr(czkernels, "make_kernel", no_kernel)
        p = JacobiParams(0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"cap must be positive and finite, got {cap}"):
                if scan == "smoothness":
                    smoothness_check(p, "stieltjes", n_samples=2, cap=cap)
                else:
                    check = growth_check if scan == "growth" else gradient_check
                    check(p, "stieltjes", [0.5, 1.5], [0.5, 1.5], cap=cap)

    def test_make_kernel_registry(self):
        p = JacobiParams(0.0, 0.0)
        assert isinstance(make_kernel(p, "maximal"), MaximalKernel)
        assert isinstance(make_kernel(p, "riesz", N=2), RieszKernel)
        assert isinstance(make_kernel(p, "gfun", M=0, N=1), SquareFunctionKernel)
        assert isinstance(make_kernel(p, "laplace"), LaplaceKernel)
        assert isinstance(make_kernel(p, "stieltjes"), StieltjesKernel)
        with pytest.raises(ValueError):
            make_kernel(p, "bogus")


class TestThreadCount:
    def test_malformed_value_rejected(self, monkeypatch):
        monkeypatch.setenv("JPK_THREADS", "1")
        assert thread_count() == 1
        monkeypatch.setenv("JPK_THREADS", "two")
        with pytest.raises(ValueError, match="JPK_THREADS"):
            thread_count()
