"""Tests for spectral operator application on finite expansions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from jpkernel.basis import OrthonormalBasis, mu_total
from jpkernel.czkernels import StieltjesAtoms, constant_profile, imaginary_power_profile
from jpkernel.operators import (
    Expansion,
    analyze,
    dropped_modes,
    expansion_from_dict,
    expansion_to_dict,
    g_function,
    laplace_symbol,
    multiplier_apply,
    riesz_apply,
    semigroup_apply,
    synthesize,
)
from jpkernel.params import JacobiParams

from _basis_reference import trig_poly_deriv, trig_poly_eval
from conftest import unit_expansion

CHEB = JacobiParams(-0.5, -0.5)


class TestAnalyze:
    def test_reproduces_basis_vector(self):
        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 10)
        e3 = unit_expansion(basis, 3)
        got = analyze(basis, lambda th: synthesize(e3, th))
        assert np.max(np.abs(got.coeffs - e3.coeffs)) < 1e-10

    def test_constant_function(self):
        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 6)
        got = analyze(basis, lambda th: np.ones_like(th))
        assert_allclose(got.coeffs[0], math.sqrt(mu_total(p)), rtol=1e-12)
        assert np.max(np.abs(got.coeffs[1:])) < 5e-12

    def test_chebyshev_cosine(self):
        basis = OrthonormalBasis(CHEB, 6)
        got = analyze(basis, lambda th: np.cos(2 * th))
        assert_allclose(got.coeffs[2], math.sqrt(math.pi / 2), rtol=1e-13)
        assert np.max(np.abs(np.delete(got.coeffs, 2))) < 1e-12

    def test_roundtrip_on_span(self, rng):
        p = JacobiParams(-0.75, 0.5)
        basis = OrthonormalBasis(p, 8)
        coeffs = rng.normal(size=9)
        exp = Expansion(basis, coeffs)
        back = analyze(basis, lambda th: synthesize(exp, th))
        assert_allclose(back.coeffs, coeffs, atol=1e-10)


class TestSemigroup:
    def test_time_zero_identity(self, rng):
        basis = OrthonormalBasis(JacobiParams(0.3, 0.3), 5)
        exp = Expansion(basis, rng.normal(size=6))
        out = semigroup_apply(exp, 0.0)
        assert np.array_equal(out.coeffs, exp.coeffs)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf], ids=str)
    def test_rejects_negative_or_non_finite_t(self, t):
        # lam = 0 here, so t = inf would meet the zero rate as inf * 0
        exp = Expansion(OrthonormalBasis(JacobiParams(-0.5, -0.5), 3), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"finite, got {t}"):
                semigroup_apply(exp, t)

    def test_exponent_law(self, rng):
        basis = OrthonormalBasis(JacobiParams(0.5, -0.75), 7)
        exp = Expansion(basis, rng.normal(size=8))
        a = semigroup_apply(semigroup_apply(exp, 0.3), 0.7)
        b = semigroup_apply(exp, 1.0)
        assert_allclose(a.coeffs, b.coeffs, rtol=1e-15)

    def test_contraction_when_shift_nonzero(self, rng):
        basis = OrthonormalBasis(JacobiParams(0.5, 0.5), 6)
        exp = Expansion(basis, rng.normal(size=7))
        norms = [np.linalg.norm(semigroup_apply(exp, t).coeffs) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))

    def test_kernel_route_duality(self):
        import sys
        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
        from _dualroute import semigroup_kernel_route

        p = JacobiParams(-0.75, 0.5)
        basis = OrthonormalBasis(p, 6)
        exp = Expansion(basis, np.array([0.5, 1.0, 0.0, -0.3, 0.0, 0.2, 0.0]))
        t, theta = 0.8, 1.3
        spectral = float(synthesize(semigroup_apply(exp, t), theta))
        kernel_route = semigroup_kernel_route(p, t, theta, lambda th: synthesize(exp, th))
        assert_allclose(kernel_route, spectral, rtol=1e-7)


class TestRiesz:
    def test_bottom_mode_excluded(self):
        basis = OrthonormalBasis(JacobiParams(0.5, 0.5), 4)
        out = riesz_apply(unit_expansion(basis, 0), 1)
        assert out(1.234) == 0.0

    def test_single_mode_formula(self):
        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 5)
        n = 3
        out = riesz_apply(unit_expansion(basis, n), 2)
        a_n = abs(n + 0.5 * p.lam)
        assert_allclose(out(0.8), a_n ** (-2.0) * trig_poly_deriv(basis, n, 0.8, 2), rtol=1e-12)

    def test_complex_coefficients(self):
        basis = OrthonormalBasis(JacobiParams(0.5, 0.5), 3)
        coeffs = np.array([1 + 0.5j, 0.2, 1j, 0.1 + 0.1j])
        got = riesz_apply(Expansion(basis, coeffs), 1)(0.5)
        re, im = (riesz_apply(Expansion(basis, part), 1)(0.5)
                  for part in (coeffs.real, coeffs.imag))
        assert_allclose(got, complex(re, im), rtol=1e-14)

    def test_chebyshev_first_mode(self):
        basis = OrthonormalBasis(CHEB, 3)
        out = riesz_apply(unit_expansion(basis, 1), 1)
        assert_allclose(out(0.5), -math.sqrt(2 / math.pi) * math.sin(0.5), rtol=1e-13)


class TestGFunction:
    def test_single_mode_half_identity(self):
        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 6)
        thetas = np.linspace(0.2, 3.0, 20)
        for n in (0, 2, 5):
            got = g_function(unit_expansion(basis, n), 1, 0, thetas)
            ref = np.abs([trig_poly_eval(basis, n, t) for t in thetas]) / 2
            assert_allclose(got, ref, atol=1e-13)

    def test_complex_coefficients_add_the_squares_of_their_parts(self):
        # g(f)^2 integrates |d P_t f|^2, and P_t and the derivatives are real
        basis = OrthonormalBasis(JacobiParams(0.5, 0.5), 3)
        coeffs = np.array([1 + 0.5j, 0.2, 1j, 0.1 + 0.1j])
        thetas = np.linspace(0.2, 3.0, 7)
        for M, N in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            got = g_function(Expansion(basis, coeffs), M, N, thetas)
            re, im = (g_function(Expansion(basis, part), M, N, thetas)
                      for part in (coeffs.real, coeffs.imag))
            assert_allclose(got**2, re**2 + im**2, rtol=1e-13)

    def test_zero_rate_mode_annihilated(self):
        basis = OrthonormalBasis(CHEB, 3)
        got = g_function(unit_expansion(basis, 0), 1, 0, np.array([0.7, 2.0]))
        assert np.max(got) == 0.0

    def test_cross_terms_against_quadrature(self):
        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 4)
        exp = Expansion(basis, np.array([0.0, 1.0, 1.0, 0.0, 0.0]))
        rates = exp.rates()
        theta = 1.234
        got = g_function(exp, 1, 0, theta)[0]

        def integrand(t):
            val = sum(
                exp.coeffs[n] * (-rates[n]) * math.exp(-t * rates[n])
                * trig_poly_eval(basis, n, theta)
                for n in range(5)
            )
            return val * val * t

        ref, _ = integrate.quad(integrand, 0, 60, limit=200)
        assert_allclose(got, math.sqrt(ref), rtol=1e-8)


class TestMultipliers:
    def test_constant_profile_is_identity(self, rng):
        p = JacobiParams(0.5, 0.5)
        basis = OrthonormalBasis(p, 8)
        exp = Expansion(basis, rng.normal(size=9))
        out = multiplier_apply(exp, constant_profile())
        assert np.max(np.abs(out.coeffs - exp.coeffs)) < 1e-10

    def test_stieltjes_atom_is_semigroup(self, rng):
        basis = OrthonormalBasis(JacobiParams(-0.75, 0.5), 6)
        exp = Expansion(basis, rng.normal(size=7))
        out = multiplier_apply(exp, StieltjesAtoms((0.8,), (1.0,)))
        assert_allclose(out.coeffs, semigroup_apply(exp, 0.8).coeffs, rtol=1e-14)

    def test_imaginary_power_single_symbol(self):
        p = JacobiParams(0.5, 0.5)  # shift 2, rate of mode 1 is 2... no: |1+1| = 2
        basis = OrthonormalBasis(p, 2)
        exp = unit_expansion(basis, 1)
        out = multiplier_apply(exp, imaginary_power_profile(0.5))
        a1 = abs(1 + 0.5 * p.lam)
        assert abs(out.coeffs[1] - a1 ** 0.5j) < 1e-12
        assert abs(abs(out.coeffs[1]) - 1.0) < 1e-13

    def test_laplace_symbol_unimodular_bound(self):
        prof = imaginary_power_profile(1.0)
        for z in (0.25, 1.0, 3.5, 10.0):
            assert abs(abs(laplace_symbol(prof, z)) - 1.0) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(gamma=st.floats(-2.0, 2.0), seed=st.integers(0, 10_000))
    def test_parseval_for_unimodular_symbols(self, gamma, seed):
        p = JacobiParams(0.5, -0.25)
        basis = OrthonormalBasis(p, 10)
        coeffs = np.random.default_rng(seed).normal(size=11)
        exp = Expansion(basis, coeffs)
        out = multiplier_apply(exp, imaginary_power_profile(gamma))
        assert abs(np.sum(np.abs(out.coeffs) ** 2) - np.sum(coeffs**2)) < 1e-12 * max(
            np.sum(coeffs**2), 1.0
        )

    def test_zero_rate_mode_dropped_and_flagged(self):
        basis = OrthonormalBasis(CHEB, 4)  # shift 0: bottom rate 0
        exp = Expansion(basis, np.ones(5))
        assert dropped_modes(exp, constant_profile()) == [0]
        out = multiplier_apply(exp, constant_profile())
        assert out.coeffs[0] == 0.0
        assert_allclose(out.coeffs[1:], 1.0, rtol=1e-10)
        # Stieltjes symbols stay finite at rate 0, nothing is dropped
        atoms = StieltjesAtoms((1.0, 2.0), (0.5, 0.25))
        assert dropped_modes(exp, atoms) == []
        out2 = multiplier_apply(exp, atoms)
        assert_allclose(out2.coeffs[0], 0.5 + 0.25, rtol=1e-14)

    def test_stieltjes_kernel_route_duality(self):
        import sys
        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
        from _dualroute import stieltjes_kernel_route

        p = JacobiParams(0.5, -0.75)
        basis = OrthonormalBasis(p, 5)
        exp = Expansion(basis, np.array([0.2, 1.0, -0.5, 0.0, 0.3, 0.0]))
        atoms = StieltjesAtoms((0.6, 1.5), (1.0, -0.5))
        theta = 2.0
        spectral = float(synthesize(multiplier_apply(exp, atoms), theta))
        kernel_route = stieltjes_kernel_route(p, atoms, theta, lambda th: synthesize(exp, th))
        assert_allclose(kernel_route, spectral, rtol=1e-6)


class TestSerialization:
    def test_real_roundtrip(self, rng):
        basis = OrthonormalBasis(JacobiParams(0.5, -0.75), 4)
        exp = Expansion(basis, rng.normal(size=5))
        back = expansion_from_dict(expansion_to_dict(exp))
        assert np.array_equal(back.coeffs, exp.coeffs)
        assert back.params == exp.params

    def test_complex_roundtrip(self):
        basis = OrthonormalBasis(JacobiParams(0.5, -0.75), 2)
        exp = Expansion(basis, np.array([1 + 2j, 0.5j, -1.0 + 0j]))
        back = expansion_from_dict(expansion_to_dict(exp))
        assert np.array_equal(back.coeffs, exp.coeffs)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            expansion_from_dict({"alpha": 0.0, "beta": 0.0})
        with pytest.raises(ValueError):
            expansion_from_dict({"alpha": -2.0, "beta": 0.0, "n_max": 1, "coeffs": [1, 2]})
