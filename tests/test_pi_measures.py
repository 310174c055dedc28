"""Tests for the Pi measure family: density, atomic and profile regimes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jpkernel.kernel import _axis_terms
from jpkernel.pi_measures import abs_profile, pi_cdf, profile_rule

from _oracles import pi_cdf_quad, profile_integral_mp

NODES = 64


def measure_integral(gamma, f):
    """int f against the density or atomic measure of parameter gamma, by
    the integral route's one axis term in those regimes."""
    [(nodes, weights, _)] = _axis_terms(gamma, NODES, 0.5)
    return float(np.sum(weights * f(nodes)))


def profile_integral(alpha, f):
    """int_(-1)^1 f(u) |Pi_alpha(u)| du; the profile rule covers (0, 1)."""
    nodes, weights = profile_rule(alpha, NODES)
    return float(np.sum(weights * (f(nodes) + f(-nodes))))


class TestPiCdf:
    def test_half_case_is_linear(self):
        # prefactor 1/2 and unit integrand
        assert_allclose(pi_cdf(0.5, 0.8), 0.4, rtol=1e-14)

    def test_odd(self):
        assert pi_cdf(0.3, 0.0) == 0.0
        assert_allclose(pi_cdf(-0.7, -0.4), -pi_cdf(-0.7, 0.4), rtol=1e-14)

    def test_negative_regime_against_quadrature(self):
        got = pi_cdf(-0.75, 0.5)
        assert got < 0
        assert_allclose(got, pi_cdf_quad(-0.75, 0.5), rtol=1e-10)
        assert_allclose(got, -0.23495614922230326, rtol=1e-12)

    def test_quadrature_oracle_grid(self):
        for alpha in (-0.9, -0.6, -0.51, 0.25, 1.5):
            for u in (0.2, 0.74, 0.76, 0.95):
                assert_allclose(pi_cdf(alpha, u), pi_cdf_quad(alpha, u), rtol=1e-9)

    def test_pole_at_atomic_point(self):
        with pytest.raises(ValueError):
            pi_cdf(-0.5, 0.3)

    @pytest.mark.parametrize("u", [1.0, -1.0, math.nan], ids=str)
    def test_rejects_argument_outside_open_interval(self, u):
        with pytest.raises(ValueError, match="open interval"):
            pi_cdf(0.3, u)


class TestDensityAndAtoms:
    @pytest.mark.parametrize("alpha", [-0.49, -0.25, 0.0, 0.5, 2.5])
    def test_probability_mass(self, alpha):
        assert_allclose(measure_integral(alpha, lambda u: np.ones_like(u)), 1.0, atol=1e-12)

    def test_atomic_second_moment(self):
        [(nodes, weights, _)] = _axis_terms(-0.5, NODES, 0.5)
        assert nodes.tolist() == [-1.0, 1.0] and weights.tolist() == [0.5, 0.5]
        assert measure_integral(-0.5, lambda u: u * u) == 1.0

    def test_second_moment_closed_form(self):
        # int u^2 dPi_alpha = 1 / (2 alpha + 2)
        assert_allclose(measure_integral(1.25, lambda u: u * u), 1.0 / 4.5, rtol=1e-11)

    def test_weak_limit_toward_atoms(self):
        # as alpha decreases to -1/2, moments approach the atomic values
        for f in (lambda u: np.ones_like(u), lambda u: u**2, lambda u: u**4):
            target = measure_integral(-0.5, f)
            gaps = []
            for alpha in (-0.499, -0.4999, -0.49999):
                gaps.append(abs(measure_integral(alpha, f) - target))
            assert gaps[1] <= gaps[0] + 1e-9 and gaps[2] <= gaps[1] + 1e-9
            assert gaps[2] < 1e-3


class TestProfile:
    def test_total_mass_against_mp(self):
        got = profile_integral(-0.75, lambda u: np.ones_like(u))
        ref = profile_integral_mp(-0.75, lambda u: 1.0)
        assert_allclose(got, ref, rtol=1e-9)

    def test_odd_integrand_vanishes(self):
        # the profile is even, so odd integrands integrate to zero
        got = profile_integral(-0.6, lambda u: u)
        assert abs(got) < 1e-14

    def test_weighted_integrand_against_mp(self):
        got = profile_integral(-0.6, lambda u: 1 - u * u)
        ref = profile_integral_mp(-0.6, lambda u: 1 - u * u)
        assert_allclose(got, ref, rtol=1e-9)

    @pytest.mark.parametrize("alpha", [-0.95, -0.75, -0.6, -0.51])
    def test_comparability_with_power_surrogate(self, alpha):
        # |Pi_alpha(u)| stays within a fixed two-sided band of
        # |u| (1 - |u|)^(alpha + 1/2) away from 0 and +-1
        u = np.linspace(0.02, 0.98, 97)
        ratio = abs_profile(alpha, u) / (u * (1 - u) ** (alpha + 0.5))
        assert np.all(ratio > 0)
        band = ratio.max() / ratio.min()
        assert band < 25.0, f"comparability band {band} at alpha={alpha}"

    def test_surrogate_bounds_weighted_integral(self):
        # integral against the profile lies inside the pointwise
        # comparability band of the surrogate integral
        alpha = -0.6
        u = np.linspace(1e-4, 1 - 1e-6, 4001)
        ratio = abs_profile(alpha, u) / (u * (1 - u) ** (alpha + 0.5))
        lo, hi = ratio.min(), ratio.max()
        surrogate = np.trapezoid(2 * u * (1 - u) ** (alpha + 0.5) * (1 - u * u), u)
        got = profile_integral(alpha, lambda v: 1 - v * v)
        assert lo * surrogate * 0.98 <= got <= hi * surrogate * 1.02

    def test_out_of_regime(self):
        with pytest.raises(ValueError):
            profile_rule(-0.3, NODES)
