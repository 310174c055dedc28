"""Tests for the orthonormal basis, measure and quadrature layer."""

import math
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from jpkernel import basis
from jpkernel.basis import (
    OrthonormalBasis,
    _classical_all,
    _tables,
    mu_ball,
    mu_total,
    theta_quad_rule,
    trig_poly_table,
)
from jpkernel.errors import UnsupportedOrderError
from jpkernel.params import JacobiParams

from _basis_reference import (
    classical_all,
    classical_jacobi_eval,
    norm_constant,
    trig_poly_deriv,
    trig_poly_eval,
)
from _oracles import jacobi_series, mu_interval_quad
from conftest import ACCEPTANCE_SETS


def ball_surrogate(params, theta, phi):
    """|theta-phi| (theta+phi)^(2a+1) (2 pi - theta - phi)^(2b+1), the
    comparability surrogate for mu(B(theta, |theta-phi|))."""
    return (
        abs(theta - phi)
        * (theta + phi) ** (2.0 * params.alpha + 1.0)
        * (2.0 * math.pi - theta - phi) ** (2.0 * params.beta + 1.0)
    )


class TestClassicalEval:
    def test_degree_zero_is_one(self):
        p = JacobiParams(0.7, -0.3)
        assert classical_jacobi_eval(p, 0, 0.42) == 1.0

    def test_legendre_degree_one(self):
        assert classical_jacobi_eval(JacobiParams(0, 0), 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_series_oracle(self):
        # brute-force hypergeometric sum, frozen value 0.19776921512603915
        p = JacobiParams(0.5, -0.75)
        got = classical_jacobi_eval(p, 5, 0.3)
        assert_allclose(got, jacobi_series(5, 0.5, -0.75, 0.3), rtol=1e-12)
        assert_allclose(got, 0.19776921512603915, rtol=1e-12)

    def test_series_oracle_grid(self):
        p = JacobiParams(-0.6, 1.3)
        for n in range(8):
            for x in np.linspace(-1, 1, 7):
                assert_allclose(
                    classical_jacobi_eval(p, n, x), jacobi_series(n, -0.6, 1.3, x),
                    rtol=1e-11, atol=1e-13,
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            classical_jacobi_eval(JacobiParams(0, 0), 2, 1.5)
        with pytest.raises(ValueError):
            classical_jacobi_eval(JacobiParams(0, 0), -1, 0.5)

    def test_table_is_bitwise_the_reference_loop(self):
        # The cached coefficients and the Python-float pass over each x must
        # round exactly as the per-degree loop, at every prefix of the cache;
        # 14,000 is about the largest n_cut the series route reaches in use.
        # The loop is elementwise, so each column of its table is its table at
        # that single x.
        basis._holder.cache_clear()
        n_top = 14_000
        xs = np.append(np.cos(np.linspace(0.0, math.pi, 5)), 0.3)
        for alpha, beta in ACCEPTANCE_SETS + [(-0.5, -0.5)]:
            for shift in range(4):
                a, b = alpha + shift, beta + shift
                ref = classical_all(a, b, n_top, xs)
                for n_max in (1, 2, 3, 40, n_top, 7, 0):
                    assert np.array_equal(_classical_all(a, b, n_max, xs), ref[: n_max + 1])
                    for j, x in enumerate(xs):
                        got = _classical_all(a, b, n_max, x)
                        assert np.array_equal(got, ref[: n_max + 1, j]), (a, b, x, n_max)
                grid = xs.reshape(2, 3)
                got = _classical_all(a, b, 40, grid)
                assert np.array_equal(got, ref[:41].reshape(41, 2, 3))

    def test_norm_cache_is_norm_constant_bitwise(self):
        # Growing the cache (n, then 2n, then n again) keeps every earlier entry.
        basis._holder.cache_clear()
        for alpha, beta in [(0.5, 0.5), (-0.75, -0.75), (-0.5, -0.5), (2.0, -0.25)]:
            ref = np.array([norm_constant(alpha, beta, n) for n in range(601)])
            first = _tables(alpha, beta, 300)[1].copy()
            grown = _tables(alpha, beta, 600)[1]
            again = _tables(alpha, beta, 300)[1]
            assert np.array_equal(first, ref[:301])
            assert np.array_equal(grown, ref)
            assert np.array_equal(again, first)

    def test_norm_fill_is_norm_constant_bitwise_over_a_sweep(self):
        # The array fill against the scalar formula over 27 (alpha, beta),
        # among them alpha + beta + 1 = 0 and both sides of -1/2, at the
        # degrees 0..20,000 the series route can reach.
        for alpha in (-0.99, -0.75, -0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 10.0):
            for beta in (-0.75, -0.5, 0.5):
                ref = [norm_constant(alpha, beta, n) for n in range(20_001)]
                assert basis._norm_constants(alpha, beta, 0, 20_000) == ref, (alpha, beta)
                assert basis._norm_constants(alpha, beta, 301, 600) == ref[301:601]

    def test_cache_is_bounded(self):
        # A sweep over many (alpha, beta) keeps at most _CACHED_PAIRS entries,
        # and an evicted pair is rebuilt with the same bits.
        basis._holder.cache_clear()
        first = trig_poly_table(JacobiParams(0.0, 0.5), 50, 1.0)
        for k in range(3 * basis._CACHED_PAIRS):
            trig_poly_table(JacobiParams(0.01 * k, 0.5), 50, 1.0, order=2)
        assert basis._holder.cache_info().currsize == basis._CACHED_PAIRS
        assert np.array_equal(trig_poly_table(JacobiParams(0.0, 0.5), 50, 1.0), first)


def test_tables_agree_under_threads():
    # The scans build tables from worker threads while the prefix caches grow;
    # a thread must never see a torn or shortened entry.
    p = JacobiParams(0.5, -0.75)
    sizes = [50, 3000, 200, 1500, 2999, 7]
    thetas = [1.1, np.array([0.2, 2.5])]
    want = {(n, j): trig_poly_table(p, n, th, order=1) for n in sizes for j, th in enumerate(thetas)}
    basis._holder.cache_clear()
    mismatches = []

    def work(k):
        for n in sizes[k % len(sizes):] + sizes[: k % len(sizes)]:
            for j, th in enumerate(thetas):
                if not np.array_equal(trig_poly_table(p, n, th, order=1), want[(n, j)]):
                    mismatches.append((k, n, j))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)
    assert mismatches == []


class TestTrigPolynomials:
    def test_constant_mode(self):
        basis = OrthonormalBasis(JacobiParams(-0.5, -0.5), 4)
        assert_allclose(trig_poly_eval(basis, 0, 1.234), 1 / math.sqrt(math.pi), rtol=1e-14)

    def test_cosine_reduction(self):
        basis = OrthonormalBasis(JacobiParams(-0.5, -0.5), 4)
        theta = math.pi / 5
        assert_allclose(
            trig_poly_eval(basis, 3, theta),
            math.sqrt(2 / math.pi) * math.cos(3 * theta),
            rtol=1e-13,
        )

    def test_unit_norm(self, acceptance_params):
        basis = OrthonormalBasis(acceptance_params, 8)
        rule = theta_quad_rule(acceptance_params, 64)
        for n in (0, 3, 8):
            val = np.sum(rule.weights * trig_poly_eval(basis, n, rule.nodes) ** 2)
            assert_allclose(val, 1.0, rtol=1e-11)

    def test_index_error(self):
        basis = OrthonormalBasis(JacobiParams(0, 0), 3)
        with pytest.raises(IndexError):
            trig_poly_eval(basis, 4, 0.5)


class TestDerivatives:
    def test_constant_derivative_zero(self):
        basis = OrthonormalBasis(JacobiParams(0.3, 0.1), 4)
        assert trig_poly_deriv(basis, 0, 1.0, 1) == 0.0

    def test_cosine_derivative(self):
        basis = OrthonormalBasis(JacobiParams(-0.5, -0.5), 4)
        got = trig_poly_deriv(basis, 2, math.pi / 3, 1)
        assert_allclose(got, -2 * math.sqrt(2 / math.pi) * math.sin(2 * math.pi / 3), rtol=1e-13)

    def test_finite_difference(self, rng):
        basis = OrthonormalBasis(JacobiParams(0.5, -0.75), 10)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(0, 11))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            fd = (trig_poly_eval(basis, n, theta + h) - trig_poly_eval(basis, n, theta - h)) / (2 * h)
            an = trig_poly_deriv(basis, n, theta, 1)
            if abs(an) > 1e-8:
                assert_allclose(an, fd, rtol=1e-6)

    def test_higher_orders_by_stepdown(self):
        basis = OrthonormalBasis(JacobiParams(0.2, 1.1), 6)
        h = 1e-6
        for order in (2, 3, 4):
            fd = (
                trig_poly_deriv(basis, 4, 1.1 + h, order - 1)
                - trig_poly_deriv(basis, 4, 1.1 - h, order - 1)
            ) / (2 * h)
            assert_allclose(trig_poly_deriv(basis, 4, 1.1, order), fd, rtol=1e-6)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            trig_poly_table(JacobiParams(0, 0), 4, 1.0, order=5)

    def test_table_matches_scalar(self):
        p = JacobiParams(1.2, -0.4)
        basis = OrthonormalBasis(p, 9)
        thetas = np.array([0.4, 2.2])
        for order in range(4):
            table = trig_poly_table(p, 9, thetas, order=order)
            for n in (0, 1, 5, 9):
                for j, th in enumerate(thetas):
                    assert_allclose(table[n, j], trig_poly_deriv(basis, n, th, order),
                                    rtol=1e-11, atol=1e-13)


class TestMeasure:
    def test_cab_normalization_identity(self, acceptance_params):
        # c_ab * 2^(alpha+beta+1) * mu_total = 1, checked through quadrature
        p = acceptance_params
        rule = theta_quad_rule(p, 48)
        total = rule.weights.sum()
        assert_allclose(p.c_ab * 2.0 ** (p.alpha + p.beta + 1.0) * total, 1.0, rtol=1e-12)

    def test_total_closed_forms(self):
        assert_allclose(mu_total(JacobiParams(-0.5, -0.5)), math.pi, rtol=1e-13)
        assert_allclose(mu_total(JacobiParams(0, 0)), 1.0, rtol=1e-13)

    def test_total_gamma_ratio(self, acceptance_params):
        p = acceptance_params
        quad = mu_interval_quad(p.alpha, p.beta, 0, math.pi)
        assert_allclose(mu_total(p), quad, rtol=1e-8)

    def test_ball_trivial(self):
        p = JacobiParams(0.3, -0.2)
        assert mu_ball(p, 1.0, 0.0) == 0.0
        assert_allclose(mu_ball(p, math.pi / 2, math.pi), mu_total(p), rtol=1e-13)

    @pytest.mark.parametrize("theta, r, match", [
        (math.nan, 0.1, "theta must not be nan"),
        (1.0, math.nan, "radius must be nonnegative, got nan"),
        (1.0, -0.1, "radius must be nonnegative, got -0.1")])
    def test_ball_refuses_nan_and_negative_radii(self, theta, r, match):
        # A nan theta or radius used to give nan.
        with pytest.raises(ValueError, match=match):
            mu_ball(JacobiParams(0.3, -0.2), theta, r)

    def test_ball_of_infinite_radius_is_the_total(self):
        p = JacobiParams(0.3, -0.2)
        assert_allclose(mu_ball(p, 1.0, math.inf), mu_total(p), rtol=1e-13)

    def test_ball_closed_form(self):
        got = mu_ball(JacobiParams(0, 0), math.pi / 2, 0.1)
        assert_allclose(got, math.sin(0.1), rtol=1e-12)

    def test_ball_vs_adaptive_quadrature(self):
        p = JacobiParams(-0.75, 0.6)
        for theta, r in [(0.5, 0.3), (3.0, 0.4), (0.05, 0.2)]:
            assert_allclose(
                mu_ball(p, theta, r),
                mu_interval_quad(p.alpha, p.beta, theta - r, theta + r),
                rtol=1e-8,
            )

    def test_ball_comparability_surrogate(self, acceptance_params):
        # the ball measure and its product surrogate stay within a fixed
        # two-sided ratio band over the square
        p = acceptance_params
        grid = np.linspace(0.05, math.pi - 0.05, 50)
        ratios = []
        for theta in grid:
            for phi in grid:
                if theta == phi:
                    continue
                ratios.append(
                    mu_ball(p, theta, abs(theta - phi)) / ball_surrogate(p, theta, phi)
                )
        ratios = np.array(ratios)
        assert np.all(ratios > 0) and np.all(np.isfinite(ratios))
        band = ratios.max() / ratios.min()
        # the constants are not pinned by the theory; record the band and
        # require only that it is uniform over the grid
        assert band < 1e4, f"empirical comparability band {band}"


class TestQuadRule:
    def test_chebyshev_weight_sum(self):
        rule = theta_quad_rule(JacobiParams(-0.5, -0.5), 8)
        assert_allclose(rule.weights.sum(), math.pi, rtol=1e-13)

    def test_constant_exactness(self, acceptance_params):
        rule = theta_quad_rule(acceptance_params, 24)
        assert_allclose(rule.weights.sum(), mu_total(acceptance_params), rtol=1e-12)

    def test_cos_squared_against_adaptive(self):
        p = JacobiParams(0.5, 0.5)
        rule = theta_quad_rule(p, 16)
        got = rule.weights @ np.cos(rule.nodes) ** 2
        ref, _ = integrate.quad(
            lambda th: math.cos(th) ** 2 * math.sin(th / 2) ** 2 * math.cos(th / 2) ** 2,
            0, math.pi,
        )
        assert_allclose(got, ref, rtol=1e-12)

    def test_orthonormality_gram(self):
        p = JacobiParams(-0.75, 0.5)
        basis = OrthonormalBasis(p, 30)
        rule = theta_quad_rule(p, 64)
        table = trig_poly_table(p, 30, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-9

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            theta_quad_rule(JacobiParams(0, 0), 0)
