"""Tests for the kernel integrand q/Psi and its exact derivatives."""

import itertools
import math
import os
import sys

import numpy as np
import pytest
from _psi_reference import PsiEvaluator as PsiReference
from conftest import ACCEPTANCE_SETS
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from jpkernel._parallel import parallel_map
from jpkernel.params import JacobiParams
from jpkernel.qpsi import _dsin_half, _plan, _q_partial, psi_evaluator, q_value

# Every multi-index the integral route asks for: K, R, L <= 1 and N + M <= 3.
SUPPORTED_ORDERS = [(K, R, L, N, M) for K, R, L in itertools.product([0, 1], repeat=3)
                    for N in range(4) for M in range(4 - N)]


def _trig(theta, phi):
    return ((np.sin(0.5 * theta), np.cos(0.5 * theta)), (np.sin(0.5 * phi), np.cos(0.5 * phi)))


class TestQ:
    def test_vanishes_on_diagonal_corner(self):
        assert abs(q_value(1.3, 1.3, 1.0, 1.0)) < 1e-14

    def test_antipodal_is_one(self):
        assert q_value(0.0, math.pi, 0.7, -0.4) == 1.0

    def test_midpoint(self):
        assert q_value(math.pi / 2, math.pi / 2, 0.0, 0.0) == 1.0

    def test_mixed_uv_derivative_vanishes(self):
        # q is bilinear in (u, v), so the plans never hold a block in both
        u, v, h = 0.3, 0.4, 0.25
        assert abs(q_value(1.0, 2.0, u + h, v + h) - q_value(1.0, 2.0, u + h, v)
                   - q_value(1.0, 2.0, u, v + h) + q_value(1.0, 2.0, u, v)) < 1e-15
        for K, R, L, N, M in SUPPORTED_ORDERS:
            for _, groups in _plan(M, N, L, K, R):
                for _, terms in groups:
                    for _, uv, angle in terms:
                        assert all(du + dv == 1 for _, _, du, dv in uv)
                        assert all(du + dv == 0 for _, _, du, dv in angle)

    def test_odd_angle_derivative_is_exact_zero_at_zero(self):
        # d/dtheta cos(theta/2) = -sin(theta/2)/2 is exactly 0 at theta = 0
        assert _q_partial(_trig(0.0, 1.3), 0.4, -0.2, 1, 0, 0, 1) == 0.0
        assert _q_partial(_trig(1.3, 0.0), 0.4, -0.2, 0, 3, 0, 1) == 0.0

    def test_trig_derivatives_match_phase_shift_form(self):
        x = np.linspace(0.0, math.pi, 181)
        s, c = np.sin(0.5 * x), np.cos(0.5 * x)
        for k in range(5):
            assert_allclose(_dsin_half(s, c, k), 0.5**k * np.sin(0.5 * x + 0.5 * k * math.pi),
                            rtol=0, atol=1e-15)
            assert_allclose(2.0 * _dsin_half(s, c, k + 1), 0.5**k * np.cos(0.5 * x + 0.5 * k * math.pi),
                            rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(0, math.pi),
        phi=st.floats(0, math.pi),
        u=st.floats(-1, 1),
        v=st.floats(-1, 1),
    )
    def test_range_invariants(self, theta, phi, u, v):
        q = q_value(theta, phi, u, v)
        assert -1e-12 <= q <= 2 + 1e-12
        assert q >= 2 * math.sin((theta - phi) / 4) ** 2 - 1e-12

    def test_theta_derivative_sqrt_bound(self):
        # |d_theta q| <= C sqrt(q) with a modest empirical constant
        grid = np.linspace(0, math.pi, 40)
        u = np.linspace(-1, 1, 40)
        worst = 0.0
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
            th = grid[:, None, None]
            ph = grid[None, :, None]
            uu = u[None, None, :]
            q = q_value(th, ph, uu, v)
            dq = -0.5 * uu * np.cos(th / 2) * np.sin(ph / 2) + 0.5 * v * np.sin(th / 2) * np.cos(
                ph / 2
            )
            mask = q > 1e-14
            worst = max(worst, float(np.max(np.abs(dq[mask]) / np.sqrt(q[mask]))))
        assert worst < 2.0, f"empirical constant {worst}"


class TestPsi:
    def test_direct_substitution(self):
        p = JacobiParams(-0.5, -0.5)
        val = psi_evaluator(p)(1.0, 0.0, 0.0, 1.0, 0.3)
        # q = 0.7, prefactor 1/pi, exponent 1
        ref = (1 / math.pi) * math.sinh(0.5) / (math.cosh(0.5) - 0.3)
        assert_allclose(val, ref, rtol=1e-14)

    def test_du_vanishes_at_theta_zero(self):
        p = JacobiParams(0.5, 0.0)
        assert psi_evaluator(p)(0.5, 0.0, 1.3, 0.2, 0.1, K=1) == 0.0

    def test_t_derivative_finite_difference(self):
        p = JacobiParams(0.5, 0.0)
        ev = psi_evaluator(p)
        args = (1.0, 2.0, 0.3, -0.2)
        h = 1e-6
        fd = (ev(0.4 + h, *args) - ev(0.4 - h, *args)) / (2 * h)
        an = ev(0.4, *args, M=1)
        assert_allclose(an, fd, rtol=1e-6)

    def test_all_supported_multi_indices_against_fd(self):
        p = JacobiParams(0.5, -0.25)
        ev = psi_evaluator(p)
        base = dict(t=0.4, th=1.0, ph=2.0, u=0.3, v=-0.2)
        h = 1e-5

        def val(K, R, L, N, M, **over):
            z = {**base, **over}
            return ev(z["t"], z["th"], z["ph"], z["u"], z["v"], K=K, R=R, L=L, N=N, M=M)

        for K, R, L in itertools.product([0, 1], repeat=3):
            for N in range(0, 4):
                for M in range(0, 4 - N):
                    if M > 0:
                        fd = (val(K, R, L, N, M - 1, t=base["t"] + h)
                              - val(K, R, L, N, M - 1, t=base["t"] - h)) / (2 * h)
                        an = val(K, R, L, N, M)
                        if abs(an) > 1e-9:
                            assert_allclose(an, fd, rtol=2e-6)
                    if N > 0:
                        fd = (val(K, R, L, N - 1, M, th=base["th"] + h)
                              - val(K, R, L, N - 1, M, th=base["th"] - h)) / (2 * h)
                        an = val(K, R, L, N, M)
                        if abs(an) > 1e-9:
                            assert_allclose(an, fd, rtol=2e-6)

    def test_broadcasting_shapes(self):
        p = JacobiParams(0.5, 0.0)
        ev = psi_evaluator(p)
        t = np.linspace(0.1, 1, 7).reshape(-1, 1, 1)
        u = np.linspace(-1, 1, 5).reshape(1, -1, 1)
        v = np.linspace(-1, 1, 3).reshape(1, 1, -1)
        out = ev(t, 1.0, 2.0, u, v, K=1, L=1, N=1, M=1)
        assert out.shape == (7, 5, 3)


class TestEngineAgainstReference:
    """The grouped engine against the per-partition evaluator it replaced
    (tests/_psi_reference.py), over every supported multi-index: within
    roundoff, exact zeros where it has them, and == at L = N = M = 0."""

    T = np.geomspace(1e-6, 2.0, 9).reshape(1, -1, 1, 1)
    U = np.linspace(-1.0, 1.0, 9).reshape(1, 1, -1, 1)
    V = np.linspace(-1.0, 1.0, 7).reshape(1, 1, 1, -1)
    ANGLES = (0.0, 0.4, 1.3, math.pi)

    def _both(self, p, theta, phi, orders):
        theta = np.asarray(theta, dtype=float).reshape(-1, 1, 1, 1)
        phi = np.asarray(phi, dtype=float).reshape(-1, 1, 1, 1)
        K, R, L, N, M = orders
        kw = dict(K=K, R=R, L=L, N=N, M=M)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (psi_evaluator(p)(self.T, theta, phi, self.U, self.V, **kw),
                    PsiReference(p)(self.T, theta, phi, self.U, self.V, **kw))

    @pytest.mark.parametrize("ab", ACCEPTANCE_SETS + [(-0.5, -0.5)],
                             ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
    def test_off_diagonal_within_roundoff(self, ab):
        pairs = [(th, ph) for th in self.ANGLES for ph in self.ANGLES if th != ph]
        theta, phi = zip(*pairs)
        for orders in SUPPORTED_ORDERS:
            new, ref = self._both(JacobiParams(*ab), theta, phi, orders)
            assert new.shape == ref.shape
            scale = np.max(np.abs(ref), axis=(1, 2, 3))
            err = np.max(np.abs(new - ref), axis=(1, 2, 3))
            assert np.all(err <= 1e-13 * scale), (orders, err / np.where(scale, scale, 1.0))
            assert np.all(new[ref == 0.0] == 0.0), orders
            if not any(orders[2:]):  # the integral route's orders at deriv (0, 0, 0)
                assert np.array_equal(new, ref)

    @pytest.mark.parametrize("ab", ACCEPTANCE_SETS + [(-0.5, -0.5)],
                             ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
    def test_diagonal_exact_zeros_and_order_zero(self, ab):
        # On the diagonal at u or v = +-1, q = 0 and D = cosh(t/2) - 1: the
        # Faa di Bruno terms, each of size D^(-sigma-k), cancel to a value
        # many orders of magnitude below them (for sigma = 1/2, Psi is smooth
        # there), so both evaluators carry that cancellation's roundoff and
        # no order of summation agrees to 1e-13.  What stays exact is checked.
        for orders in SUPPORTED_ORDERS:
            new, ref = self._both(JacobiParams(*ab), self.ANGLES, self.ANGLES, orders)
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(new), finite), orders
            assert np.all(new[ref == 0.0] == 0.0), orders
            if not any(orders[2:]):  # the integral route's orders at deriv (0, 0, 0)
                assert np.array_equal(new, ref)

    def test_scalar_input_gives_a_scalar(self):
        p = JacobiParams(2.0, -0.25)
        for K, R, L, N, M in SUPPORTED_ORDERS:
            new = psi_evaluator(p)(0.3, 0.0, 2.2, 0.2, -1.0, K=K, R=R, L=L, N=N, M=M)
            ref = PsiReference(p)(0.3, 0.0, 2.2, 0.2, -1.0, K=K, R=R, L=L, N=N, M=M)
            assert np.ndim(new) == 0 and type(new) is type(ref)
            assert abs(new - ref) <= 1e-13 * abs(ref) or new == ref == 0.0

    def test_shared_evaluator_across_threads_is_bitwise_serial(self, monkeypatch):
        # more workers than cores, switching often, over one shared instance
        psi = psi_evaluator(JacobiParams(-0.75, 0.5))
        t = np.geomspace(0.01, 1.0, 6).reshape(-1, 1, 1)
        u = np.linspace(-0.99, 0.99, 40).reshape(1, -1, 1)
        v = np.linspace(-0.99, 0.99, 40).reshape(1, 1, -1)
        items = [(orders, th) for orders in SUPPORTED_ORDERS for th in (0.0, 0.7, 2.9)]

        def one(item):
            (K, R, L, N, M), th = item
            return psi(t, th, 1.6, u, v, K=K, R=R, L=L, N=N, M=M)

        monkeypatch.setenv("JPK_THREADS", "1")
        serial = parallel_map(one, items)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("JPK_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = parallel_map(one, items)
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(serial)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_out_and_work_buffers_give_the_same_bits(self):
        # Slices of larger buffers, as the integral route's blocks pass them.
        psi = psi_evaluator(JacobiParams(-0.75, 0.5))
        t = np.geomspace(0.01, 1.0, 3).reshape(-1, 1, 1)
        u = np.linspace(-0.99, 0.99, 7).reshape(1, -1, 1)
        v = np.linspace(-0.99, 0.99, 5).reshape(1, 1, -1)
        out, work = np.full((2, 4, 9, 5), np.nan)
        for K, R, L, N, M in SUPPORTED_ORDERS:
            ref = psi(t, 0.7, 1.6, u, v, K=K, R=R, L=L, N=N, M=M)
            got = psi(t, 0.7, 1.6, u, v, K=K, R=R, L=L, N=N, M=M,
                      out=out[:3, 1:8], work=work[:3, 1:8])
            assert np.shares_memory(got, out) and got.shape == ref.shape
            assert np.array_equal(got, ref), (K, R, L, N, M)


class TestTIntegral:
    """PsiEvaluator.t_integral against adaptive quadrature of the evaluator in t."""

    @pytest.mark.parametrize("ab", [(0.5, 0.5), (-0.75, 0.5), (-0.5, -0.5), (-0.75, -0.25),
                                    (2.0, -0.25)], ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
    @pytest.mark.parametrize("u, v, K, R, N, L", [
        (0.3, -0.2, 0, 0, 1, 0),
        (0.9, 0.8, 1, 0, 1, 0),      # the profile axis's K = 1 term
        (-0.4, 0.95, 0, 1, 2, 0),
        (0.5, 0.5, 0, 0, 1, 1),
        (0.99, 0.99, 1, 0, 2, 1),
    ])
    def test_matches_quad_of_psi(self, ab, u, v, K, R, N, L):
        # sigma = 1 at (-1/2, -1/2) and (-3/4, -1/4); the integrand decays like
        # exp(-sigma t / 2), and cosh overflows past t = 1420
        psi = psi_evaluator(JacobiParams(*ab))
        theta, phi = 1.0, 1.7
        got = psi.t_integral(theta, phi, u, v, K=K, R=R, L=L, N=N)
        ref, _ = integrate.quad(lambda t: psi(t, theta, phi, u, v, K=K, R=R, L=L, N=N),
                                0.0, 1200.0, epsabs=0.0, epsrel=1e-13, limit=1000,
                                points=[0.01, 0.1, 1.0, 10.0, 100.0])
        assert_allclose(got, ref, rtol=1e-13)

    def test_broadcasts_and_refuses_order_zero(self):
        psi = psi_evaluator(JacobiParams(0.5, 0.0))
        u = np.linspace(-0.9, 0.9, 5).reshape(-1, 1)
        v = np.linspace(-0.9, 0.9, 3).reshape(1, -1)
        out = psi.t_integral(1.0, 2.0, u, v, K=1, N=1)
        assert out.shape == (5, 3)
        assert out[2, 1] == psi.t_integral(1.0, 2.0, 0.0, 0.0, K=1, N=1)
        with pytest.raises(ValueError, match="nonzero derivative order"):
            psi.t_integral(1.0, 2.0, 0.3, 0.2)

    def test_out_and_work_buffers_give_the_same_bits(self):
        # Slices of larger buffers, as the integral route's u slices pass them.
        psi = psi_evaluator(JacobiParams(-0.75, 0.5))
        u = np.linspace(-0.99, 0.99, 7).reshape(1, -1, 1)
        v = np.linspace(-0.99, 0.99, 5).reshape(1, 1, -1)
        out, work = np.full((2, 2, 9, 5), np.nan)
        for K, R, L, N, M in SUPPORTED_ORDERS:
            if M or not (K or R or L or N):
                continue
            ref = psi.t_integral(1.0, 1.7, u, v, K=K, R=R, L=L, N=N)
            got = psi.t_integral(1.0, 1.7, u, v, K=K, R=R, L=L, N=N,
                                 out=out[:1, 1:8], work=work[:1, 1:8])
            assert np.shares_memory(got, out) and got.shape == ref.shape
            assert np.array_equal(got, ref), (K, R, L, N)
