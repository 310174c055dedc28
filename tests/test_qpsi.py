"""Tests for the kernel integrand q/Psi and its exact derivatives."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jpkernel.params import JacobiParams
from jpkernel.qpsi import _dcos_half, _dsin_half, _q_partial, psi_evaluator, q_value


class TestQ:
    def test_vanishes_on_diagonal_corner(self):
        assert abs(q_value(1.3, 1.3, 1.0, 1.0)) < 1e-14

    def test_antipodal_is_one(self):
        assert q_value(0.0, math.pi, 0.7, -0.4) == 1.0

    def test_midpoint(self):
        assert q_value(math.pi / 2, math.pi / 2, 0.0, 0.0) == 1.0

    def test_mixed_uv_derivative_vanishes(self):
        assert _q_partial(1.0, 2.0, 0.3, 0.4, 1, 1, 0, 0) == 0.0

    def test_odd_angle_derivative_is_exact_zero_at_zero(self):
        # d/dtheta cos(theta/2) = -sin(theta/2)/2 is exactly 0 at theta = 0
        assert _q_partial(0.0, 1.3, 0.4, -0.2, 0, 1, 1, 0) == 0.0
        assert _q_partial(1.3, 0.0, 0.4, -0.2, 0, 1, 0, 3) == 0.0

    def test_trig_derivatives_match_phase_shift_form(self):
        x = np.linspace(0.0, math.pi, 181)
        for k in range(5):
            assert_allclose(_dsin_half(x, k), 0.5**k * np.sin(0.5 * x + 0.5 * k * math.pi),
                            rtol=0, atol=1e-15)
            assert_allclose(_dcos_half(x, k), 0.5**k * np.cos(0.5 * x + 0.5 * k * math.pi),
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
