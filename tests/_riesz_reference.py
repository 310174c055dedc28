"""The t-quadrature of the order-1 Riesz kernel, kept to pin its closed t-integral.

This is the form `czkernels.RieszKernel._value` had for N = 1 before the
t-integral was taken exactly: the preset's log-paneled Gauss rule on
[t_lo, 1] over integral-route values of d_theta H_t, the (0, t_lo) piece
dropped, and [1, inf) closed by per-mode upper incomplete-Gamma integrals of
the 64-mode spectral series.  The tests require the exact t-integral to agree
with it at the 'accurate' preset.
"""

from __future__ import annotations

import numpy as np

from jpkernel import specfun
from jpkernel.czkernels import TAIL_N_CUT, RieszKernel, _coef


def riesz1_value(kernel: RieszKernel, theta, phi, dth=0, dph=0):
    """d_theta^dth d_phi^dph of R_1(theta, phi) = int_0^inf d_theta H_t dt by
    t-quadrature, at kernel's preset (kernel.N must be 1)."""
    assert kernel.N == 1
    p = kernel.params
    ts, ws = kernel._t_rule()
    small = float(np.sum(ws * kernel._H(ts, theta, phi, 0, 1 + dth, dph)))
    a = p.rates(TAIL_N_CUT)
    coef = _coef(p, theta, 1 + dth) * _coef(p, phi, dph)
    nz = a > 0
    tail = float(np.sum(coef[nz] * specfun.gammaincc_times_gamma(1, a[nz]) / a[nz]))
    return small + tail
