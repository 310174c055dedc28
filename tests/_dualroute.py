"""Kernel-route operator application, for duality checks against the
spectral route.

The inner phi-integral is performed per t (the kernels are smooth there),
then the t-integral is assembled: [t0, 1] by log-paneled Gauss on
integral-route kernel values, [1, inf) by per-mode incomplete-Gamma
closure of the series-route representation, and (0, t0) by a two-parameter
exponential fit c exp(-r t) to the phi-integrated data just above t0 (the
phi-rule cannot resolve the kernel's diagonal concentration below t0, and
no spectral identity is assumed by the fit).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from jpkernel.basis import theta_quad_rule, trig_poly_table
from jpkernel.kernel import h_script_integral
from jpkernel.params import JacobiParams

T0 = 0.05
N_PHI = 256
N_MODES = 64


def _log_panel_rule(t_lo, t_hi, panels=6, n=10):
    x, w = sp.roots_legendre(n)
    edges = np.linspace(math.log(t_lo), math.log(t_hi), panels + 1)
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        s = lo + h * (x + 1.0)
        ts.append(np.exp(s))
        ws.append(h * w * np.exp(s))
    return np.concatenate(ts), np.concatenate(ws)


class RieszKernelRoute:
    """<R_N(theta, .), f>_dmu from kernel values; caches the heavy
    (theta, N)-dependent tables so several f reuse them."""

    def __init__(self, params: JacobiParams, N: int, theta: float):
        self.params = params
        self.N = N
        self.theta = theta
        self.rule = theta_quad_rule(params, N_PHI)
        self.t_mid, self.w_mid = _log_panel_rule(T0, 1.0, panels=5, n=8)
        self.t_probe = T0 * np.array([1.0, 1.2, 1.45, 1.74, 2.2])

        # kernel derivative values on the (t, phi) grid, integral route
        t_all = np.concatenate([self.t_probe, self.t_mid])

        def column(phi):
            return h_script_integral(
                params, t_all, theta, float(phi), deriv=(0, N, 0),
                rtol=1e-6, base_nodes=16, max_doublings=0,
            )

        vals = np.stack([column(phi) for phi in self.rule.nodes], axis=1)
        self.v_probe = vals[: self.t_probe.size]
        self.v_mid = vals[self.t_probe.size:]

        # t >= 1 closed per mode from the series representation
        a = np.abs(np.arange(N_MODES + 1, dtype=float) + 0.5 * params.lam)
        t_theta = trig_poly_table(params, N_MODES, np.float64(theta), order=N)
        t_phi = trig_poly_table(params, N_MODES, self.rule.nodes)
        nz = a > 0
        closure = np.zeros_like(a)
        closure[nz] = sp.gammaincc(N, a[nz]) * math.gamma(N) / a[nz] ** N
        self.tail_kernel = (t_theta * closure) @ t_phi  # values at phi nodes

    def apply(self, f_at_nodes) -> float:
        w = self.rule.weights * f_at_nodes
        f_probe = self.v_probe @ w
        f_mid = self.v_mid @ w
        mid = float(np.sum(self.w_mid * f_mid * self.t_mid ** (self.N - 1)))
        tail = float(np.sum(w * self.tail_kernel))

        # exponential extrapolation of the phi-integrated data into (0, t0)
        sign = math.copysign(1.0, f_probe[0])
        y = np.log(np.abs(f_probe))
        slope, intercept = np.polyfit(self.t_probe, y, 1)
        r = max(-slope, 1e-12)
        c = math.exp(intercept)
        head = sign * c * sp.gammainc(self.N, r * T0) / r**self.N * math.gamma(self.N)

        return (mid + head) / math.gamma(self.N) + tail


def semigroup_kernel_route(params: JacobiParams, t: float, theta: float, f, n_phi=320):
    """(semigroup f)(theta) by phi-quadrature of kernel values."""
    from jpkernel.kernel import kernel_H_batch

    rule = theta_quad_rule(params, n_phi)
    h = np.array([
        float(kernel_H_batch(params, np.array([t]), theta, float(phi))[0])
        for phi in rule.nodes
    ])
    return float(np.sum(rule.weights * h * f(rule.nodes)))


def stieltjes_kernel_route(params: JacobiParams, atoms, theta: float, f, n_phi=320):
    """(Stieltjes multiplier f)(theta) by phi-quadrature of kernel values."""
    from jpkernel.kernel import kernel_H_batch

    rule = theta_quad_rule(params, n_phi)
    total = 0.0
    fvals = f(rule.nodes)
    for t_j, w_j in zip(atoms.times, atoms.weights):
        h = np.array([
            float(kernel_H_batch(params, np.array([t_j]), theta, float(phi))[0])
            for phi in rule.nodes
        ])
        total += w_j * np.sum(rule.weights * h * fvals)
    return float(total)
