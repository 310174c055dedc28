"""Full-tensor contraction of the integral route, kept to pin the blocked one.

This is the straightforward form of `kernel._integral_sum`: per log-band of
the t batch and per quadrature term, the integrand on the whole (t, u, v)
tensor, weighted by the outer product of the two axes' weights and summed
over each t row.  The integrand is psi (`psi_integrand`) or its t-integral
(`t_integral_integrand`, on a one-row batch at t = 0).  It allocates one
tensor of the band's full size per term, which is what the blocked route
avoids; the tests require the blocked route to return exactly (==) its
values and masses.
"""

from __future__ import annotations

import numpy as np

from jpkernel.kernel import _integral_terms
from jpkernel.qpsi import psi_evaluator


def contract(vals, u_w, v_w, with_mass=True):
    """(sum_ij u_w[i] v_w[j] vals[t, i, j], sum_ij |u_w[i] v_w[j] vals[t, i, j]|)
    for each t, weighting vals (a fresh evaluator output) in place; the
    second sum is None unless with_mass."""
    vals *= np.outer(u_w, v_w)
    rows = vals.reshape(len(vals), -1)
    total = rows.sum(axis=1)
    return total, np.abs(rows, out=rows).sum(axis=1) if with_mass else None


def psi_integrand(params, theta, phi, M, N, L):
    """The integrand evaluator of `kernel.h_script_integral`."""
    psi = psi_evaluator(params)

    def evaluate(t_block, u, v, K, R, out, work):
        return psi(t_block, theta, phi, u, v, K=K, R=R, L=L, N=N, M=M, out=out, work=work)

    return evaluate


def t_integral_integrand(params, theta, phi, N, L):
    """The integrand evaluator of `kernel.t_integral_H`."""
    psi = psi_evaluator(params)

    def evaluate(t_block, u, v, K, R, out, work):
        return psi.t_integral(theta, phi, u, v, K=K, R=R, L=L, N=N, out=out, work=work)

    return evaluate


def integral_sum(params, t_arr, theta, phi, evaluate, delta_floor, n_nodes, with_mass):
    """`kernel._integral_sum` with each band's terms evaluated on full tensors."""
    out = np.zeros_like(t_arr)
    mass = np.zeros_like(t_arr) if with_mass else None
    t_max = float(t_arr.max())
    lo = float(t_arr.min())
    while True:
        hi = lo * 4.0
        band = np.flatnonzero((t_arr >= lo) & ((t_arr < hi) | (hi >= t_max)))
        if band.size:
            tc = t_arr[band].reshape(-1, 1, 1)
            for u, v, wu, wv, K, R in _integral_terms(params, float(tc.min()), theta, phi,
                                                      n_nodes, delta_floor):
                vals, absvals = contract(evaluate(tc, u, v, K, R, None, None), wu, wv, with_mass)
                out[band] += vals
                if with_mass:
                    mass[band] += absvals
        if hi >= t_max:
            return out, mass
        lo = hi
