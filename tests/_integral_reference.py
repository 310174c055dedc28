"""Full-array contraction of the integral route, kept to pin the blocked one.

This is the straightforward form of `kernel._integral_sum`: per log-band of
the t batch and per quadrature term, the integrand on the term's whole
(t, point, node) array (a corner-graded point cloud, or the tensor of an
ungraded or atomic axis), weighted and summed over each t row.  The
integrand is psi (`psi_integrand`) or its t-integral (`t_integral_integrand`,
on a one-row batch at t = 0).  It allocates an array of the band's full
size per term, which is what the blocked route avoids; the tests require
the blocked route to return exactly (==) its values and masses.
"""

from __future__ import annotations

import numpy as np

from jpkernel.kernel import _integral_terms
from jpkernel.qpsi import psi_evaluator


def cloud(u, v, w):
    """A term's point cloud (u, v, w), flat: the nodes broadcast to the
    weights' shape, flattened."""
    return tuple(np.broadcast_to(a, w.shape).ravel() for a in (u, v, w))


def weighted_rows(evaluate, tc, u, v, w, K, R):
    """The weighted integrand of one term on its whole point cloud, one row
    per t of tc (shaped (t, 1, 1))."""
    # the t-integral's values carry no t axis
    vals = evaluate(tc, u, v, K, R, None, None).reshape((len(tc),) + w.shape)
    return (vals * w).reshape(len(tc), -1)


def row_sums(rows, with_mass=True):
    """(sum_k rows[t, k], sum_k |rows[t, k]|) for each t; the second is None
    unless with_mass."""
    return rows.sum(axis=1), np.abs(rows).sum(axis=1) if with_mass else None


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
    """`kernel._integral_sum` with each band's terms evaluated on full arrays."""
    out = np.zeros_like(t_arr)
    mass = np.zeros_like(t_arr) if with_mass else None
    t_max = float(t_arr.max())
    lo = float(t_arr.min())
    while True:
        hi = lo * 4.0
        band = np.flatnonzero((t_arr >= lo) & ((t_arr < hi) | (hi >= t_max)))
        if band.size:
            tc = t_arr[band].reshape(-1, 1, 1)
            for u, v, w, K, R in _integral_terms(params, float(tc.min()), theta, phi, n_nodes,
                                                 delta_floor):
                vals, absvals = row_sums(weighted_rows(evaluate, tc, u, v, w, K, R), with_mass)
                out[band] += vals
                if with_mass:
                    mass[band] += absvals
        if hi >= t_max:
            return out, mass
        lo = hi
