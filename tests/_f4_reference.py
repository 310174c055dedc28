"""Reference loop of the F4 route, kept to pin the production sum.

This is the straightforward anti-diagonal sweep: each anti-diagonal is built
whole with fresh arrays (`np.arange`, `np.append`), so its cost is O(S^2)
with a large constant factor, but every rounding step is written out
plainly.  `h_script_f4` must return exactly (==) what this returns on its
sweep path, the calls whose estimated diagonal count is below
`kernel.F4_COLUMN_START`.  On its column path it sums the same series in
another order, by one 2F1 recurrence per column, and each form stops within
F4_RTOL of the sum, so there the two agree to F4_RTOL.
"""

from __future__ import annotations

import math

import numpy as np

from jpkernel.errors import SlowConvergenceError
from jpkernel.kernel import F4_EPS_CONV, F4_MAX_DIAGONALS


def h_script_f4_reference(params, t: float, theta: float, phi: float, rtol=1e-11) -> float:
    ch = math.cosh(0.5 * t)
    sx = math.sin(0.5 * theta) * math.sin(0.5 * phi) / ch
    sy = math.cos(0.5 * theta) * math.cos(0.5 * phi) / ch
    x, y = sx * sx, sy * sy
    rho = sx + sy
    if rho >= 1.0 - F4_EPS_CONV:
        raise SlowConvergenceError(f"F4 series too close to its convergence boundary: {rho}")
    a1 = 0.5 * params.sigma
    a2 = 0.5 * (params.sigma + 1.0)
    b1 = params.alpha + 1.0
    b2 = params.beta + 1.0

    rho2 = rho * rho
    geo = 2.0 * rho2 / (1.0 - rho2)
    row = np.array([1.0])
    logw = np.array([0.0])
    ew = np.array([1.0])
    total = 1.0
    prev_block = 1.0
    renorm_every = 32
    for s in range(F4_MAX_DIAGONALS):
        fac = (a1 + s) * (a2 + s)
        m = np.arange(s + 1, dtype=float)
        nxt = np.empty(s + 2)
        nxt[: s + 1] = row * (fac * y / ((b2 + (s - m)) * (s - m + 1.0)))
        nxt[s + 1] = row[s] * (fac * x / ((b1 + s) * (s + 1.0)))
        logw = np.append(logw, logw[s])
        ew = np.append(ew, ew[s])
        block = float(np.dot(nxt, ew))
        total += block
        if s >= 4 and block <= prev_block and block * geo <= rtol * total:
            break
        prev_block = block
        row = nxt
        if (s + 1) % renorm_every == 0:
            pos = row > 0.0
            logw = np.where(pos, logw + np.log(row, where=pos, out=np.zeros_like(row)), logw)
            row = np.where(pos, 1.0, 0.0)
            with np.errstate(under="ignore"):
                ew = np.exp(logw)
    else:
        raise SlowConvergenceError(f"F4 series did not converge in {F4_MAX_DIAGONALS} blocks")
    return params.c_ab * math.sinh(0.5 * t) / ch**params.sigma * total
