"""Per-degree evaluation of the orthonormal basis, kept to pin the table.

This is the straightforward form of `basis.trig_poly_table`: one degree n at
a time, the value by the three-term recurrence and each theta-derivative by
the ladder identity written out recursively in n.  Its cost grows with the
derivative order, but every step of the formula is written out plainly.
The tests compare `trig_poly_table` against it, `basis._classical_all`
bit for bit against the per-degree recurrence loop `classical_all`, and
`basis._norm_constants` bit for bit against the scalar `norm_constant`.
"""

from __future__ import annotations

import math

import numpy as np

from jpkernel import specfun
from jpkernel.basis import MAX_DERIV_ORDER
from jpkernel.errors import UnsupportedOrderError


def _log_h2(alpha: float, beta: float, n: int) -> float:
    """log of the squared d(mu)-norm of the classical polynomial p_n.

    The n = 0 entry avoids the generic formula, which is indeterminate when
    alpha + beta + 1 = 0.
    """
    ab1 = alpha + beta + 1.0
    if n == 0:
        return specfun.gammaln(alpha + 1.0) + specfun.gammaln(beta + 1.0) - specfun.gammaln(ab1 + 1.0)
    return (
        -math.log(2.0 * n + ab1)
        + specfun.gammaln(n + alpha + 1.0)
        + specfun.gammaln(n + beta + 1.0)
        - specfun.gammaln(n + ab1)
        - specfun.gammaln(n + 1.0)
    )


def norm_constant(alpha: float, beta: float, n: int) -> float:
    """h_n such that p_n(cos theta)/h_n has unit L^2(d mu) norm, one degree
    at a time (the scalar formula basis._norm_constants must match)."""
    return math.exp(0.5 * _log_h2(alpha, beta, n))


def classical_all(alpha: float, beta: float, n_max: int, x):
    """All classical Jacobi polynomials p_0..p_{n_max} at x, shape (n_max+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max == 0:
        return out
    ab = alpha + beta
    out[1] = 0.5 * ((ab + 2.0) * x + (alpha - beta))
    for n in range(2, n_max + 1):
        c0 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c1 = 2.0 * n + ab - 1.0
        c2 = (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c3 = alpha * alpha - beta * beta
        c4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        out[n] = (c1 * (c2 * x + c3) * out[n - 1] - c4 * out[n - 2]) / c0
    return out


def classical_jacobi_eval(params, n: int, x):
    """Degree-n classical Jacobi polynomial at x, by forward recurrence.

    x may be a scalar or array in [-1, 1].
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    out = classical_all(params.alpha, params.beta, n, x)[n]
    return float(out) if out.ndim == 0 else out


def _trig_eval_raw(alpha: float, beta: float, n: int, theta):
    x = np.cos(np.asarray(theta, dtype=float))
    vals = classical_all(alpha, beta, n, x)[n]
    return vals / norm_constant(alpha, beta, n)


def _trig_deriv_raw(alpha: float, beta: float, n: int, theta, order: int):
    """d^order/d theta^order of the orthonormal polynomial, exactly.

    Uses the ladder identity
        d/dt P_n^{a,b} = -(1/2) sqrt(n (n+a+b+1)) sin(t) P_{n-1}^{a+1,b+1}
    (both sides orthonormal) together with the Leibniz rule.
    """
    if order == 0:
        return _trig_eval_raw(alpha, beta, n, theta)
    if n == 0:
        return np.zeros(np.shape(theta)) if np.ndim(theta) else 0.0
    theta = np.asarray(theta, dtype=float)
    coeff = -0.5 * math.sqrt(n * (n + alpha + beta + 1.0))
    k = order - 1
    acc = 0.0
    for j in range(k + 1):
        sin_j = np.sin(theta + 0.5 * j * np.pi)
        acc = acc + math.comb(k, j) * sin_j * _trig_deriv_raw(
            alpha + 1.0, beta + 1.0, n - 1, theta, k - j
        )
    return coeff * acc


def trig_poly_eval(basis, n: int, theta):
    """Orthonormal P_n at theta in [0, pi]."""
    if not 0 <= n <= basis.n_max:
        raise IndexError(f"basis index {n} outside 0..{basis.n_max}")
    p = basis.params
    return _trig_eval_raw(p.alpha, p.beta, n, theta)


def trig_poly_deriv(basis, n: int, theta, order: int):
    """d^order/d theta^order of the orthonormal P_n; order <= 4."""
    if order < 0 or order > MAX_DERIV_ORDER:
        raise UnsupportedOrderError(f"derivative order {order} unsupported (max {MAX_DERIV_ORDER})")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    p = basis.params
    return _trig_deriv_raw(p.alpha, p.beta, n, theta, order)
