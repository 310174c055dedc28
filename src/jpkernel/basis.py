"""Orthonormal Jacobi trigonometric polynomials, the measure mu, quadrature.

The working objects are the polynomials P_n(theta) = p_n(cos theta) / h_n,
where p_n is the classical Jacobi polynomial of type (alpha, beta) and h_n
normalizes in L^2 of d(mu)(theta) = (sin t/2)^(2a+1) (cos t/2)^(2b+1) dt.
Under x = cos(theta) that measure is 2^-(a+b+1) (1-x)^a (1+x)^b dx, which
is what ties everything to standard Gauss-Jacobi machinery.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from jpkernel import specfun
from jpkernel.errors import UnsupportedOrderError
from jpkernel.params import JacobiParams

MAX_DERIV_ORDER = 4


# How many (alpha, beta) pairs keep cached tables; trig_poly_table visits up
# to MAX_DERIV_ORDER + 1 shifted pairs per parameter set.
_CACHED_PAIRS = 64


@lru_cache(maxsize=_CACHED_PAIRS)
def _holder(alpha: float, beta: float) -> list:
    """A one-slot list holding the cached tables of one (alpha, beta)."""
    return [None]


def _tables(alpha: float, beta: float, n_max: int):
    """Recurrence coefficients (c0, c1, c2, c4) for n = 2..n_max and norm
    constants h_0..h_{n_max}, as read-only arrays.

    One prefix entry per (alpha, beta), grown when a larger n_max is asked
    for and sliced on return.  A grown entry replaces the old one whole, so a
    thread that read an entry keeps a consistent one while another grows it.
    Each coefficient is formed elementwise in the operation order of the
    scalar formula, and each norm comes from _norm_constants (array gammaln
    calls), so every value has the bits of the per-degree loop.
    """
    holder = _holder(alpha, beta)
    entry = holder[0]
    if entry is None or len(entry[1]) <= n_max:
        norms = [] if entry is None else entry[1].tolist()
        norms += _norm_constants(alpha, beta, len(norms), n_max)
        n = np.arange(2, n_max + 1, dtype=float)
        ab = alpha + beta
        coeffs = (
            2.0 * n * (n + ab) * (2.0 * n + ab - 2.0),
            2.0 * n + ab - 1.0,
            (2.0 * n + ab) * (2.0 * n + ab - 2.0),
            2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab),
        )
        entry = (coeffs, np.array(norms))
        for arr in (*coeffs, entry[1]):
            arr.flags.writeable = False
        holder[0] = entry
    coeffs, norms = entry
    return tuple(c[: max(n_max - 1, 0)] for c in coeffs), norms[: n_max + 1]


def _classical_all(alpha: float, beta: float, n_max: int, x):
    """All classical Jacobi polynomials p_0..p_{n_max} at x, shape (n_max+1,) + x.shape.

    The recurrence runs over Python floats, one x at a time, reading the
    cached coefficients; it rounds exactly as the scalar formula.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    ab = alpha + beta
    c3 = alpha * alpha - beta * beta
    # Iterating a memoryview yields Python floats without copying the slice.
    coeffs = [memoryview(c) for c in _tables(alpha, beta, n_max)[0]]
    for j, xj in enumerate(x.ravel().tolist()):
        p0, p1 = 1.0, 0.5 * ((ab + 2.0) * xj + (alpha - beta))
        col = [p0, p1]
        for c0, c1, c2, c4 in zip(*coeffs):
            p0, p1 = p1, (c1 * (c2 * xj + c3) * p1 - c4 * p0) / c0
            col.append(p1)
        out[:, j] = col[: n_max + 1]
    return out.reshape((n_max + 1,) + x.shape)


def _norm_constants(alpha: float, beta: float, n_lo: int, n_max: int) -> list:
    """The norm constants h_n = exp(log(h_n^2) / 2) for n = n_lo..n_max, h_n
    such that p_n(cos theta)/h_n has unit L^2(d mu) norm.

    log h_n^2 = -log(2n + a + b + 1) + gammaln(n + a + 1) + gammaln(n + b + 1)
    - gammaln(n + a + b + 1) - gammaln(n + 1), whose four gammaln terms are
    four array calls over the degrees, combined in that order.  The n = 0
    entry is gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2), as the
    general formula is indeterminate when a + b + 1 = 0.  The log and the
    exp stay math.log and math.exp per degree, because np.log and np.exp
    may differ from libm by an ulp; tests/_basis_reference.py keeps the
    scalar formula that every value equals bit for bit.
    """
    ab1 = alpha + beta + 1.0
    out = []
    if n_lo == 0:
        log_h2 = (specfun.gammaln(alpha + 1.0) + specfun.gammaln(beta + 1.0)
                  - specfun.gammaln(ab1 + 1.0))
        out.append(math.exp(0.5 * log_h2))
    n = np.arange(max(n_lo, 1), n_max + 1, dtype=float)
    log_h2 = (
        np.array([-math.log(x) for x in (2.0 * n + ab1).tolist()])
        + specfun.gammaln(n + alpha + 1.0)
        + specfun.gammaln(n + beta + 1.0)
        - specfun.gammaln(n + ab1)
        - specfun.gammaln(n + 1.0)
    )
    return out + [math.exp(0.5 * x) for x in log_h2.tolist()]


@dataclass(frozen=True)
class OrthonormalBasis:
    """The first n_max+1 orthonormal Jacobi trigonometric polynomials.

    Sign convention: positive leading coefficient in cos(theta), i.e. the
    classical one.  Only the magnitude is pinned by normalization; every
    kernel formula uses the polynomials quadratically, so the choice is
    observationally irrelevant there.
    """

    params: JacobiParams
    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {self.n_max}")


def check_integer_orders(*orders):
    """Refuse with UnsupportedOrderError derivative orders that are not
    integers (a float order would reach range() or a power, and fail there
    with a bare TypeError or a RuntimeWarning)."""
    if not all(isinstance(k, numbers.Integral) for k in orders):
        named = orders[0] if len(orders) == 1 else orders
        raise UnsupportedOrderError(f"derivative orders must be integers, got {named}")


def trig_poly_table(params: JacobiParams, n_max: int, theta, order: int = 0):
    """Values of d^order P_n(theta) for all n = 0..n_max at once,
    shape (n_max+1,) + theta.shape; used by the series kernel route.

    The recurrence runs sequentially in n: the cost is one O(n_max) pass per
    angle for each shifted (alpha, beta) the ladder identity visits (at most
    max(order, 1) of them), over recurrence coefficients and norm constants
    cached per (alpha, beta).
    """
    check_integer_orders(order)
    if order < 0 or order > MAX_DERIV_ORDER:
        raise UnsupportedOrderError(f"derivative order {order} unsupported (max {MAX_DERIV_ORDER})")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    theta = np.asarray(theta, dtype=float)

    @lru_cache(maxsize=None)
    def table(k: int, shift: int):
        a = params.alpha + shift
        b = params.beta + shift
        if k == 0:
            x = np.cos(theta)
            vals = _classical_all(a, b, n_max, x)
            h = _tables(a, b, n_max)[1]
            return vals / h.reshape((-1,) + (1,) * theta.ndim)
        prev_shape = (n_max + 1,) + theta.shape
        out = np.zeros(prev_shape)
        n_arr = np.arange(1, n_max + 1, dtype=float)
        coeff = -0.5 * np.sqrt(n_arr * (n_arr + a + b + 1.0))
        coeff = coeff.reshape((-1,) + (1,) * theta.ndim)
        inner = 0.0
        for j in range(k):
            sin_j = np.sin(theta + 0.5 * j * np.pi)
            inner = inner + math.comb(k - 1, j) * sin_j * table(k - 1 - j, shift + 1)[: n_max]
        out[1:] = coeff * inner
        return out

    return table(order, 0)


def mu_total(params: JacobiParams) -> float:
    """mu([0, pi]) = Beta(alpha+1, beta+1)."""
    return specfun.beta(params.alpha + 1.0, params.beta + 1.0)


def mu_ball(params: JacobiParams, theta: float, r: float) -> float:
    """Exact mu((theta-r, theta+r) /\\ [0, pi]) via the regularized incomplete Beta.

    Substituting x = sin^2(theta/2) turns the density into x^alpha (1-x)^beta.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    lo = min(max(theta - r, 0.0), math.pi)
    hi = min(max(theta + r, 0.0), math.pi)
    if hi <= lo:
        return 0.0
    a, b = params.alpha + 1.0, params.beta + 1.0
    x_lo = math.sin(0.5 * lo) ** 2
    x_hi = math.sin(0.5 * hi) ** 2
    return specfun.beta(a, b) * float(
        specfun.betainc_reg(a, b, x_hi) - specfun.betainc_reg(a, b, x_lo)
    )


@dataclass(frozen=True)
class ThetaQuadRule:
    """Gauss rule integrating f(theta) against d(mu) on (0, pi).

    Exact for f polynomial in cos(theta) of degree <= 2 len(nodes) - 1.
    All nodes are interior, so densities with negative endpoint exponents
    are never sampled at 0 or pi.
    """

    nodes: np.ndarray
    weights: np.ndarray


def theta_quad_rule(params: JacobiParams, n_nodes: int) -> ThetaQuadRule:
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    x, w = specfun.roots_jacobi(n_nodes, params.alpha, params.beta)
    theta = np.arccos(x)[::-1].copy()
    weights = w[::-1].copy() * 2.0 ** (-(params.alpha + params.beta + 1.0))
    return ThetaQuadRule(nodes=theta, weights=weights)
