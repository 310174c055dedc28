"""Orthonormal Jacobi trigonometric polynomials, the measure mu, quadrature.

The working objects are the polynomials P_n(theta) = p_n(cos theta) / h_n,
where p_n is the classical Jacobi polynomial of type (alpha, beta) and h_n
normalizes in L^2 of d(mu)(theta) = (sin t/2)^(2a+1) (cos t/2)^(2b+1) dt.
Under x = cos(theta) that measure is 2^-(a+b+1) (1-x)^a (1+x)^b dx, which
is what ties everything to standard Gauss-Jacobi machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from jpkernel import specfun
from jpkernel.errors import UnsupportedOrderError
from jpkernel.params import JacobiParams

MAX_DERIV_ORDER = 4


def _classical_all(alpha: float, beta: float, n_max: int, x):
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


@lru_cache(maxsize=4096)
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
    """h_n such that p_n(cos theta)/h_n has unit L^2(d mu) norm."""
    return math.exp(0.5 * _log_h2(alpha, beta, n))


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


def trig_poly_table(params: JacobiParams, n_max: int, theta, order: int = 0):
    """Values of d^order P_n(theta) for all n = 0..n_max at once.

    Vectorized in both n and theta; used by the series kernel route.
    """
    if order < 0 or order > MAX_DERIV_ORDER:
        raise UnsupportedOrderError(f"derivative order {order} unsupported (max {MAX_DERIV_ORDER})")
    theta = np.asarray(theta, dtype=float)

    @lru_cache(maxsize=None)
    def table(k: int, shift: int):
        a = params.alpha + shift
        b = params.beta + shift
        if k == 0:
            x = np.cos(theta)
            vals = _classical_all(a, b, n_max, x)
            h = np.array([norm_constant(a, b, n) for n in range(n_max + 1)])
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


def ball_surrogate(params: JacobiParams, theta: float, phi: float) -> float:
    """|theta-phi| (theta+phi)^(2a+1) (2 pi - theta - phi)^(2b+1), the
    comparability surrogate for mu(B(theta, |theta-phi|))."""
    return (
        abs(theta - phi)
        * (theta + phi) ** (2.0 * params.alpha + 1.0)
        * (2.0 * math.pi - theta - phi) ** (2.0 * params.beta + 1.0)
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
    degree: int

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


def theta_quad_rule(params: JacobiParams, n_nodes: int) -> ThetaQuadRule:
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    x, w = specfun.roots_jacobi(n_nodes, params.alpha, params.beta)
    theta = np.arccos(x)[::-1].copy()
    weights = w[::-1].copy() * 2.0 ** (-(params.alpha + params.beta + 1.0))
    return ThetaQuadRule(nodes=theta, weights=weights, degree=2 * n_nodes - 1)
