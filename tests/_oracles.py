"""Independent oracles shared across the test suite.

Everything here avoids the package's own evaluation paths: brute-force
series, adaptive quadrature, closed trigonometric forms and mpmath
reference computations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def jacobi_series(n: int, a: float, b: float, x: float) -> float:
    """Classical Jacobi polynomial by the explicit hypergeometric sum."""
    def binom(z, k):
        return math.gamma(z + 1) / (math.gamma(k + 1) * math.gamma(z - k + 1))

    return sum(
        binom(n + a, n - s) * binom(n + b, s) * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
        for s in range(n + 1)
    )


def pi_prefactor(alpha: float) -> float:
    return math.gamma(alpha + 1) / (math.sqrt(math.pi) * math.gamma(alpha + 0.5))


def pi_cdf_quad(alpha: float, u: float) -> float:
    val, _ = integrate.quad(lambda w: (1 - w * w) ** (alpha - 0.5), 0, u)
    return pi_prefactor(alpha) * val


def profile_integral_mp(alpha: float, f, dps: int = 30) -> float:
    """int_(-1)^1 f(u) |Pi_alpha(u)| du by mpmath with endpoint splits.

    f receives mpmath numbers: rounding them to floats would make the
    tanh-sinh rule keep raising its degree on the rounding noise."""
    import mpmath as mp

    with mp.workdps(dps):
        c = mp.gamma(alpha + 1) / (mp.sqrt(mp.pi) * mp.gamma(alpha + 0.5))

        def cdf(u):
            return c * mp.quad(lambda w: (1 - w * w) ** (alpha - 0.5), [0, u])

        val = mp.quad(lambda u: f(u) * abs(cdf(u)), [0, 0.5, 0.9, 0.99, 1])
        return 2 * float(val)


def mu_density(alpha: float, beta: float, theta):
    return np.sin(theta / 2) ** (2 * alpha + 1) * np.cos(theta / 2) ** (2 * beta + 1)


def mu_interval_quad(alpha: float, beta: float, lo: float, hi: float) -> float:
    lo = min(max(lo, 0.0), math.pi)
    hi = min(max(hi, 0.0), math.pi)
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(lambda th: mu_density(alpha, beta, th), lo, hi, limit=200)
    return val


def chebyshev_H(t, theta, phi):
    """Closed Poisson-kernel form for the pure cosine case, written
    directly from the geometric series (independent of the package)."""
    r = np.exp(-np.asarray(t, dtype=float))

    def s(x):
        return (r * np.cos(x) - r * r) / (1 - 2 * r * np.cos(x) + r * r)

    return (1 + s(theta - phi) + s(theta + phi)) / math.pi


def trig_H(alpha: float, beta: float, t: float, theta: float, phi: float) -> float:
    """H at the four trigonometric pairs (alpha, beta) in {+-1/2}^2, from
    the Poisson sums closed into forms whose terms are all positive, with
    1 - r and 1 - s^2 from expm1, so they cancel at no t, theta or phi
    (r = e^(-t), s = e^(-t/2)).  At (1/2, -1/2) theta and phi turn into
    pi - theta and pi - phi of the (-1/2, 1/2) form."""
    if (alpha, beta) not in [(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5)]:
        raise ValueError(f"no trigonometric form at (alpha, beta) = {(alpha, beta)}")
    r, one_minus_r = math.exp(-t), -math.expm1(-t)

    def den(x):
        return one_minus_r**2 + 4.0 * r * math.sin(0.5 * x) ** 2

    if alpha == beta == -0.5:
        return one_minus_r * (1.0 + r) / (2.0 * math.pi) * (1.0 / den(theta - phi)
                                                           + 1.0 / den(theta + phi))
    if alpha == beta == 0.5:
        return 8.0 * r * one_minus_r * (1.0 + r) / (math.pi * den(theta - phi) * den(theta + phi))
    if alpha == 0.5:
        theta, phi = math.pi - theta, math.pi - phi
    s = math.exp(-0.5 * t)  # s^2 = r, 1 - s^2 = 1 - r

    def e(y):
        return one_minus_r**2 + 4.0 * r * math.sin(y) ** 2

    spread = one_minus_r**2 + 4.0 * r * (math.sin(0.5 * theta) ** 2 + math.sin(0.5 * phi) ** 2)
    return 2.0 / math.pi * s * one_minus_r * spread / (e(0.5 * (theta - phi))
                                                        * e(0.5 * (theta + phi)))
