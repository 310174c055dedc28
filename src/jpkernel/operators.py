"""Spectral application of the semigroup-derived operators to finite
Fourier-Jacobi expansions.

Everything acts diagonally on the coefficients against the orthonormal
basis: the Poisson semigroup scales coefficient n by exp(-t a_n), the
order-N transforms by a_n^(-N) (composed with N theta-derivatives of the
basis functions and dropping n = 0), multipliers by m(a_n), where
a_n = |n + (alpha+beta+1)/2|.  The square function has an exact closed
form: the L^2(t-weight) integrals of exponential cross terms are Gamma
integrals, so no t-quadrature enters.  analyze uses one Gauss rule of
n_max + 32 nodes; synthesize gives point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jpkernel.basis import OrthonormalBasis, theta_quad_rule, trig_poly_table
from jpkernel.czkernels import LaplaceProfile, StieltjesAtoms
from jpkernel.params import JacobiParams


@dataclass(frozen=True)
class Expansion:
    """Coefficients of f against the orthonormal basis, n = 0..n_max."""

    basis: OrthonormalBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        if coeffs.shape != (self.basis.n_max + 1,):
            raise ValueError(
                f"need {self.basis.n_max + 1} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def params(self) -> JacobiParams:
        return self.basis.params

    def rates(self) -> np.ndarray:
        return self.params.rates(self.basis.n_max)


def analyze(basis: OrthonormalBasis, f) -> Expansion:
    """Fourier-Jacobi coefficients of f by Gauss quadrature against d(mu) at
    n_max + 32 nodes (exact to degree 2 n_max + 63 in cos(theta))."""
    rule = theta_quad_rule(basis.params, basis.n_max + 32)
    table = trig_poly_table(basis.params, basis.n_max, rule.nodes)
    fvals = f(rule.nodes)
    coeffs = table @ (rule.weights * fvals)
    return Expansion(basis, coeffs)


def synthesize(exp: Expansion, theta):
    """Pointwise values of the expansion."""
    theta = np.asarray(theta, dtype=float)
    table = trig_poly_table(exp.params, exp.basis.n_max, theta)
    return np.tensordot(exp.coeffs, table, axes=(0, 0))


def semigroup_apply(exp: Expansion, t: float) -> Expansion:
    """Poisson semigroup at time t >= 0 on the coefficients."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    return Expansion(exp.basis, exp.coeffs * np.exp(-t * exp.rates()))


def riesz_apply(exp: Expansion, N: int):
    """Order-N transform; returns the pointwise evaluator theta -> value
    (a numpy scalar for scalar theta, complex for complex coefficients).

    The sum starts at n = 1 (well defined also when the bottom rate is 0).
    """
    if N not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {N}")
    a = exp.rates()
    scaled = exp.coeffs.astype(complex if np.iscomplexobj(exp.coeffs) else float).copy()
    scaled[0] = 0.0
    scaled[1:] = scaled[1:] * a[1:] ** (-float(N))

    def evaluate(theta):
        theta_arr = np.asarray(theta, dtype=float)
        table = trig_poly_table(exp.params, exp.basis.n_max, theta_arr, order=N)
        out = np.tensordot(scaled, table, axes=(0, 0))
        return out if out.ndim else out[()]

    return evaluate


def g_function(exp: Expansion, M: int, N: int, theta_points):
    """Mixed square function g_{M,N}(f) at the given points, exactly.

    g^2(theta) = Re sum_{n,m} c_n conj(c_m) (a_n a_m)^M T_n(theta) T_m(theta)
                 * Gamma(W) / (a_n + a_m)^W,   W = 2M + 2N,
    with T = the N-th basis derivative (real); the sum is real up to
    roundoff for complex coefficients.  Pairs with a_n + a_m = 0 carry a
    zero numerator factor and are dropped.
    """
    if M < 0 or N < 0 or not 1 <= M + N <= 2:
        raise ValueError(f"need M + N in {{1, 2}}, got M={M}, N={N}")
    theta_points = np.atleast_1d(np.asarray(theta_points, dtype=float))
    a = exp.rates()
    w_exp = 2 * (M + N)
    c = exp.coeffs * a**M
    table = trig_poly_table(exp.params, exp.basis.n_max, theta_points, order=N)
    s = a[:, None] + a[None, :]
    gamma_w = np.zeros_like(s)
    nz = s > 0
    gamma_w[nz] = math.gamma(w_exp) / s[nz] ** w_exp
    cross = (c[:, None] * np.conj(c)[None, :]) * gamma_w
    g_sq = np.einsum("nm,ni,mi->i", cross, table, table).real
    return np.sqrt(np.maximum(g_sq, 0.0))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def laplace_symbol(profile: LaplaceProfile, z: float):
    """m(z) = z int_0^inf exp(-t z) profile(t) dt by log-substituted trapezoid.

    m(0) := 0 (the defining integral vanishes there); the trapezoid rule on
    s = log t converges superalgebraically for the bounded profiles used
    here.
    """
    if z == 0.0:
        return 0.0
    h = 0.04
    s = np.arange(-38.0, math.log(45.0 / z) + h, h)
    t = np.exp(s)
    vals = z * np.exp(-z * t) * t * profile.fn(t)
    total = h * vals.sum()
    return complex(total) if np.iscomplexobj(vals) else float(total)


def stieltjes_symbol(atoms: StieltjesAtoms, z: float):
    """m(z) = sum_j w_j exp(-z t_j); finite at z = 0 (value sum_j w_j)."""
    total = sum(w * math.exp(-z * t) for w, t in zip(atoms.weights, atoms.times))
    return total


def multiplier_apply(exp: Expansion, spec) -> Expansion:
    """Coefficient-wise multiplier m(a_n) for a Laplace-type profile or a
    finite Laplace-Stieltjes atom list.

    When the bottom rate is 0 (alpha + beta + 1 = 0) the Laplace-type
    symbol is not defined there and the n = 0 mode is dropped (m(0) := 0);
    dropped_modes on the result's meta records it.
    """
    a = exp.rates()
    if isinstance(spec, LaplaceProfile):
        symbols = np.array([laplace_symbol(spec, z) for z in a])
    elif isinstance(spec, StieltjesAtoms):
        symbols = np.array([stieltjes_symbol(spec, z) for z in a])
    else:
        raise TypeError(f"unsupported multiplier spec {type(spec).__name__}")
    return Expansion(exp.basis, exp.coeffs * symbols)


def dropped_modes(exp: Expansion, spec) -> list:
    """Indices annihilated by a Laplace-type multiplier (rate-0 modes)."""
    if isinstance(spec, LaplaceProfile):
        return [int(i) for i in np.flatnonzero(exp.rates() == 0.0)]
    return []


# ---------------------------------------------------------------------------
# expansion file format
# ---------------------------------------------------------------------------

def expansion_to_dict(exp: Expansion) -> dict:
    coeffs = exp.coeffs
    if np.iscomplexobj(coeffs):
        ser = [[float(c.real), float(c.imag)] for c in coeffs]
    else:
        ser = [float(c) for c in coeffs]
    return {
        "alpha": exp.params.alpha,
        "beta": exp.params.beta,
        "n_max": exp.basis.n_max,
        "coeffs": ser,
    }


def expansion_from_dict(data: dict) -> Expansion:
    try:
        params = JacobiParams(float(data["alpha"]), float(data["beta"]))
        n_max = int(data["n_max"])
        raw = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed expansion object: {exc}") from exc
    if any(isinstance(c, (list, tuple)) for c in raw):
        coeffs = np.array([complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
                           for c in raw])
    else:
        coeffs = np.array([float(c) for c in raw])
    basis = OrthonormalBasis(params, n_max)
    return Expansion(basis, coeffs)
