"""Numerics for Jacobi-Poisson kernels on [0, pi].

The package evaluates the Poisson kernel of the Jacobi differential operator
for all admissible type parameters alpha, beta > -1 by several independent
routes (spectral series, Appell-F4 double series, an integral representation
whose four cases are the products of the two integration axes' measure
regimes, and a symmetrized one-formula variant), provides the measure and
quadrature machinery those routes need, scans empirical sharp-bound and
Calderon-Zygmund-type kernel estimates, and applies the associated spectral
operators to finite Fourier-Jacobi expansions.
"""

from jpkernel.basis import OrthonormalBasis, ThetaQuadRule, mu_ball, mu_total, theta_quad_rule
from jpkernel.kernel import (
    KernelQuery,
    closed_form_chebyshev,
    h_script_f4,
    h_script_general,
    h_script_integral,
    kernel_eval,
)
from jpkernel.operators import Expansion, analyze, g_function, multiplier_apply, riesz_apply, semigroup_apply
from jpkernel.params import JacobiParams
from jpkernel.pi_measures import pi_cdf

__all__ = [
    "JacobiParams",
    "OrthonormalBasis",
    "ThetaQuadRule",
    "theta_quad_rule",
    "mu_ball",
    "mu_total",
    "KernelQuery",
    "kernel_eval",
    "closed_form_chebyshev",
    "h_script_f4",
    "h_script_integral",
    "h_script_general",
    "pi_cdf",
    "Expansion",
    "analyze",
    "semigroup_apply",
    "riesz_apply",
    "g_function",
    "multiplier_apply",
]

__version__ = "0.1.0"
