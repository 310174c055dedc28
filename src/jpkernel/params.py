"""Type parameters of the Jacobi setting and derived constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jpkernel import specfun


@dataclass(frozen=True)
class JacobiParams:
    """The admissible pair (alpha, beta), both > -1.

    Derived quantities:
      lam  -- alpha + beta + 1, the spectral shift (|n + lam/2| are the
              Poisson-semigroup decay rates),
      c_ab -- Gamma(alpha+beta+2) / (2^(alpha+beta+1) Gamma(alpha+1) Gamma(beta+1)),
              the normalizing constant of the kernel formulas; it equals
              2^(-lam) / mu_total.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        if not (self.beta > -1.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must exceed -1, got {self.beta}")

    @property
    def lam(self) -> float:
        return self.alpha + self.beta + 1.0

    def rates(self, n_max: int) -> np.ndarray:
        """The decay rates |n + lam/2| of modes n = 0..n_max."""
        return np.abs(np.arange(n_max + 1, dtype=float) + 0.5 * self.lam)

    @property
    def sigma(self) -> float:
        """alpha + beta + 2, the exponent of the kernel integrand."""
        return self.alpha + self.beta + 2.0

    @property
    def c_ab(self) -> float:
        a, b = self.alpha, self.beta
        return math.exp(
            specfun.gammaln(a + b + 2.0)
            - (a + b + 1.0) * math.log(2.0)
            - specfun.gammaln(a + 1.0)
            - specfun.gammaln(b + 1.0)
        )
