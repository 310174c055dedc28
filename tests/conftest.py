import numpy as np
import pytest

from jpkernel.operators import Expansion
from jpkernel.params import JacobiParams

# Parameter sets covering all four regions of the (alpha, beta) case split.
ACCEPTANCE_SETS = [
    (0.5, 0.5),
    (-0.75, 0.5),
    (0.5, -0.75),
    (-0.75, -0.75),
    (0.0, 0.0),
    (2.0, -0.25),
]


def unit_expansion(basis, n):
    """The expansion of the n-th orthonormal basis function."""
    coeffs = np.zeros(basis.n_max + 1)
    coeffs[n] = 1.0
    return Expansion(basis, coeffs)


@pytest.fixture(params=ACCEPTANCE_SETS, ids=lambda ab: f"a{ab[0]}_b{ab[1]}")
def acceptance_params(request):
    return JacobiParams(*request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
