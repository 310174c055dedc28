"""The one-parameter measure family on [-1, 1] behind the kernel integrals.

Each integration axis of the kernel's integral representation lives in one
of three regimes of its parameter gamma.  For gamma > -1/2 the measure is
the probability density
    c_gamma (1-u^2)^(gamma-1/2) du,   c_gamma = Gamma(gamma+1)/(sqrt(pi) Gamma(gamma+1/2)),
at gamma = -1/2 it degenerates to two half-atoms at +-1, and for
gamma in (-1, -1/2) the role is taken over by the finite even profile
|Pi_gamma(u)| du, where Pi_gamma is the (negative, odd) primitive of the
no-longer-integrable density.  The kernel's cases are products of the two
axes' regimes.

The profile is evaluated through the exact decomposition (u > 0)
    Pi_gamma(u) = 1/2 + c_gamma B_gamma u (1-u^2)^(gamma+1/2) 2F1(1, 1+gamma; gamma+3/2; 1-u^2),
    B_gamma = Gamma(-gamma-1/2) / (2 Gamma(1/2-gamma)),
which separates the endpoint singularity (1-u)^(gamma+1/2) from analytic
factors, so plain Gauss-Jacobi pieces converge spectrally.

Each rule is Gauss-Jacobi pieces at the singular endpoints plus one
Gauss-Legendre mesh graded dyadically toward u = 1.  gauss_panels is the
one Gauss-Legendre panel builder of the package; the operator kernels'
t-rules use it too.  corner_pieces splits a graded rule into its octaves
(the end piece, the dyadic panels, the coarse rest) and adds, per octave,
one Gauss-Jacobi piece for everything below it (its tail): the 1-D pieces
of the integral route's corner-graded (u, v) rule.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from jpkernel import specfun

_SPLIT = 0.75  # |u| above which the endpoint decomposition is used
DELTA_FLOOR = 2.0**-40  # the finest grading: snap_delta's floor, the integral route's default


def pi_c(gamma: float) -> float:
    """Prefactor c_gamma; negative for gamma in (-1, -1/2), zero at -1/2."""
    return float(specfun.gamma(gamma + 1.0) / (math.sqrt(math.pi) * specfun.gamma(gamma + 0.5)))


def _pi_b(gamma: float) -> float:
    return float(0.5 * specfun.gamma(-gamma - 0.5) / specfun.gamma(0.5 - gamma))


def pi_cdf(alpha: float, u):
    """Pi_alpha(u) for u in (-1, 1); odd, negative for u > 0 when alpha < -1/2."""
    if alpha <= -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if alpha == -0.5:
        raise ValueError("Pi_alpha has a pole at alpha = -1/2 (atomic regime)")
    u = np.asarray(u, dtype=float)
    if not np.all(np.abs(u) < 1.0):
        raise ValueError("argument must lie in the open interval (-1, 1)")
    if alpha > -0.5:
        out = pi_c(alpha) * u * specfun.hyp2f1(0.5, 0.5 - alpha, 1.5, u * u)
    else:
        out = -np.sign(u) * abs_profile(alpha, np.abs(u))
    return float(out) if out.ndim == 0 else out


def _abs_profile_tail(alpha: float, u):
    """|Pi_alpha(u)| for u in [_SPLIT, 1), alpha < -1/2, via the decomposition."""
    z = (1.0 - u) * (1.0 + u)
    d = -pi_c(alpha) * _pi_b(alpha)
    return d * u * z ** (alpha + 0.5) * specfun.hyp2f1(1.0, 1.0 + alpha, alpha + 1.5, z) - 0.5


def abs_profile(alpha: float, u):
    """|Pi_alpha(u)| for u in (0, 1), alpha in (-1, -1/2)."""
    u = np.asarray(u, dtype=float)
    return np.where(
        u <= _SPLIT,
        np.abs(pi_c(alpha)) * u * specfun.hyp2f1(0.5, 0.5 - alpha, 1.5, np.minimum(u * u, _SPLIT**2)),
        _abs_profile_tail(alpha, np.maximum(u, _SPLIT)),
    )


# ---------------------------------------------------------------------------
# quadrature pieces
# ---------------------------------------------------------------------------

def gauss_panels(edges, n: int):
    """Gauss-Legendre rule (nodes, weights) with n nodes on each panel
    [edges[i], edges[i+1]], concatenated in panel order."""
    x, w = specfun.roots_legendre(n)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1, None]
    h = 0.5 * (edges[1:, None] - lo)
    return (lo + h * (x + 1.0)).ravel(), (h * w).ravel()


@lru_cache(maxsize=256)
def _jacobi_reference(n: int, a: float, b: float):
    """The Gauss-Jacobi rule on (-1, 1), solved once per (n, a, b)."""
    return specfun.roots_jacobi(n, a, b)


def _gj_piece(lo: float, hi: float, n: int, exponent: float, side: str):
    """Rule for int_lo^hi g(u) |endpoint - u|^exponent du with the singular
    endpoint at hi (side='right') or lo (side='left')."""
    if side == "right":
        x, w = _jacobi_reference(n, exponent, 0.0)
    else:
        x, w = _jacobi_reference(n, 0.0, exponent)
    h = 0.5 * (hi - lo)
    return lo + h * (x + 1.0), h ** (exponent + 1.0) * w


def _panel_nodes(n: int) -> int:
    """Nodes per dyadic panel of a graded mesh of n coarse nodes.  The panels
    carry smooth integrands, so fewer nodes than the endpoint pieces suffice."""
    return max(8, (3 * n) // 5)


def _levels(delta: float) -> int:
    """Dyadic panels of the graded mesh down to delta: log2(1 / (2 delta))."""
    return round(-math.log2(delta)) - 1


def _graded_mesh(n: int, delta: float):
    """Gauss-Legendre rule (nodes, weights) on [0, 1 - delta], delta a power
    of two <= 1/2: n nodes on [0, 1/2], then _panel_nodes(n) on each dyadic
    interval [1 - 2d, 1 - d] from d = 1/2 down to d = delta."""
    x0, w0 = gauss_panels([0.0, 0.5], n)
    edges = 1.0 - np.ldexp(1.0, -np.arange(1, _levels(delta) + 2))  # 1/2, 3/4, ..., 1 - delta
    x1, w1 = gauss_panels(edges, _panel_nodes(n))
    return np.concatenate([x0, x1]), np.concatenate([w0, w1])


def snap_delta(delta: float) -> float:
    """Round down to a power of two in [DELTA_FLOOR, 1/2] for rule caching."""
    delta = min(max(delta, DELTA_FLOOR), 0.5)
    return 2.0 ** math.floor(math.log2(delta))


@lru_cache(maxsize=512)
def _tail(gamma: float, m: int, width: float):
    """The measure of parameter gamma on [1 - width, 1], width <= 1/2, as one
    piece of m Gauss-Jacobi nodes at the endpoint singularity: the density,
    or for gamma < -1/2 the profile's singular part plus its -1/2 du part
    (m Gauss-Legendre nodes).  It is the end piece of the graded rules and
    each tail of corner_pieces."""
    e = gamma - 0.5 if gamma > -0.5 else gamma + 0.5
    x, w = _gj_piece(1.0 - width, 1.0, m, e, "right")
    if gamma > -0.5:
        return x, pi_c(gamma) * w * (1.0 + x) ** e
    sing = -pi_c(gamma) * _pi_b(gamma) * x * (1.0 + x) ** e * specfun.hyp2f1(
        1.0, 1.0 + gamma, gamma + 1.5, (1.0 - x) * (1.0 + x))
    xg, wg = gauss_panels([1.0 - width, 1.0], m)
    return np.concatenate([x, xg]), np.concatenate([w * sing, -0.5 * wg])


@lru_cache(maxsize=512)
def density_rule(gamma: float, n: int, delta: float = 0.5):
    """Discrete rule (nodes, weights) on (-1, 1) approximating the probability
    measure of parameter gamma > -1/2.

    delta grades the mesh toward u = +1 (where kernel integrands peak);
    it must come from snap_delta.  A graded rule is the Gauss-Jacobi piece
    on [-1, 0], the graded mesh and the end piece _tail(gamma, n, delta).
    """
    if gamma <= -0.5:
        raise ValueError(f"density regime needs gamma > -1/2, got {gamma}")
    c = pi_c(gamma)
    e = gamma - 0.5
    if delta >= 0.5:
        x, w = _jacobi_reference(n, e, e)
        return x, c * w
    xl, wl = _gj_piece(-1.0, 0.0, n, e, "left")
    xs, ws = _graded_mesh(n, delta)
    xr, wr = _tail(gamma, n, delta)
    return np.concatenate([xl, xs, xr]), np.concatenate(
        [c * wl * (1.0 - xl) ** e, c * ws * (1.0 - xs * xs) ** e, wr])


@lru_cache(maxsize=512)
def profile_rule(alpha: float, n: int, delta: float = 0.5):
    """Discrete rule (nodes, weights) on (0, 1) approximating |Pi_alpha(u)| du
    for alpha in (-1, -1/2): the graded mesh, then the end piece
    _tail(alpha, n, delta).  Weights of the -1/2 du component are negative;
    integrals of nonnegative integrands still come out nonnegative.
    """
    if not -1.0 < alpha < -0.5:
        raise ValueError(f"profile regime needs alpha in (-1, -1/2), got {alpha}")
    xs, ws = _graded_mesh(n, delta)
    xt, wt = _tail(alpha, n, delta)
    return np.concatenate([xs, xt]), np.concatenate([ws * abs_profile(alpha, xs), wt])


class CornerPieces(NamedTuple):
    """A graded rule split by octave; each field is (nodes, weights).

    With J = log2(1 / (2 delta)) dyadic panels, octave 0 is the end piece
    [1 - delta, 1], octave r in 1..J the panel [1 - 2^r delta, 1 - 2^(r-1)
    delta] and octave J + 1 the coarse rest.  The tail of octave r >= 1 is
    one _tail piece on [1 - 2^(r-1) delta, 1], everything below octave r.
    """

    near: tuple  # octave 0
    panels: tuple  # (J, m) arrays, row r - 1 = octave r
    far: tuple  # octave J + 1
    tails: tuple  # (J + 1, k) arrays, row r - 1 = the tail of octave r
    uppers: tuple  # (J, k + m) arrays, row r - 1 = that tail, then octave r
    top: tuple  # the tail of octave J + 1, then octave J + 1: the whole axis


@lru_cache(maxsize=512)
def corner_pieces(gamma: float, n: int, delta: float) -> CornerPieces:
    """The graded rule of parameter gamma at n nodes and delta < 1/2 (from
    snap_delta) as CornerPieces, the 1-D pieces of the integral route's
    corner-graded rule; m = _panel_nodes(n) nodes per panel and per tail.

    Octave 0 is the graded rule's end piece, _tail(gamma, n, delta), and the
    panels are sliced from the rule.  A density axis (gamma > -1/2) slices
    density_rule: its coarse octave is the piece at -1 and the n nodes on
    [0, 1/2].  A profile axis (gamma < -1/2) is the folded rule of the
    profile term, on +-u with signed weights: octave 0 and the tails hold the
    profile's singular and -1/2 du parts, and the coarse octave holds the n
    nodes on [0, 1/2] and the -u half, far from the corner, by the ungraded
    profile rule.
    """
    levels = _levels(delta)
    m = _panel_nodes(n)
    near = _tail(gamma, n, delta)
    if gamma > -0.5:
        x, w = density_rule(gamma, n, delta)
        far, start = (x[:2 * n], w[:2 * n]), 2 * n
    else:
        x, w = profile_rule(gamma, n, delta)
        x_mid, w_mid = profile_rule(gamma, n, 0.5)
        far, start = (np.concatenate([x[:n], -x_mid]), np.concatenate([w[:n], -w_mid])), n
    # the mesh runs from [1/2, 3/4] (octave J) toward 1 (octave 1)
    panels = tuple(a[start:start + levels * m].reshape(levels, m)[::-1] for a in (x, w))
    rows = [_tail(gamma, m, math.ldexp(delta, r)) for r in range(levels + 1)]
    tails = tuple(np.stack(part) for part in zip(*rows))
    uppers = tuple(np.concatenate([t[:levels], p], axis=1) for t, p in zip(tails, panels))
    top = tuple(np.concatenate([t[levels], f]) for t, f in zip(tails, far))
    return CornerPieces(near, panels, far, tails, uppers, top)


@lru_cache(maxsize=512)
def halfline_rule(gamma: float, n: int, delta: float = 0.5):
    """Rule on (0, 1) for the measure c_gamma (1-u)^(gamma+1/2) (1+u)^(gamma-1/2) du.

    This is the (0, 1]-restricted measure of parameter gamma with one factor
    (1-u) already divided out of the integrand; it is what the symmetrized
    one-formula kernel route integrates against, and it stays integrable for
    every gamma > -1 (the prefactor c_gamma vanishes at gamma = -1/2, which
    matches the atomic degeneration).

    Returns (weights, one_minus_nodes); the second array carries 1 - u
    computed without cancellation so integrands may divide by it.
    """
    c = pi_c(gamma)
    e_in = gamma - 0.5
    e_out = gamma + 0.5
    xs, ws = _graded_mesh(n, delta)
    x, w = _jacobi_reference(n, e_out, 0.0)
    h = 0.5 * delta
    xj = (1.0 - delta) + h * (x + 1.0)
    return (np.concatenate([c * ws * (1.0 - xs) ** e_out * (1.0 + xs) ** e_in,
                            c * h ** (e_out + 1.0) * w * (1.0 + xj) ** e_in]),
            np.concatenate([1.0 - xs, h * (1.0 - x)]))

