"""The Jacobi-Poisson kernel H_t and its auxiliary companion by four routes.

H_t(theta, phi) = sum_n exp(-t |n + lam/2|) P_n(theta) P_n(phi) with
lam = alpha + beta + 1.  The companion kernel drops the absolute value in
the exponent; the two differ by the explicit correction
2^(alpha+beta+2) c_ab sinh(lam t / 2), nonzero only when lam < 0.

Routes:
  series   -- direct spectral sum (computes H), any t bounded below by
              T_MIN_SERIES; derivatives term by term;
  f4       -- companion kernel through the Appell-F4 double power series
              (all terms nonnegative), values only: swept by anti-diagonals
              when short, by one 2F1 recurrence over columns when long;
  integral -- companion kernel through the integral representation against
              the Pi measure family; t-uniform, derivative orders
              N + M <= 3, L <= 1;
  general  -- companion kernel through the symmetrized one-formula
              representation on (0, 1]^2, values only; the independent
              cross-check of the integral route.

auto takes the series from AUTO_SPLIT_T on.  Below it, a value on the
diagonal theta == phi, where every series term is nonnegative, takes the
series at each t whose truncation is at most AUTO_SERIES_TERMS terms; any
other value whose F4 columns are predicted to number at most
AUTO_F4_COLUMNS (_f4_column_estimate) is summed by them, and every other
value and every derivative takes the integral route (kernel_H_batch).  The
named methods call their route directly (kernel_eval).

t_integral_H gives int_0^inf of a theta derivative of H over t, by the
integral route's (u, v) rules with the t-integral of the integrand in
closed form: the order-1 Riesz kernel.

The integral route's four cases (i)-(iv) are the products of the two axes'
regimes (u against Pi_alpha, v against Pi_beta): each axis contributes
either its measure (density or half-atoms) or, in the profile regime, a
derivative along the axis against the profile plus the half-atoms at +-1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
import numpy as np

from jpkernel import pi_measures, specfun
from jpkernel.basis import check_integer_orders, trig_poly_table
from jpkernel.errors import (
    QuadratureError,
    SlowConvergenceError,
    TruncationError,
    UnsupportedOrderError,
)
from jpkernel.params import JacobiParams
from jpkernel.qpsi import psi_evaluator, q_value

AUTO_SPLIT_T = 0.2
T_MIN_SERIES = 5e-4
SERIES_RTOL = 1e-13
F4_RTOL = 1e-11
INTEGRAL_RTOL = 1e-9
GENERAL_RTOL = 5e-8
SERIES_CAP = 100_000
F4_EPS_CONV = 5e-4
F4_MAX_DIAGONALS = 80_000
F4_COLUMN_START = 1_024
AUTO_F4_COLUMNS = 700
AUTO_SERIES_TERMS = 5_000
_EPS = float(np.finfo(float).eps)

METHODS = ("series", "f4", "integral", "general", "auto")


@dataclass(frozen=True)
class KernelQuery:
    """One kernel evaluation request.

    deriv = (M, N, L) are derivative orders in (t, theta, phi).
    """

    t: float
    theta: float
    phi: float
    deriv: tuple = (0, 0, 0)
    method: str = "auto"

    def __post_init__(self):
        _check_t(self.t)
        check_angle_range(self.theta, self.phi)
        if not (isinstance(self.deriv, tuple) and len(self.deriv) == 3):
            raise UnsupportedOrderError(
                f"deriv must be a tuple of three integer orders (M, N, L), got {self.deriv!r}")
        M, N, L = self.deriv
        check_integer_orders(M, N, L)
        if min(M, N, L) < 0 or M + N + L > 3:
            raise UnsupportedOrderError(f"derivative orders {self.deriv} exceed M+N+L <= 3")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in ("f4", "general") and self.deriv != (0, 0, 0):
            raise UnsupportedOrderError(f"method {self.method!r} supports values only")


def _check_t(t):
    """Raise ValueError naming the first entry of t (a scalar or an array)
    that is not positive and finite."""
    t_arr = np.asarray(t, dtype=float)
    bad = t_arr[~((t_arr > 0.0) & (t_arr < math.inf))]
    if bad.size:
        raise ValueError(f"t must be positive and finite, got {bad[0]}")


def _check_angles(theta, phi):
    """Raise ValueError naming the first entry of theta or phi (each a
    scalar or an array) that is not finite."""
    for name, angle in (("theta", theta), ("phi", phi)):
        arr = np.asarray(angle, dtype=float)
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {bad[0]}")


def check_angle_range(theta, phi):
    """_check_angles, then refuse the first theta or phi entry outside [0, pi]."""
    if isinstance(theta, float) and isinstance(phi, float) and (
            0.0 <= theta <= math.pi and 0.0 <= phi <= math.pi):
        return  # two admissible floats, the common case, without the arrays
    _check_angles(theta, phi)
    for name, angle in (("theta", theta), ("phi", phi)):
        arr = np.asarray(angle, dtype=float)
        bad = arr[(arr < 0.0) | (arr > math.pi)]
        if bad.size:
            raise ValueError(f"{name} must lie in [0, pi], got {bad[0]}")


def closed_form_chebyshev(t, theta, phi):
    """H_t for alpha = beta = -1/2 in closed form (independent oracle).

    (1/pi) [1 + S(theta-phi) + S(theta+phi)],
    S(x) = (r cos x - r^2) / (1 - 2 r cos x + r^2), r = exp(-t).
    """
    r = np.exp(-np.asarray(t, dtype=float))

    def s(x):
        cx = np.cos(x)
        return (r * cx - r * r) / (1.0 - 2.0 * r * cx + r * r)

    out = (1.0 + s(theta - phi) + s(theta + phi)) / math.pi
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def _series_terms(params: JacobiParams, t_min: float, M: int, N: int, L: int) -> int:
    """Smallest n with a tail bound below SERIES_RTOL, via the crude growth bound
    n^(alpha+beta+2) on the polynomials (+1 safety in the exponent), for any
    t_min > 0 and without the cap: the truncation _series_cut checks and
    auto's diagonal rule predicts with.

    n is the fixed point of n -> (log_goal + p log n) / t_min, iterated at
    most 60 times from 20 / t_min + 20; a step that returns its own input
    has reached it, so the iteration stops there.  At large t the fixed
    point falls below one term, so the iteration takes the log of at least
    1 and the cut keeps its floor of 8 terms."""
    p = 2.0 * params.sigma + 3.0 * (N + L) + M + 1.0
    log_goal = math.log(1.0 / SERIES_RTOL) + math.log(1.0 / -math.expm1(-t_min)) + 1.0
    n = 20.0 / t_min + 20.0
    for _ in range(60):
        step = (log_goal + p * math.log(max(n, 1.0))) / t_min
        if step == n:
            break
        n = step
    return max(int(math.ceil(n)), 8)


def _series_cut(params: JacobiParams, t_min: float, M: int, N: int, L: int) -> int:
    """_series_terms, refused with TruncationError below T_MIN_SERIES or
    above SERIES_CAP terms."""
    if t_min < T_MIN_SERIES:
        raise TruncationError(f"series route needs t >= {T_MIN_SERIES}, got {t_min}")
    n = _series_terms(params, t_min, M, N, L)
    if n > SERIES_CAP:
        raise TruncationError(
            f"series truncation needs {n} terms (cap {SERIES_CAP}) at t={t_min}"
        )
    return n


def series_H(params: JacobiParams, t, theta: float, phi, M=0, N=0, L=0):
    """H and derivatives by the spectral series.

    t may be an array of any shape, empty included, and independently phi
    may be an array; the result has shape t.shape + phi.shape (scalar axes
    squeezed).
    """
    t_arr = np.asarray(t, dtype=float).ravel()
    _check_t(t_arr)
    _check_angles(theta, phi)
    check_integer_orders(M, N, L)
    if min(M, N, L) < 0:
        raise UnsupportedOrderError(f"derivative orders (M, N, L) must be nonnegative, got {(M, N, L)}")
    if not t_arr.size:
        return np.empty(np.shape(t) + np.shape(phi))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    n_cut = _series_cut(params, float(t_arr.min()), M, N, L)
    rates = params.rates(n_cut)
    left = trig_poly_table(params, n_cut, np.float64(theta), order=N)[:, None]
    if np.ndim(phi) == 0 and phi == theta and L == N:
        coef = left * left  # phi's table is theta's, bit for bit
    else:
        coef = left * trig_poly_table(params, n_cut, phi_arr, order=L)
    if M > 0:
        coef = coef * ((-rates) ** M)[:, None]
    vals = (np.exp(-np.outer(t_arr, rates)) @ coef).reshape(np.shape(t) + np.shape(phi))
    return float(vals) if np.ndim(vals) == 0 else vals


# ---------------------------------------------------------------------------
# F4 route
# ---------------------------------------------------------------------------

def h_script_f4(params: JacobiParams, t: float, theta: float, phi: float) -> float:
    """Companion kernel via the Appell-F4 double series F4(a, b; c, c'; x, y),
    a = sigma/2, b = (sigma+1)/2, c = alpha+1, c' = beta+1, whose terms
    T(m, n) = (a)_{m+n} (b)_{m+n} x^m y^n / ((c)_m (c')_n m! n!) are all
    nonnegative and decay geometrically with ratio
    rho^2 = (sqrt x + sqrt y)^2 = (cos((theta-phi)/2) / cosh(t/2))^2.

    Switch.  If the geometric estimate of the anti-diagonal count,
    ln F4_RTOL / ln rho^2, is below F4_COLUMN_START, the series is swept
    along its anti-diagonals (_f4_sweep, O(s) work for diagonal s, with the
    arithmetic of tests/_f4_reference.py).  The real count exceeds the
    estimate by 3% near the diagonal and by up to 60% on an axis at large
    sigma (1,643 at alpha = beta = 5, theta = 0); the compare golden takes
    at most 419.  A longer series is summed by columns at O(1) work each
    (_f4_columns), over the powers of the smaller of x and y, swapping
    (c, x) and (c', y), under which F4 is symmetric: at alpha = -1/2,
    beta = 1/2, (t, theta, phi) = (0.02, 2.9, 3.0) that is 108 columns
    against 9,950.

    Columns (Burchnall & Chaundy, Quart. J. Math. 11, 1940).  F4 = sum_m u_m,
    u_m = (a)_m (b)_m / ((c)_m m!) x^m f_m, f_m = 2F1(a+m, b+m; c'; y), and
    at A = a+m, B = b+m, S = A+B-c',
        (1-y)^2 f_{m+1} + (q0 + q1 y) f_m + r0 f_{m-1} = 0,
        q0 = -S (2AB - (A+B) c' + c'^2 - c') / (AB (S-1)),
        q1 = -S (A^2 + B^2 - (A+B) c' + c' - 1) / (AB (S-1)),
        r0 = (A-c')(B-c')(S+1) / (AB (S-1)).
    f_m is the growing solution, like (1 - sqrt y)^(-2m) against
    (1 + sqrt y)^(-2m), so the forward recurrence is stable.
    - Start: f_0 and f_1 from specfun.hyp2f1, the recurrence from m = 1.
      There S - 1 = gamma + 1/2 + 2m >= 3/2, gamma > -1 the summed axis's
      alpha or beta; at m = 0 it is gamma + 1/2, and at gamma = -1/2 + 1e-12
      a step from m = 0 put f_1 1e-4 off.
    - Scale: f_m alone would overflow a double past m ~ 390 at y = 0.36,
      where the sum takes 9,698 columns.  So the recurrence carries the
      terms u_m, which stay below the sum: each step folds in the ratio
      k_m = AB x / ((c+m)(m+1)) of their coefficients, whose AB cancels that
      of q0, q1 and r0.

    Stop.  Both forms stop after a nonincreasing block B (a diagonal or a
    column) past the fifth with B 2 rho^2 / (1 - rho^2) <= F4_RTOL times the
    running sum.  The columns' own ratio tends to (sqrt x / (1 - sqrt y))^2
    <= rho^2, so the rule is conservative for them.  F4_MAX_DIAGONALS caps
    either count.
    """
    _check_t(t)
    _check_angles(theta, phi)
    (a, b, c, c2, x, y, geo), rho2, prefactor = _f4_head(params, t, theta, phi)
    # ln F4_RTOL / ln rho^2 < F4_COLUMN_START, without a log of rho = 0
    if rho2 < F4_RTOL ** (1.0 / F4_COLUMN_START):
        total = _f4_sweep(a, b, c, c2, x, y, geo)
    else:
        total = _f4_oriented_columns(a, b, c, c2, x, y, geo)
    return prefactor * total


def _f4_head(params, t, theta, phi):
    """What both F4 forms need at one point: the arguments (a, b, c, c', x,
    y, geo) of h_script_f4's sums, rho^2, and the prefactor
    c_ab sinh(t/2) / cosh(t/2)^sigma that multiplies F4.  Raises
    SlowConvergenceError outside the domain rho < 1 - F4_EPS_CONV."""
    ch = math.cosh(0.5 * t)
    sx = math.sin(0.5 * theta) * math.sin(0.5 * phi) / ch
    sy = math.cos(0.5 * theta) * math.cos(0.5 * phi) / ch
    x, y = sx * sx, sy * sy
    rho = sx + sy  # = cos((theta-phi)/2) / cosh(t/2) < 1
    if rho >= 1.0 - F4_EPS_CONV:
        raise SlowConvergenceError(
            f"F4 series too close to its convergence boundary: "
            f"cos((theta-phi)/2)/cosh(t/2) = {rho:.8f} >= {1.0 - F4_EPS_CONV}"
        )
    a = 0.5 * params.sigma
    b = 0.5 * (params.sigma + 1.0)
    c = params.alpha + 1.0
    c2 = params.beta + 1.0
    rho2 = rho * rho
    geo = 2.0 * rho2 / (1.0 - rho2)
    return (a, b, c, c2, x, y, geo), rho2, params.c_ab * math.sinh(0.5 * t) / ch**params.sigma


def _f4_oriented_columns(a, b, c, c2, x, y, geo):
    """_f4_columns over the powers of the smaller of x and y."""
    if x <= y:
        return _f4_columns(a, b, c, c2, x, y, geo)
    return _f4_columns(a, b, c2, c, y, x, geo)


def _f4_column_estimate(t, theta, phi):
    """The column count _f4_columns is predicted to take at each t of an
    array, before any work: ln F4_RTOL / ln r, with r = (s_lo / (1 -
    s_hi))^2 the columns' limiting ratio, where s_lo and s_hi are the
    smaller and larger of sqrt x and sqrt y; inf outside F4's domain
    rho = s_lo + s_hi < 1 - F4_EPS_CONV, and 0 where s_lo = 0."""
    ch = np.array([math.cosh(0.5 * s) for s in t.tolist()])  # as _f4_head rounds it
    sx = math.sin(0.5 * theta) * math.sin(0.5 * phi) / ch
    sy = math.cos(0.5 * theta) * math.cos(0.5 * phi) / ch
    s_lo, s_hi = np.minimum(sx, sy), np.maximum(sx, sy)
    inside = s_lo + s_hi < 1.0 - F4_EPS_CONV
    with np.errstate(divide="ignore"):
        log_r = 2.0 * np.log(s_lo / (1.0 - s_hi), where=inside, out=np.full_like(ch, -np.inf))
    return np.where(inside, math.log(F4_RTOL) / log_r, math.inf)


def _f4_sweep(a, b, c, c2, x, y, geo):
    """F4(a, b; c, c2; x, y) summed along whole anti-diagonals s.

    Row s holds T(m, s-m) as mantissa * exp(logw) per column m: the pure-x
    edge underflows double range long before its column stops mattering,
    so magnitudes are carried in log space and the mantissas renormalized
    every 32 diagonals.  A new column takes its left neighbour's logw, so
    each renormalization fills logw and ew = exp(logw) for the columns the
    next 32 diagonals add.  The buffers are allocated untouched, so only the
    pages of the live columns are used.  den[n] = (c2 + n)(n + 1) is the
    y-step denominator of y-power n, read backwards along a row.  Each entry
    is rounded as row[m] * ((fac y) / den[s - m]); folding fac into den or
    multiplying by 1/den would change the last bit against the plain loop
    that tests/_f4_reference.py keeps.
    """
    renorm_every = 32
    K = F4_MAX_DIAGONALS
    row, nxt, tmp, logw, ew, den = np.empty((6, K + 2))
    row[0] = 1.0
    logw[: renorm_every + 1], ew[: renorm_every + 1] = 0.0, 1.0
    total = 1.0
    prev_block = 1.0
    for s in range(K):
        fac = (a + s) * (b + s)
        den[s] = (c2 + s) * (s + 1.0)
        np.divide(fac * y, den[s::-1], out=tmp[: s + 1])
        np.multiply(row[: s + 1], tmp[: s + 1], out=nxt[: s + 1])
        nxt[s + 1] = row[s] * (fac * x / ((c + s) * (s + 1.0)))
        block = float(np.dot(nxt[: s + 2], ew[: s + 2]))
        total += block
        if s >= 4 and block <= prev_block and block * geo <= F4_RTOL * total:
            return total
        prev_block = block
        row, nxt = nxt, row
        if (s + 1) % renorm_every == 0:
            live, lw = row[: s + 2], logw[: s + 2]
            pos = live > 0.0
            np.add(lw, np.log(live, where=pos, out=tmp[: s + 2]), out=lw, where=pos)
            np.copyto(live, pos)
            with np.errstate(under="ignore"):
                np.exp(lw, out=ew[: s + 2])
            logw[s + 2: s + renorm_every + 2] = logw[s + 1]
            ew[s + 2: s + renorm_every + 2] = ew[s + 1]
    raise SlowConvergenceError(f"F4 series did not converge in {F4_MAX_DIAGONALS} blocks")


def _f4_columns(a, b, c, c2, x, y, geo):
    """F4(a, b; c, c2; x, y) summed by columns over the powers of x, each
    from the last two by h_script_f4's recurrence on the terms u_m."""
    k_prev = a * b * x / c  # k_{m-1}
    prev = float(specfun.hyp2f1(a, b, c2, y))
    cur = k_prev * float(specfun.hyp2f1(a + 1.0, b + 1.0, c2, y))
    total = prev + cur
    prev_block = cur
    w = x / (1.0 - y) ** 2
    for m in range(1, F4_MAX_DIAGONALS):
        A, B = a + m, b + m
        S = A + B - c2
        p = S * (2.0 * A * B - (A + B) * c2 + c2 * (c2 - 1.0)
                 + (A * A + B * B - (A + B) * c2 + c2 - 1.0) * y)
        r = (A - c2) * (B - c2) * (S + 1.0) * k_prev
        nxt = w * (p * cur - r * prev) / ((S - 1.0) * (c + m) * (m + 1.0))
        total += nxt
        if m >= 4 and nxt <= prev_block and nxt * geo <= F4_RTOL * total:
            return total
        prev_block = nxt
        prev, cur = cur, nxt
        k_prev = A * B * x / ((c + m) * (m + 1.0))
    raise SlowConvergenceError(f"F4 series did not converge in {F4_MAX_DIAGONALS} blocks")


# ---------------------------------------------------------------------------
# integral route
# ---------------------------------------------------------------------------

BASE_NODES = 24
MAX_DOUBLINGS = 2
# Psi is evaluated in pieces of about this many elements (1 MB, inside a
# core's L2 cache): blocks of whole t rows, or slices of one row.
_BLOCK_ELEMS = 2**17


def _pq(theta: float, phi: float):
    p = math.sin(0.5 * theta) * math.sin(0.5 * phi)
    q = math.cos(0.5 * theta) * math.cos(0.5 * phi)
    return p, q


def _grading_delta(t_min: float, theta: float, phi: float, coupling: float,
                   floor: float = pi_measures.DELTA_FLOOR, corner=(1.0, 1.0)) -> float:
    """Mesh grading scale toward the node 1 of one integration axis.

    The integrand varies on scale d / coupling in (1 - u), where d is D at
    the corner (u, v) = corner = (xi, eta) that the axis runs toward:
    d = cosh(t/2) - 1 + (1 - xi p - eta c), which is 2 sin^2((theta-phi)/4)
    at (+, +), 2 cos^2((theta-phi)/4) at (-, -), 2 cos^2((theta+phi)/4) at
    (+, -) and 2 sin^2((theta+phi)/4) at (-, +), plus cosh(t/2) - 1.  The
    integral route grades toward (+, +), where d is smallest.
    """
    xi, eta = corner
    trig = math.sin if eta > 0.0 else math.cos
    d_min = (math.cosh(0.5 * t_min) - 1.0) + 2.0 * trig(0.25 * (theta - xi * eta * phi)) ** 2
    if coupling <= 0.0:
        return 0.5
    return pi_measures.snap_delta(max(0.25 * d_min / coupling, floor))


def _grading(params, t_min, theta, phi, delta_floor):
    """(delta_u, delta_v): the integral route's grading of its u and v axes
    for t >= t_min (_grading_delta toward the corner (1, 1)).  An atomic
    axis (gamma = -1/2) has no rule to grade and reports 1/2."""
    return tuple(0.5 if gamma == -0.5 else _grading_delta(t_min, theta, phi, coupling, delta_floor)
                 for gamma, coupling in zip((params.alpha, params.beta), _pq(theta, phi)))


def _axis_terms(gamma: float, n: int, delta: float):
    """Terms (nodes, weights, derivative order, pieces) of one integration
    axis, by the regime of its parameter gamma.

    A density axis (gamma > -1/2) integrates psi against the density rule,
    an atomic one (gamma = -1/2) against the half-atoms at -1 and 1.  A
    profile axis (gamma < -1/2) integrates the axis derivative of psi
    against the profile rule, folded onto +-u as one stacked tensor with
    signed weights, and adds psi at the half-atoms at 1 and -1.  pieces is
    the graded rule split by octave (pi_measures.corner_pieces) for a
    density or profile term graded toward 1 (delta < 1/2), else None.
    """
    if gamma == -0.5:
        return [(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0, None)]
    pieces = None if delta >= 0.5 else pi_measures.corner_pieces(gamma, n, delta)
    if gamma > -0.5:
        return [pi_measures.density_rule(gamma, n, delta) + (0, pieces)]
    nodes, weights = pi_measures.profile_rule(gamma, n, delta)
    return [(np.concatenate([nodes, -nodes]), np.concatenate([weights, -weights]), 1, pieces),
            (np.array([1.0, -1.0]), np.array([0.5, 0.5]), 0, None)]


def _row_sums(vals, with_mass):
    """(sum_k vals[t, k], sum_k |vals[t, k]|) for each t row of vals
    (weighted evaluator output, overwritten); the second is None unless
    with_mass.

    Each sum is one ndarray.sum over a row, i.e. numpy's pairwise
    summation, whose order is fixed by the row length (left to right below
    eight terms), so a row's sums do not depend on how many rows vals
    holds.  einsum picks its order inside numpy, so its last bit depends on
    the build.
    """
    total = vals.sum(axis=1)
    return total, np.abs(vals, out=vals).sum(axis=1) if with_mass else None


def _layer(pieces, r):
    """(octave r, its tail, the tail then the octave) of one axis's
    CornerPieces, r > 0; past the axis's depth (None, top, top)."""
    levels = len(pieces.panels[0])
    if r <= levels:
        return tuple((part[0][r - 1], part[1][r - 1])
                     for part in (pieces.panels, pieces.tails, pieces.uppers))
    if r == levels + 1:
        return pieces.far, (pieces.tails[0][levels], pieces.tails[1][levels]), pieces.top
    return None, pieces.top, pieces.top


def _flatten(cells):
    """The cells of a (u, v) rule, each a pair of rule stacks ((un, uw),
    (vn, vw)) with one row per cell, as one flat point cloud (u, v, w): cell
    after cell, each flattened u-major with weights uw[i] vw[j]."""
    cloud = np.empty((3, sum(uw.size * vw.shape[1] for (_, uw), (_, vw) in cells)))
    start = 0
    for (un, uw), (vn, vw) in cells:
        shape = (len(uw), uw.shape[1], vw.shape[1])
        cu, cv, cw = cloud[:, start:start + math.prod(shape)].reshape((3,) + shape)
        cu[...] = un[:, :, None]
        cv[...] = vn[:, None, :]
        np.multiply(uw[:, :, None], vw[:, None, :], out=cw)
        start += math.prod(shape)
    return cloud


def _corner_cloud(u, v):
    """The corner-graded rule of two graded axes, each given as
    pi_measures.CornerPieces, as one flat point cloud (_flatten).

    D = cosh(t/2) - 1 + q is small only near the corner (u, v) = (1, 1),
    where (1 - u) p and (1 - v) c are both small; each axis's delta is
    d_min / 4 over its coupling (_grading_delta), so in octave r of either
    axis that term of D is about 2^r d_min / 4.  The square is the union,
    over r, of the L-shaped layers where the larger octave is r: octave_u(r)
    x (tail_v(r), octave_v(r)) and tail_u(r) x octave_v(r), the tail being
    every octave below r.  Where one axis sits in octave r, D is at least
    about 2^r d_min / 8 and the other axis's integrand varies on a scale no
    shorter than its tail, so the tail's one Gauss-Jacobi piece resolves it
    (Schwab's geometric corner meshes).  Past an axis's depth J, its whole
    rule stands in for its tail, with one tail piece for octaves 0..J
    (CornerPieces.top): the other axis's D keeps it smooth there.  The
    layers r = 1..min(J_u, J_v) have equal shapes and are filled at once,
    as stacks of cells: each rule of a cell pair has one row per cell.
    """
    def row(rule):  # one cell's rule, as a one-row stack of cells
        return rule[0][None], rule[1][None]

    depth = min(len(u.panels[0]), len(v.panels[0]))
    cells = [(row(u.near), row(v.near)),
             (tuple(a[:depth] for a in u.panels), tuple(a[:depth] for a in v.uppers)),
             (tuple(a[:depth] for a in u.tails), tuple(a[:depth] for a in v.panels))]
    for r in range(depth + 1, max(len(u.panels[0]), len(v.panels[0])) + 2):
        u_oct, u_tail, _ = _layer(u, r)
        v_oct, _, v_upper = _layer(v, r)
        if u_oct is not None:
            cells.append((row(u_oct), row(v_upper)))
        if v_oct is not None:
            cells.append((row(u_tail), row(v_oct)))
    return _flatten(cells)


def _integral_terms(params, grading, n_nodes):
    """The double sums of the integral representation at n_nodes base nodes
    under grading = (delta_u, delta_v) (_grading): the products of the u
    and v axes' terms, u-major, as (u nodes, v nodes, weights, K, R), each
    term one flat point cloud of three 1-D arrays of one length.

    Two graded axes take the corner-graded rule (_corner_cloud).  A term
    with an ungraded or atomic axis is one cell, the two axes' tensor,
    flattened u-major.  The clouds are built per call from the cached 1-D
    pieces.
    """
    u_terms = _axis_terms(params.alpha, n_nodes, grading[0])
    v_terms = _axis_terms(params.beta, n_nodes, grading[1])
    terms = []
    for un, uw, K, u_pieces in u_terms:
        for vn, vw, R, v_pieces in v_terms:
            if u_pieces is None or v_pieces is None:
                cloud = _flatten([((un[None], uw[None]), (vn[None], vw[None]))])
            else:
                cloud = _corner_cloud(u_pieces, v_pieces)
            terms.append(tuple(cloud) + (K, R))
    return terms


class _Workspace:
    """One float buffer that a route call lends to every resolution and
    every block it evaluates, grown when a piece needs more.  Blocks then
    do not page-fault in fresh memory, as they would if each allocated its
    own: the allocator hands equal-size arrays back to the system.  It
    belongs to the call, because the evaluators are shared between threads.
    """

    def __init__(self):
        self._buf = np.empty(0)

    def views(self, *shapes):
        """Disjoint views of the buffer, one of each shape."""
        sizes = [math.prod(shape) for shape in shapes]
        if self._buf.size < sum(sizes):
            self._buf = np.empty(sum(sizes))
        out, lo = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(self._buf[lo:lo + size].reshape(shape))
            lo += size
        return out


def _graded_bands(params, t_arr, theta, phi, delta_floor):
    """The bands of a t batch that share one grading, as ((delta_u,
    delta_v), indices into t_arr) in increasing t.

    The batch splits into log-bands [lo, 4 lo) from its smallest t on (the
    last band takes the rest), and each band is graded by its own smallest
    t (_grading): small t needs deep grading that larger t should not pay
    for.  Where 2 sin^2((theta-phi)/4) outweighs cosh(t/2) - 1, consecutive
    bands snap to the same (delta_u, delta_v) (an atomic axis reports 1/2 in
    every band); such a run is one band under that grading, so its terms
    are built once.
    """
    runs = []  # (grading, the run's log-bands)
    t_max = float(t_arr.max())
    lo = float(t_arr.min())
    while True:
        hi = lo * 4.0
        band = np.flatnonzero((t_arr >= lo) & ((t_arr < hi) | (hi >= t_max)))
        if band.size:
            grading = _grading(params, float(t_arr[band].min()), theta, phi, delta_floor)
            if runs and runs[-1][0] == grading:
                runs[-1][1].append(band)
            else:
                runs.append((grading, [band]))
        if hi >= t_max:
            return [(grading, np.concatenate(bands)) for grading, bands in runs]
        lo = hi


def _integral_sum(params, t_arr, theta, phi, evaluate, delta_floor, n_nodes, with_mass, space):
    """The integral representation's double sums over a t batch at one
    resolution, and the sum of |w f| over the quadrature terms of each t
    (its roundoff scale), or None unless with_mass.

    evaluate(t_block, u, v, K, R, out, work) fills out with the integrand f
    on a (t, point) block of the term with axis orders (K, R), forming
    its D in work: psi at the route's derivative orders (h_script_integral),
    or its t-integral on a one-row batch at t = 0 (t_integral_H).

    The batch is evaluated band by band (_graded_bands): consecutive
    log-bands whose snapped gradings agree share one term build and one run
    of blocks, and every t keeps the grading of its own log-band.  Each
    band's grading is passed through to _integral_terms, which builds the
    terms from it and the node count alone.

    Within a band, each term fills blocks of whole t rows;
    a row of more than _BLOCK_ELEMS points is a block alone and is filled
    in slices of its points.  Psi and the weighting run on pieces of about
    _BLOCK_ELEMS elements, in psi's out and work buffers, views of space
    (the route call's _Workspace), so memory stays bounded by the largest
    row.  Every element is computed as on the full (t, point) array, each t
    sums its terms in the same order and each row sum is over the whole
    row, so the values do not depend on the blocking.
    """
    out = np.zeros_like(t_arr)
    mass = np.zeros_like(t_arr) if with_mass else None
    for grading, band in _graded_bands(params, t_arr, theta, phi, delta_floor):
        t_band = t_arr[band].reshape(-1, 1)
        for u, v, w, K, R in _integral_terms(params, grading, n_nodes):
            rows = min(band.size, max(1, _BLOCK_ELEMS // w.size))
            cols = min(w.size, _BLOCK_ELEMS)
            buf, work = space.views((rows, w.size), (rows, cols))
            for start in range(0, band.size, rows):
                tb = t_band[start:start + rows]
                vals = buf[:len(tb)]
                for i in range(0, w.size, cols):
                    piece = vals[:, i:i + cols]
                    evaluate(tb, u[i:i + cols], v[i:i + cols], K, R, piece,
                             work[:len(tb), :piece.shape[1]])
                    piece *= w[i:i + cols]
                sums, abs_sums = _row_sums(vals, with_mass)
                block = band[start:start + rows]
                out[block] += sums
                if with_mass:
                    mass[block] += abs_sums
    return out, mass


def _check_resolution(base_nodes, max_doublings, delta_floor):
    """Raise ValueError unless base_nodes is an integer >= 1, max_doublings
    an integer >= 0 and pi_measures.DELTA_FLOOR <= delta_floor <= 1/2
    (snap_delta would clamp a smaller floor silently, and a larger one
    turns the grading off)."""
    for name, value in (("base_nodes", base_nodes), ("max_doublings", max_doublings)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not base_nodes >= 1:
        raise ValueError(f"base_nodes must be at least 1, got {base_nodes}")
    if not max_doublings >= 0:
        raise ValueError(f"max_doublings must be nonnegative, got {max_doublings}")
    if not pi_measures.DELTA_FLOOR <= delta_floor <= 0.5:
        raise ValueError(f"delta_floor must lie in [2^{math.log2(pi_measures.DELTA_FLOOR):.0f}, "
                         f"1/2], got {delta_floor}")


def _refine(once, rtol, route, point, terms, base_nodes=BASE_NODES,
            max_doublings=MAX_DOUBLINGS):
    """The acceptance rule of both quadrature routes.  once(n, with_mass,
    space) evaluates a route at n base nodes in space, the call's one
    _Workspace: (values, sum|terms| or None unless with_mass).
    max_doublings = 0 trusts n = base_nodes alone; otherwise n doubles until
    two successive values agree to rtol times their largest magnitude.
    Agreement is refused when eps * sum|terms| exceeds that bound (the value
    is a cancellation of far larger terms: its roundoff floor lies above
    rtol), and so is a non-finite value (D underflows to 0 at the
    singularity), without a RuntimeWarning.  route, point and terms word the
    messages.
    """
    space = _Workspace()

    def resolve(n, with_mass):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals, mass = once(n, with_mass, space)
        if not np.isfinite(vals).all():
            raise QuadratureError(
                f"{route} hit the integrand's singularity: non-finite value for {point}"
            )
        return vals, mass

    n = base_nodes
    prev, _ = resolve(n, with_mass=False)
    if max_doublings == 0:
        return prev
    for _ in range(max_doublings):
        n *= 2
        cur, mass = resolve(n, with_mass=True)
        scale = float(np.abs(cur).max()) or 1e-300
        if np.abs(cur - prev).max() <= rtol * scale:
            cond = float(np.max(mass)) / scale
            if _EPS * cond > rtol:
                raise QuadratureError(
                    f"{route} cannot reach rtol={rtol:g}: condition number "
                    f"sum|{terms}|/|value| = {cond:.3g} puts its roundoff floor at "
                    f"{_EPS * cond:.3g}, for {point}"
                )
            return cur
        prev = cur
    raise QuadratureError(f"{route} did not stabilize at {n} nodes per piece for {point}")


def _refuse_negative_d(t, theta, phi, corners, route, point):
    """Refuse a D that rounds below zero at t and a corner (xi, eta) of
    corners, formed as the integrand forms it (np.cosh and qpsi's q): p + c
    rounds above 1 at tiny t, and the float integrand's values, with no
    singularity left, are garbage the doubling check can pass.  At tiny t
    math.cosh, which h_script_general's own guard uses, rounds below np.cosh
    for some t and above it for others, so that route needs both guards."""
    for xi, eta in corners:
        d = float(np.cosh(0.5 * t) - 1.0 + q_value(theta, phi, xi, eta))
        if d < 0.0:
            raise QuadratureError(f"{route} cannot resolve the singularity: D at a corner "
                                  f"rounds to {d:.3g} < 0 for {point}")


def h_script_integral(params: JacobiParams, t, theta: float, phi: float, deriv=(0, 0, 0),
                      rtol=INTEGRAL_RTOL, base_nodes=BASE_NODES,
                      max_doublings=MAX_DOUBLINGS, delta_floor=pi_measures.DELTA_FLOOR):
    """Companion kernel (and derivatives) via the integral representation.

    deriv = (M, N, L); N + M <= 3 and L <= 1 are supported.  Node counts
    double from base_nodes, at most max_doublings times, under the
    acceptance rule of _refine; max_doublings = 0 trusts a single
    resolution (scan mode, order-of-magnitude targets).  A batch whose D at
    the corner (u, v) = (1, 1) rounds below zero at its smallest t is
    refused.  The terms are summed in a fixed order, so values do not
    depend on the numpy build.  t may be a scalar or an array of any shape,
    empty included; an array t gives an array of its shape.
    """
    M, N, L = deriv
    check_integer_orders(M, N, L)
    if L not in (0, 1) or N < 0 or M < 0 or N + M > 3:
        raise UnsupportedOrderError(
            f"integral route supports L <= 1 and N + M <= 3, got {deriv}"
        )
    t_arr = np.asarray(t, dtype=float).ravel()
    _check_t(t_arr)
    _check_angles(theta, phi)
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    _check_resolution(base_nodes, max_doublings, delta_floor)
    if not t_arr.size:
        return np.empty(np.shape(t))
    route = f"integral route (alpha={params.alpha}, beta={params.beta}, deriv={deriv})"
    point = f"t_min={t_arr.min():g}, theta={theta:g}, phi={phi:g}"
    _refuse_negative_d(t_arr.min(), theta, phi, ((1.0, 1.0),), route, point)
    psi = psi_evaluator(params)

    def evaluate(t_block, u, v, K, R, out, work):
        return psi(t_block, theta, phi, u, v, K=K, R=R, L=L, N=N, M=M, out=out, work=work)

    once = partial(_integral_sum, params, t_arr, theta, phi, evaluate, delta_floor)
    vals = _refine(once, rtol, route, point, "w psi", base_nodes, max_doublings)
    return vals.reshape(np.shape(t)) if np.ndim(t) else float(vals[0])


def t_integral_H(params: JacobiParams, theta: float, phi: float, N: int, L: int,
                 base_nodes=BASE_NODES, max_doublings=MAX_DOUBLINGS,
                 delta_floor=pi_measures.DELTA_FLOOR) -> float:
    """int_0^inf d_theta^N d_phi^L H_t dt, 1 <= N <= 3 and L <= 1 (the
    integral route's orders), off the diagonal: the integral representation
    with its t-integral taken exactly (PsiEvaluator.t_integral), one (u, v)
    quadrature.  The sinh correction has no theta derivative, so this is the
    companion kernel's integral.  It is the integral route's _integral_sum
    on a one-row batch at t = 0, so its axes are graded by d_min =
    2 sin^2((theta-phi)/4) and it shares that route's clouds, point slicing
    and fixed-order row sums; node counts double from base_nodes under the
    acceptance rule of _refine at INTEGRAL_RTOL.  base_nodes, max_doublings
    and delta_floor are h_script_integral's, with its defaults (the
    operator kernels' presets pass theirs by keyword).  On the diagonal the
    integral diverges, and a D that rounds below zero at the corner
    (u, v) = (1, 1) is refused, as on the integral route.
    """
    check_integer_orders(N, L)
    if not (1 <= N <= 3 and L in (0, 1)):
        raise UnsupportedOrderError(
            f"t-integral route supports 1 <= N <= 3 and L <= 1, got N={N}, L={L}")
    _check_angles(theta, phi)
    _check_resolution(base_nodes, max_doublings, delta_floor)
    if theta == phi:
        raise ValueError(f"the t-integral of H diverges on the diagonal theta = phi = {theta}")
    route = f"t-integral route (alpha={params.alpha}, beta={params.beta}, N={N}, L={L})"
    point = f"theta={theta:g}, phi={phi:g}"
    _refuse_negative_d(0.0, theta, phi, ((1.0, 1.0),), route, point)
    psi = psi_evaluator(params)

    def evaluate(t_block, u, v, K, R, out, work):
        return psi.t_integral(theta, phi, u, v, K=K, R=R, L=L, N=N, out=out, work=work)

    once = partial(_integral_sum, params, np.zeros(1), theta, phi, evaluate, delta_floor)
    return float(_refine(once, INTEGRAL_RTOL, route, point, "w f", base_nodes, max_doublings)[0])


# ---------------------------------------------------------------------------
# general (symmetrized one-formula) route
# ---------------------------------------------------------------------------

# The corners (xi, eta) of the symmetrized representation, in the order their
# corner terms are summed: at alpha = beta = -1/2 that sum is the whole value.
_CORNERS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def _general_once(params, t, theta, phi, corner_ds, n_nodes, with_mass, space):
    """The symmetrized representation at one resolution, and the sum of the
    absolute values of its terms (its roundoff scale), or None unless
    with_mass.

    corner_ds holds D at each corner (u, v) = (xi, eta) of _CORNERS.  Each
    corner contributes its value at D(xi, eta) = d, the
    single-axis brackets Psi(xi u, eta) - Psi(xi, eta) and
    Psi(xi, eta v) - Psi(xi, eta) against one half-line rule each, and the
    double bracket against their product, all divided by the (1 - u) and
    (1 - v) that the rules take out of the measures.  With
    D(xi u, eta v) = d + xi (1-u) p + eta (1-v) c, each corner grades its
    axes by its own d (see _grading_delta).  d is small at (+, +) near the
    diagonal, at (-, +) and (+, -) only as theta + phi nears 0 or 2 pi, and
    never at (-, -), so most corners take shallow rules.

    The division is folded into the weights, uw / (1-u) and vw / (1-v), and
    a corner's (nu x nv) double bracket is formed in place in space, the
    route call's _Workspace: the ratio
    eta (1-v) c / D(xi u, eta), log1p, the factor -sigma, expm1, the row
    factor D(xi u, eta)^(-sigma), and the single bracket over v subtracted.
    Each single bracket comes from expm1/log1p without cancellation; what
    cancels is the subtraction and the sum of the terms, which the mass
    measures.  The cost is one elementwise pass of six operations per node
    pair of each corner, plus the two matrix-vector products of the
    contraction (and one abs pass and two more with_mass).
    """
    sigma = params.sigma
    scale = 0.25 * params.c_ab * math.sinh(0.5 * t)
    P, Q = _pq(theta, phi)
    value = corner = mass = 0.0
    for (xi, eta), d11 in zip(_CORNERS, corner_ds):
        d_pow = d11 ** (-sigma)
        corner += scale * d_pow
        uw, omu = pi_measures.halfline_rule(
            params.alpha, n_nodes, _grading_delta(t, theta, phi, P, corner=(xi, eta)))
        vw, omv = pi_measures.halfline_rule(
            params.beta, n_nodes, _grading_delta(t, theta, phi, Q, corner=(xi, eta)))
        a, b = uw / omu, vw / omv
        inc_u, inc_v = xi * P * omu, eta * Q * omv
        su = d_pow * np.expm1(-sigma * np.log1p(inc_u / d11))
        sv = d_pow * np.expm1(-sigma * np.log1p(inc_v / d11))
        [work] = space.views((a.size, b.size))
        d_u = (d11 + inc_u).reshape(-1, 1)  # D(xi u, eta), a column over u
        np.divide(inc_v, d_u, out=work)
        np.log1p(work, out=work)
        work *= -sigma
        np.expm1(work, out=work)
        work *= d_u ** (-sigma)
        work -= sv
        value += scale * (4.0 * (a @ work @ b) + 2.0 * (a @ su) + 2.0 * (b @ sv))
        if with_mass:
            abs_a, abs_b = np.abs(a), np.abs(b)
            mass += abs(scale * d_pow) + abs(scale) * (
                4.0 * (abs_a @ np.abs(work, out=work) @ abs_b)
                + 2.0 * (abs_a @ np.abs(su)) + 2.0 * (abs_b @ np.abs(sv)))
    return value + corner, mass if with_mass else None


def h_script_general(params: JacobiParams, t: float, theta: float, phi: float) -> float:
    """Companion kernel via the symmetrized representation over (0, 1]^2.

    The independent cross-check of h_script_integral; value only.  Each
    corner is graded by its own distance to the singularity (see
    _general_once), and node counts double from BASE_NODES under the
    acceptance rule of _refine, which the integral route shares.  A corner
    whose D rounds below zero, in the integrand's form or in the route's
    own, is refused.  Its rtol, GENERAL_RTOL, sits at the route's
    cancellation floor (large alpha + beta + 2 near the diagonal).
    """
    _check_t(t)
    _check_angles(theta, phi)
    route, point = "general route", f"t={t:g}, theta={theta:g}, phi={phi:g}"
    _refuse_negative_d(t, theta, phi, _CORNERS, route, point)
    C = math.cosh(0.5 * t)
    P, Q = _pq(theta, phi)
    corner_ds = [(C - 1.0) + (1.0 - xi * P - eta * Q) for xi, eta in _CORNERS]
    if min(corner_ds) < 0.0:  # raised to the power -sigma below
        raise QuadratureError(f"{route}: D at a corner rounds below zero for {point}")
    return _refine(partial(_general_once, params, t, theta, phi, corner_ds), GENERAL_RTOL, route,
                   point, "terms")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def jph_correction(params: JacobiParams, t, M: int = 0):
    """The explicit sinh correction turning the companion kernel into H.

    Zero when alpha + beta >= -1; its theta/phi derivatives vanish
    identically, t-derivatives (M, a nonnegative integer) are exact.
    """
    check_integer_orders(M)
    if M < 0:
        raise UnsupportedOrderError(f"derivative order M must be nonnegative, got {M}")
    lam = params.lam
    t = np.asarray(t, dtype=float)
    if lam >= 0.0:
        return 0.0 * t if t.ndim else 0.0
    amp = 2.0 ** (params.sigma) * params.c_ab * (0.5 * lam) ** M
    out = amp * (np.sinh(0.5 * lam * t) if M % 2 == 0 else np.cosh(0.5 * lam * t))
    return out if t.ndim else float(out)


def resolve_method(method: str, t: float) -> str:
    """The route a method takes at t for derivatives: itself, or for 'auto'
    the series from AUTO_SPLIT_T on and the integral route below.  auto's
    values below the split may take F4 columns instead, point by point, and
    on the diagonal theta == phi the series (kernel_H_batch)."""
    if method != "auto":
        return method
    return "series" if t >= AUTO_SPLIT_T else "integral"


def kernel_eval(params: JacobiParams, query: KernelQuery) -> float:
    """H_t (or a derivative) by the requested route, correction included.
    series and integral call their route, f4 and general (values only)
    theirs plus the correction; auto is a one-point kernel_H_batch."""
    t, theta, phi = query.t, query.theta, query.phi
    M, N, L = query.deriv
    if query.method == "auto":
        return float(kernel_H_batch(params, [t], theta, phi, M, N, L)[0])
    if query.method == "series":
        return float(series_H(params, t, theta, phi, M=M, N=N, L=L))
    if query.method == "integral":
        base = h_script_integral(params, t, theta, phi, deriv=query.deriv)
    else:
        base = (h_script_f4 if query.method == "f4" else h_script_general)(params, t, theta, phi)
    return float(base) + (float(jph_correction(params, t, M=M)) if N == 0 and L == 0 else 0.0)


def _f4_column_value(params, t, theta, phi):
    """The companion kernel at one point by F4 columns, whatever rho is."""
    args, _, prefactor = _f4_head(params, t, theta, phi)
    return prefactor * _f4_oriented_columns(*args)


def kernel_H_batch(params: JacobiParams, t_arr, theta: float, phi: float, M=0, N=0, L=0,
                   split=AUTO_SPLIT_T, **integral):
    """H derivatives over a t array, plus the sinh correction below split
    and the series route from split on; the path of every auto evaluation
    (kernel_eval's one point as the scans' t batches).

    Below split, a value (M = N = L = 0) at theta == phi takes the series
    at each t from T_MIN_SERIES on whose truncation (_series_terms) is at
    most AUTO_SERIES_TERMS: there the terms e^(-t r_n) P_n(theta)^2 are all
    nonnegative, so the sum cannot cancel, and below that many terms it
    costs less than the integral route.  The truncation falls as t grows,
    so the diagonal t from some t* on take the series, in one call with the
    t from split on (cut at the smallest t of both).  Any other value at a
    t whose predicted F4 column count (_f4_column_estimate) is at most
    AUTO_F4_COLUMNS is summed by F4 columns, whatever rho is; every other t
    below split takes the integral route.  theta and phi must lie in
    [0, pi], which the prediction assumes.
    integral (rtol, base_nodes, max_doublings, delta_floor; an
    operator-kernel preset's integral dict as it stands) goes to
    h_script_integral, whose defaults fill the rest, and is checked by it
    even when no t takes that route: a keyword it does not take raises its
    TypeError, a bad value its ValueError (the series path keeps its own
    derivative orders)."""
    t_arr = np.asarray(t_arr, dtype=float)
    _check_t(t_arr)
    check_angle_range(theta, phi)
    out = np.empty_like(t_arr)
    series = t_arr >= split
    f4 = np.zeros_like(series)
    if M == 0 and N == 0 and L == 0 and not series.all():
        if theta == phi:
            series[~series] = [t >= T_MIN_SERIES
                               and _series_terms(params, t, 0, 0, 0) <= AUTO_SERIES_TERMS
                               for t in t_arr[~series].tolist()]
        if not series.all():
            f4[~series] = _f4_column_estimate(t_arr[~series], theta, phi) <= AUTO_F4_COLUMNS
    below = ~(series | f4)
    if np.any(below):
        vals = h_script_integral(params, t_arr[below], theta, phi, deriv=(M, N, L), **integral)
        if N == 0 and L == 0:
            vals = vals + jph_correction(params, t_arr[below], M=M)
        out[below] = vals
    elif integral:
        h_script_integral(params, t_arr[below], theta, phi, **integral)
    if np.any(f4):
        out[f4] = ([_f4_column_value(params, t, theta, phi) for t in t_arr[f4].tolist()]
                   + jph_correction(params, t_arr[f4]))
    if np.any(series):
        out[series] = series_H(params, t_arr[series], theta, phi, M=M, N=N, L=L)
    return out
