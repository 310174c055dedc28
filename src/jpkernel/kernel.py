"""The Jacobi-Poisson kernel H_t and its auxiliary companion by four routes.

H_t(theta, phi) = sum_n exp(-t |n + lam/2|) P_n(theta) P_n(phi) with
lam = alpha + beta + 1.  The companion kernel drops the absolute value in
the exponent; the two differ by the explicit correction
2^(alpha+beta+2) c_ab sinh(lam t / 2), nonzero only when lam < 0.

Routes:
  series   -- direct spectral sum (computes H), any t bounded below by
              T_MIN_SERIES; derivatives term by term;
  f4       -- companion kernel through the Appell-F4 double power series
              (all terms nonnegative), values only;
  integral -- companion kernel through the integral representation against
              the Pi measure family; t-uniform, derivative orders
              N + M <= 3, L <= 1;
  general  -- companion kernel through the symmetrized one-formula
              representation on (0, 1]^2, values only; the independent
              cross-check of the integral route.

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
from dataclasses import dataclass
from functools import partial
import numpy as np

from jpkernel import pi_measures
from jpkernel.basis import trig_poly_table
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
SERIES_CAP = 100_000
F4_EPS_CONV = 5e-4
F4_MAX_DIAGONALS = 80_000
F4_WINDOW_START = 1_024
_EPS = float(np.finfo(float).eps)

_METHODS = ("series", "f4", "integral", "general", "auto")


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
        M, N, L = self.deriv
        if min(M, N, L) < 0 or M + N + L > 3:
            raise UnsupportedOrderError(f"derivative orders {self.deriv} exceed M+N+L <= 3")
        if self.method not in _METHODS:
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
    _check_angles(theta, phi)
    for name, angle in (("theta", theta), ("phi", phi)):
        arr = np.asarray(angle, dtype=float)
        bad = arr[(arr < 0.0) | (arr > math.pi)]
        if bad.size:
            raise ValueError(f"{name} must lie in [0, pi], got {bad[0]}")


def _check_rtol(rtol):
    """Raise ValueError unless 0 < rtol < inf."""
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")


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

def _series_cut(params: JacobiParams, t_min: float, M: int, N: int, L: int, rtol: float) -> int:
    """Smallest n with a tail bound below rtol, via the crude growth bound
    n^(alpha+beta+2) on the polynomials (+1 safety in the exponent).

    At large t the fixed point falls below one term, so the iteration takes
    the log of at least 1 and the cut keeps its floor of 8 terms."""
    if t_min < T_MIN_SERIES:
        raise TruncationError(f"series route needs t >= {T_MIN_SERIES}, got {t_min}")
    p = 2.0 * params.sigma + 3.0 * (N + L) + M + 1.0
    log_goal = math.log(1.0 / rtol) + math.log(1.0 / -math.expm1(-t_min)) + 1.0
    n = 20.0 / t_min + 20.0
    for _ in range(60):
        n = (log_goal + p * math.log(max(n, 1.0))) / t_min
    n = int(math.ceil(n))
    if n > SERIES_CAP:
        raise TruncationError(
            f"series truncation needs {n} terms (cap {SERIES_CAP}) at t={t_min}"
        )
    return max(n, 8)


def series_H(params: JacobiParams, t, theta: float, phi, M=0, N=0, L=0, rtol=1e-13):
    """H and derivatives by the spectral series.

    t may be an array of any shape, empty included, and independently phi
    may be an array; the result has shape t.shape + phi.shape (scalar axes
    squeezed).
    """
    t_arr = np.asarray(t, dtype=float).ravel()
    _check_t(t_arr)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    if min(M, N, L) < 0:
        raise UnsupportedOrderError(f"derivative orders (M, N, L) must be nonnegative, got {(M, N, L)}")
    if not t_arr.size:
        return np.empty(np.shape(t) + np.shape(phi))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    n_cut = _series_cut(params, float(t_arr.min()), M, N, L, rtol)
    rates = params.rates(n_cut)
    coef = trig_poly_table(params, n_cut, np.float64(theta), order=N)[:, None] * trig_poly_table(
        params, n_cut, phi_arr, order=L
    )
    if M > 0:
        coef = coef * ((-rates) ** M)[:, None]
    vals = (np.exp(-np.outer(t_arr, rates)) @ coef).reshape(np.shape(t) + np.shape(phi))
    return float(vals) if np.ndim(vals) == 0 else vals


# ---------------------------------------------------------------------------
# F4 route
# ---------------------------------------------------------------------------

def h_script_f4(params: JacobiParams, t: float, theta: float, phi: float, rtol=1e-11) -> float:
    """Companion kernel via the Appell-F4 double series.

    Sums the terms T(m, n) = (a1)_s (a2)_s x^m y^n / ((b1)_m (b2)_n m! n!),
    s = m + n, along anti-diagonals s; all terms are nonnegative, and the
    block sums eventually decay geometrically with ratio
    rho^2 = (sqrt x + sqrt y)^2, which drives the stopping rule.

    Window.  Each diagonal is summed over a window of columns [lo, hi] only
    (column m holds x^m).  On diagonal s + 1 the columns lo..hi are the
    y-steps of diagonal s, and column hi + 1 is the x-step of its column hi,
    so between trims the right edge stays on one y-power n0 = s - hi.  From
    diagonal F4_WINDOW_START on, each renormalization (every 32 diagonals)
    trims both edges with one vectorized test: the window shrinks to the
    span from the first to the last entry whose weighted value exceeds tau
    times the diagonal's largest, tau = eps rtol / F4_MAX_DIAGONALS.  Below
    F4_WINDOW_START the window is the whole diagonal and the arithmetic is
    that of tests/_f4_reference.py.

    Why a dropped entry stays negligible.  The ratio of neighbours on
    diagonal s,
        q_s(m) = T(m+1, s-m-1) / T(m, s-m)
               = x (b2 + s-m-1) (s-m) / (y (b1 + m) (m + 1)),
    falls with m (b1, b2 > 0), so each diagonal is log-concave with one
    peak.  At fixed m, q_s(m) rises with s: from one diagonal to the next,
    column m loses ground against column m + 1, hence against every column
    right of it.  At fixed n = s-m-1, q_s(m) falls with s: the y-power n
    loses ground against n + 1, hence against every larger y-power.  So a
    column m left of the largest entry T(p, s-p) and below tau T(p, s-p) on
    diagonal s has T(m, s'-m) <= tau T(p, s'-p) <= tau B_s' on every later
    diagonal s' (B_s' the full block), and so has a y-power n < s-p with
    T(s-n, n) below tau T(p, s-p).  Left trimming is therefore one-way, and
    the rebuilt right column leaves out only y-powers below n0, each
    trimmed on this or an earlier renormalization.  (With x = 0 the columns
    right of the first are exact zeros.)  A diagonal s drops at most s
    entries, each at most tau B_s, so the dropped mass is at most
    F4_MAX_DIAGONALS tau sum_s B_s = eps rtol H for the full sum H: below
    the last bit of the result.

    Cost: below F4_WINDOW_START a diagonal s costs O(s) flops, and S
    diagonals O(S^2).  Past it the window holds the peak out to about 12
    standard deviations of its O(sqrt s) width on each side (tau ~ 3e-32
    at rtol 1e-11), so the cost grows like S^1.5, and near rho -> 1 the
    floor is the interpreter: about 8 microseconds per diagonal on a 2-core
    VM, even for a window of one column.  S grows like log(rtol) /
    log(rho^2) as rho -> 1.  The start constant keeps every call of fewer
    diagonals (the goldens take at most 419) bit-identical to the full
    sweep; below it the rows are too short for the window to save much.
    Each diagonal is three vector passes (divide, multiply, dot) over
    buffers allocated once per call.
    """
    _check_t(t)
    _check_angles(theta, phi)
    _check_rtol(rtol)
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
    a1 = 0.5 * params.sigma
    a2 = 0.5 * (params.sigma + 1.0)
    b1 = params.alpha + 1.0
    b2 = params.beta + 1.0

    rho2 = rho * rho
    geo = 2.0 * rho2 / (1.0 - rho2)
    # Row s holds (a1)_s (a2)_s x^m y^n / ((b1)_m (b2)_n m! n!), m + n = s, as
    # mantissa * exp(logw) per entry: the pure-x edge underflows double range
    # long before its column stops mattering, so magnitudes are carried in
    # log space and mantissas are renormalized periodically.  A new column
    # takes its left neighbour's logw, so the renormalization fills logw and
    # ew for the columns the next renorm_every diagonals add.
    # The buffers are allocated untouched, so only the pages of the live
    # columns are ever used.  den[K - n] = (b2 + n)(n + 1), K =
    # F4_MAX_DIAGONALS, is the y-step denominator of y-power n, stored
    # backwards so that the window reads den[K - (s - m)] forwards.  Each
    # entry is rounded as row[m] * ((fac y) / den[K - (s - m)]); folding fac
    # into den or multiplying by 1/den would change the last bit against the
    # plain per-diagonal loop that tests/_f4_reference.py keeps.
    renorm_every = 32
    K = F4_MAX_DIAGONALS
    row, nxt, tmp, logw, ew, den = np.empty((6, K + 2))
    row[0] = 1.0
    logw[: renorm_every + 1], ew[: renorm_every + 1] = 0.0, 1.0  # ew = exp(logw)
    log_tau = math.log(_EPS * rtol / K)
    lo = hi = 0  # the live window of the current diagonal
    total = 1.0
    prev_block = 1.0
    for s in range(K):
        fac = (a1 + s) * (a2 + s)
        den[K - s] = (b2 + s) * (s + 1.0)
        step = tmp[lo: hi + 1]
        np.divide(fac * y, den[K - s + lo: K - s + hi + 1], out=step)
        np.multiply(row[lo: hi + 1], step, out=nxt[lo: hi + 1])
        nxt[hi + 1] = row[hi] * (fac * x / ((b1 + hi) * (hi + 1.0)))
        hi += 1
        block = float(np.dot(nxt[lo: hi + 1], ew[lo: hi + 1]))
        total += block
        if s >= 4 and block <= prev_block and block * geo <= rtol * total:
            break
        prev_block = block
        row, nxt = nxt, row
        if (s + 1) % renorm_every == 0:
            live, lw = row[lo: hi + 1], logw[lo: hi + 1]
            pos = live > 0.0
            np.add(lw, np.log(live, where=pos, out=tmp[lo: hi + 1]), out=lw, where=pos)
            np.copyto(live, pos)
            if s + 1 >= F4_WINDOW_START:
                keep = np.flatnonzero(pos & (lw > lw.max(where=pos, initial=-math.inf) + log_tau))
                lo, hi = lo + int(keep[0]), lo + int(keep[-1])
            with np.errstate(under="ignore"):
                np.exp(logw[lo: hi + 1], out=ew[lo: hi + 1])
            logw[hi + 1: hi + renorm_every + 1] = logw[hi]
            ew[hi + 1: hi + renorm_every + 1] = ew[hi]
    else:
        raise SlowConvergenceError(f"F4 series did not converge in {F4_MAX_DIAGONALS} blocks")
    return params.c_ab * math.sinh(0.5 * t) / ch**params.sigma * total


# ---------------------------------------------------------------------------
# integral route
# ---------------------------------------------------------------------------

_BASE_NODES = 24
_MAX_DOUBLINGS = 2
# Psi is evaluated in pieces of about this many elements (1 MB, inside a
# core's L2 cache): blocks of whole t rows, or slices of one row.
_BLOCK_ELEMS = 2**17


def _pq(theta: float, phi: float):
    p = math.sin(0.5 * theta) * math.sin(0.5 * phi)
    q = math.cos(0.5 * theta) * math.cos(0.5 * phi)
    return p, q


def _grading_delta(t_min: float, theta: float, phi: float, coupling: float,
                   floor: float = 2.0**-40, corner=(1.0, 1.0)) -> float:
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
    """(sum_ij vals[t, i, j], sum_ij |vals[t, i, j]|) for each t row of vals
    (weighted evaluator output, overwritten); the second is None unless
    with_mass.

    Each sum is one ndarray.sum over a row's flattened (i, j) axes, i.e.
    numpy's pairwise summation, whose order is fixed by the row length (left
    to right below eight terms), so a row's sums do not depend on how many
    rows vals holds.  einsum picks its order inside numpy, so its last bit
    depends on the build.
    """
    rows = vals.reshape(len(vals), -1)
    total = rows.sum(axis=1)
    return total, np.abs(rows, out=rows).sum(axis=1) if with_mass else None


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


def _corner_cloud(u, v):
    """The corner-graded rule of two graded axes, each given as
    pi_measures.CornerPieces, as one flat point cloud (u, v, weights) of
    shape (points, 1) each: cell after cell, each flattened u-major with
    weights wu[i] wv[j].

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
    cloud = np.empty((3, sum(uw.size * vw.shape[1] for (_, uw), (_, vw) in cells), 1))
    start = 0
    for (un, uw), (vn, vw) in cells:
        shape = (len(uw), uw.shape[1], vw.shape[1])
        cu, cv, cw = cloud[:, start:start + math.prod(shape)].reshape((3,) + shape)
        cu[...] = un[:, :, None]
        cv[...] = vn[:, None, :]
        np.multiply(uw[:, :, None], vw[:, None, :], out=cw)
        start += math.prod(shape)
    return cloud


def _integral_terms(params, t_min, theta, phi, n_nodes, delta_floor=2.0**-40):
    """The double sums of the integral representation at one resolution,
    graded for t >= t_min: the products of the u and v axes' terms, u-major,
    as (u nodes, v nodes, weights, K, R) with the nodes shaped to broadcast
    to the weights' shape, psi's (point, node) axes.

    Two graded axes take the corner-graded rule (_corner_cloud): one flat
    point cloud, of shape (points, 1).  A term with an ungraded or atomic
    axis is one cell, the two axes' tensor, kept as (nu, 1) u nodes, (1, nv)
    v nodes and (nu, nv) weights, so that psi's work in (u, v) alone stays
    O(nu + nv); its u-major flattening is the cloud of that cell.  The
    clouds are built per call from the cached 1-D pieces.
    """
    p_coupling, q_coupling = _pq(theta, phi)
    u_terms = _axis_terms(params.alpha, n_nodes,
                          _grading_delta(t_min, theta, phi, p_coupling, delta_floor))
    v_terms = _axis_terms(params.beta, n_nodes,
                          _grading_delta(t_min, theta, phi, q_coupling, delta_floor))
    terms = []
    for un, uw, K, u_pieces in u_terms:
        for vn, vw, R, v_pieces in v_terms:
            if u_pieces is None or v_pieces is None:
                terms.append((un[:, None], vn[None, :], uw[:, None] * vw, K, R))
            else:
                terms.append(tuple(_corner_cloud(u_pieces, v_pieces)) + (K, R))
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


def _integral_sum(params, t_arr, theta, phi, evaluate, delta_floor, n_nodes, with_mass, space):
    """The integral representation's double sums over a t batch at one
    resolution, and the sum of |w f| over the quadrature terms of each t
    (its roundoff scale), or None unless with_mass.

    evaluate(t_block, u, v, K, R, out, work) fills out with the integrand f
    on a (t, point, node) block of the term with axis orders (K, R), forming
    its D in work: psi at the route's derivative orders (h_script_integral),
    or its t-integral on a one-row batch at t = 0 (t_integral_H).

    The batch splits into log-bands [lo, 4 lo) from its smallest t on (the
    last band takes the rest), and each band is graded by its own smallest
    t: small t needs deep grading that larger t should not pay for.

    Within a band, each term (_integral_terms) fills blocks of whole t rows;
    a row of more than _BLOCK_ELEMS elements is a block alone and is filled
    in slices of its points (a tensor's u nodes).  Psi and the weighting run
    on pieces of about _BLOCK_ELEMS elements, in psi's out and work
    buffers, views of space (the route call's _Workspace), so memory stays
    bounded by the largest row.  Every element is computed as on the full
    (t, point, node) array, each t sums its terms in the same order and each
    row sum is over the whole row, so the values do not depend on the
    blocking.
    """
    out = np.zeros_like(t_arr)
    mass = np.zeros_like(t_arr) if with_mass else None
    t_max = float(t_arr.max())
    lo = float(t_arr.min())
    while True:
        hi = lo * 4.0
        band = np.flatnonzero((t_arr >= lo) & ((t_arr < hi) | (hi >= t_max)))
        if band.size:
            t_band = t_arr[band].reshape(-1, 1, 1)
            terms = _integral_terms(params, float(t_band.min()), theta, phi, n_nodes,
                                    delta_floor)
            for u, v, w, K, R in terms:
                points, per_point = w.shape
                rows = min(band.size, max(1, _BLOCK_ELEMS // w.size))
                cols = points if rows > 1 else min(points, max(1, _BLOCK_ELEMS // per_point))
                buf, work = space.views((rows, points, per_point), (rows, cols, per_point))
                for start in range(0, band.size, rows):
                    tb = t_band[start:start + rows]
                    vals = buf[:len(tb)]
                    for i in range(0, points, cols):
                        piece = vals[:, i:i + cols]
                        evaluate(tb, u[i:i + cols], v if len(v) == 1 else v[i:i + cols], K, R,
                                 piece, work[:len(tb), :piece.shape[1]])
                        piece *= w[i:i + cols]
                    sums, abs_sums = _row_sums(vals, with_mass)
                    block = band[start:start + rows]
                    out[block] += sums
                    if with_mass:
                        mass[block] += abs_sums
        if hi >= t_max:
            return out, mass
        lo = hi


def _check_resolution(base_nodes, max_doublings):
    """Raise ValueError unless base_nodes >= 1 and max_doublings >= 0."""
    if not base_nodes >= 1:
        raise ValueError(f"base_nodes must be at least 1, got {base_nodes}")
    if not max_doublings >= 0:
        raise ValueError(f"max_doublings must be nonnegative, got {max_doublings}")


def _refine(once, rtol, route, point, terms, base_nodes=_BASE_NODES,
            max_doublings=_MAX_DOUBLINGS):
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
    corners, formed as the integrand forms it (np.cosh, where math.cosh rounds
    up, and qpsi's q): p + c rounds above 1 at tiny t, and the float integrand's
    values, with no singularity left, are garbage the doubling check can pass."""
    for xi, eta in corners:
        d = float(np.cosh(0.5 * t) - 1.0 + q_value(theta, phi, xi, eta))
        if d < 0.0:
            raise QuadratureError(f"{route} cannot resolve the singularity: D at a corner "
                                  f"rounds to {d:.3g} < 0 for {point}")


def h_script_integral(params: JacobiParams, t, theta: float, phi: float, deriv=(0, 0, 0),
                      rtol=1e-9, base_nodes=_BASE_NODES, max_doublings=_MAX_DOUBLINGS,
                      delta_floor=2.0**-40):
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
    if L not in (0, 1) or N < 0 or M < 0 or N + M > 3:
        raise UnsupportedOrderError(
            f"integral route supports L <= 1 and N + M <= 3, got {deriv}"
        )
    t_arr = np.asarray(t, dtype=float).ravel()
    _check_t(t_arr)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    _check_resolution(base_nodes, max_doublings)
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
                 base_nodes: int, max_doublings: int, delta_floor: float) -> float:
    """int_0^inf d_theta^N d_phi^L H_t dt, 1 <= N <= 3 and L <= 1 (the
    integral route's orders), off the diagonal: the integral representation
    with its t-integral taken exactly (PsiEvaluator.t_integral), one (u, v)
    quadrature.  The sinh correction
    has no theta derivative, so this is the companion kernel's integral.
    It is the integral route's _integral_sum on a one-row batch at t = 0,
    so its axes are graded by d_min = 2 sin^2((theta-phi)/4) and it shares
    that route's clouds, point slicing and fixed-order row sums; node counts
    double from base_nodes under the acceptance rule of _refine at rtol
    1e-9.  On the diagonal the integral diverges, and a D that rounds below
    zero at the corner (u, v) = (1, 1) is refused, as on the integral route.
    """
    if not (1 <= N <= 3 and L in (0, 1)):
        raise UnsupportedOrderError(
            f"t-integral route supports 1 <= N <= 3 and L <= 1, got N={N}, L={L}")
    _check_angles(theta, phi)
    _check_resolution(base_nodes, max_doublings)
    if theta == phi:
        raise ValueError(f"the t-integral of H diverges on the diagonal theta = phi = {theta}")
    route = f"t-integral route (alpha={params.alpha}, beta={params.beta}, N={N}, L={L})"
    point = f"theta={theta:g}, phi={phi:g}"
    _refuse_negative_d(0.0, theta, phi, ((1.0, 1.0),), route, point)
    psi = psi_evaluator(params)

    def evaluate(t_block, u, v, K, R, out, work):
        return psi.t_integral(theta, phi, u, v, K=K, R=R, L=L, N=N, out=out, work=work)

    once = partial(_integral_sum, params, np.zeros(1), theta, phi, evaluate, delta_floor)
    return float(_refine(once, 1e-9, route, point, "w f", base_nodes, max_doublings)[0])


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


def h_script_general(params: JacobiParams, t: float, theta: float, phi: float,
                     rtol=5e-8) -> float:
    """Companion kernel via the symmetrized representation over (0, 1]^2.

    The independent cross-check of h_script_integral; value only.  Each
    corner is graded by its own distance to the singularity (see
    _general_once), and node counts double from _BASE_NODES under the
    acceptance rule of _refine, which the integral route shares.  A corner
    whose D rounds below zero, in the integrand's form or in the route's
    own, is refused.  The default rtol sits at the
    route's cancellation floor (large alpha + beta + 2 near the diagonal).
    """
    _check_t(t)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    route, point = "general route", f"t={t:g}, theta={theta:g}, phi={phi:g}"
    _refuse_negative_d(t, theta, phi, _CORNERS, route, point)
    C = math.cosh(0.5 * t)
    P, Q = _pq(theta, phi)
    corner_ds = [(C - 1.0) + (1.0 - xi * P - eta * Q) for xi, eta in _CORNERS]
    if min(corner_ds) < 0.0:  # raised to the power -sigma below
        raise QuadratureError(f"{route}: D at a corner rounds below zero for {point}")
    return _refine(partial(_general_once, params, t, theta, phi, corner_ds), rtol, route, point,
                   "terms")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def jph_correction(params: JacobiParams, t, M: int = 0):
    """The explicit sinh correction turning the companion kernel into H.

    Zero when alpha + beta >= -1; its theta/phi derivatives vanish
    identically, t-derivatives are exact.
    """
    lam = params.lam
    t = np.asarray(t, dtype=float)
    if lam >= 0.0:
        return 0.0 * t if t.ndim else 0.0
    amp = 2.0 ** (params.sigma) * params.c_ab * (0.5 * lam) ** M
    out = amp * (np.sinh(0.5 * lam * t) if M % 2 == 0 else np.cosh(0.5 * lam * t))
    return out if t.ndim else float(out)


def resolve_method(method: str, t: float) -> str:
    if method != "auto":
        return method
    return "series" if t >= AUTO_SPLIT_T else "integral"


def kernel_eval(params: JacobiParams, query: KernelQuery) -> float:
    """H_t (or a derivative) by the requested route, correction included:
    a one-point kernel_H_batch split at 0 (series), inf (integral) or
    AUTO_SPLIT_T (auto); f4 and general give values only."""
    if query.method in ("f4", "general"):
        route = h_script_f4 if query.method == "f4" else h_script_general
        base = float(route(params, query.t, query.theta, query.phi))
        return base + float(jph_correction(params, query.t))
    split = {"series": 0.0, "integral": math.inf, "auto": AUTO_SPLIT_T}[query.method]
    return float(kernel_H_batch(params, [query.t], query.theta, query.phi, *query.deriv,
                                split=split)[0])


def kernel_H_batch(params: JacobiParams, t_arr, theta: float, phi: float, M=0, N=0, L=0,
                   rtol=1e-9, split=AUTO_SPLIT_T, base_nodes=_BASE_NODES,
                   max_doublings=_MAX_DOUBLINGS, delta_floor=2.0**-40):
    """H derivatives over a t array, the integral route (plus the sinh
    correction) below split and the series route from split on; the path
    of every series, integral and auto evaluation (kernel_eval's one point
    as the scans' t batches).  rtol, base_nodes,
    max_doublings and delta_floor go to h_script_integral."""
    t_arr = np.asarray(t_arr, dtype=float)
    out = np.empty_like(t_arr)
    small = t_arr < split
    if np.any(small):
        vals = h_script_integral(params, t_arr[small], theta, phi, deriv=(M, N, L), rtol=rtol,
                                 base_nodes=base_nodes, max_doublings=max_doublings,
                                 delta_floor=delta_floor)
        if N == 0 and L == 0:
            vals = vals + jph_correction(params, t_arr[small], M=M)
        out[small] = vals
    if np.any(~small):
        out[~small] = series_H(params, t_arr[~small], theta, phi, M=M, N=N, L=L)
    return out
