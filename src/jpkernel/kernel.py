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

The integral route's four cases (i)-(iv) are the products of the two axes'
regimes (u against Pi_alpha, v against Pi_beta): each axis contributes
either its measure (density or half-atoms) or, in the profile regime, a
derivative along the axis against the profile plus the half-atoms at +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from jpkernel.qpsi import psi_evaluator

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
        for name, val in (("theta", self.theta), ("phi", self.phi)):
            if not 0.0 <= val <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {val}")
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

    t may be an array, and independently phi may be an array; the result
    broadcasts to shape t.shape + phi.shape (scalar axes squeezed).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_t(t_arr)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    if min(M, N, L) < 0:
        raise UnsupportedOrderError(f"derivative orders (M, N, L) must be nonnegative, got {(M, N, L)}")
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    n_cut = _series_cut(params, float(t_arr.min()), M, N, L, rtol)
    rates = params.rates(n_cut)
    coef = trig_poly_table(params, n_cut, np.float64(theta), order=N)[:, None] * trig_poly_table(
        params, n_cut, phi_arr, order=L
    )
    if M > 0:
        coef = coef * ((-rates) ** M)[:, None]
    vals = np.exp(-np.outer(t_arr, rates)) @ coef
    if np.ndim(phi) == 0:
        vals = vals[:, 0]
    if np.ndim(t) == 0:
        vals = vals[0]
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
                   floor: float = 2.0**-40) -> float:
    """Mesh grading scale toward the node 1 of one integration axis.

    The integrand varies on scale d_min / coupling in (1 - u), where
    d_min = cosh(t/2) - 1 + 2 sin^2((theta-phi)/4) is the distance to the
    singularity at the corner.
    """
    d_min = (math.cosh(0.5 * t_min) - 1.0) + 2.0 * math.sin(0.25 * (theta - phi)) ** 2
    if coupling <= 0.0:
        return 0.5
    return pi_measures.snap_delta(max(0.25 * d_min / coupling, floor))


def _axis_terms(gamma: float, n: int, delta: float):
    """Terms (nodes, weights, derivative order) of one integration axis.

    A density or atomic axis integrates psi against its measure.  A profile
    axis integrates the axis derivative of psi against the profile, folded
    onto +-u as one stacked tensor with signed weights, and adds psi at the
    two half-atoms.
    """
    nodes, weights = pi_measures.axis_rule(gamma, n, delta)
    if gamma >= -0.5:
        return [(nodes, weights, 0)]
    return [(np.concatenate([nodes, -nodes]), np.concatenate([weights, -weights]), 1),
            (np.array([1.0, -1.0]), np.array([0.5, 0.5]), 0)]


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


def _integral_terms(params, t_min, theta, phi, n_nodes, delta_floor=2.0**-40):
    """The double sums of the integral representation at one resolution,
    graded for t >= t_min: the product of the u and v axes' terms, u-major,
    as (u nodes, v nodes, u weights, v weights, K, R) with the nodes shaped
    to broadcast as psi's (t, u, v) axes."""
    p_coupling, q_coupling = _pq(theta, phi)
    u_terms = _axis_terms(params.alpha, n_nodes,
                          _grading_delta(t_min, theta, phi, p_coupling, delta_floor))
    v_terms = _axis_terms(params.beta, n_nodes,
                          _grading_delta(t_min, theta, phi, q_coupling, delta_floor))
    return [(un.reshape(1, -1, 1), vn.reshape(1, 1, -1), uw, vw, K, R)
            for un, uw, K in u_terms for vn, vw, R in v_terms]


def _integral_sum(params, t_arr, theta, phi, M, N, L, n_nodes, delta_floor, with_mass):
    """Companion-kernel derivative over a t batch at one resolution, and the
    sum of |w psi| over the quadrature terms of each t (its roundoff scale),
    or None unless with_mass.

    The batch splits into log-bands [lo, 4 lo) from its smallest t on (the
    last band takes the rest), and each band is graded by its own smallest
    t: small t needs deep grading that larger t should not pay for.

    Within a band, each term's weighted psi fills blocks of whole t rows;
    a row of more than _BLOCK_ELEMS elements is a block alone and is filled
    in slices of u nodes.  Psi and the weighting run on pieces of about
    _BLOCK_ELEMS elements, in psi's out and work buffers, views of one
    workspace that the call allocates (and grows when a term needs more)
    and every block reuses.  So memory stays bounded by the largest row,
    and blocks do not page-fault in fresh memory: allocating per term or
    per block would, as the allocator hands equal-size arrays back to the
    system.  Every element is computed as on the full tensor, each t sums
    its terms in the same order and each row sum is over the whole row, so
    the values do not depend on the blocking.  The workspace belongs to the
    call: the evaluator is shared between threads.
    """
    psi = psi_evaluator(params)
    out = np.zeros_like(t_arr)
    mass = np.zeros_like(t_arr) if with_mass else None
    t_max = float(t_arr.max())
    lo = float(t_arr.min())
    space = np.empty(0)
    while True:
        hi = lo * 4.0
        band = np.flatnonzero((t_arr >= lo) & ((t_arr < hi) | (hi >= t_max)))
        if band.size:
            t_band = t_arr[band].reshape(-1, 1, 1)
            terms = _integral_terms(params, float(t_band.min()), theta, phi, n_nodes,
                                    delta_floor)
            for u, v, wu, wv, K, R in terms:
                weights = wu[:, None] * wv  # np.outer's products, without its call overhead
                rows = min(band.size, max(1, _BLOCK_ELEMS // weights.size))
                cols = u.size if rows > 1 else min(u.size, max(1, _BLOCK_ELEMS // v.size))
                n_buf, n_work = rows * weights.size, rows * cols * v.size
                if space.size < n_buf + n_work:
                    space = np.empty(n_buf + n_work)
                buf = space[:n_buf].reshape((rows,) + weights.shape)
                work = space[n_buf:n_buf + n_work].reshape(rows, cols, v.size)
                for start in range(0, band.size, rows):
                    tb = t_band[start:start + rows]
                    vals = buf[:len(tb)]
                    for i in range(0, u.size, cols):
                        piece = vals[:, i:i + cols]
                        psi(tb, theta, phi, u[:, i:i + cols], v, K=K, R=R, L=L, N=N, M=M,
                            out=piece, work=work[:len(tb), :piece.shape[1]])
                        piece *= weights[i:i + cols]
                    sums, abs_sums = _row_sums(vals, with_mass)
                    block = band[start:start + rows]
                    out[block] += sums
                    if with_mass:
                        mass[block] += abs_sums
        if hi >= t_max:
            return out, mass
        lo = hi


def h_script_integral(params: JacobiParams, t, theta: float, phi: float, deriv=(0, 0, 0),
                      rtol=1e-9, base_nodes=_BASE_NODES, max_doublings=_MAX_DOUBLINGS,
                      delta_floor=2.0**-40):
    """Companion kernel (and derivatives) via the integral representation.

    deriv = (M, N, L); N + M <= 3 and L <= 1 are supported.  Node counts
    double until two successive evaluations agree to rtol (scaled by the
    largest batch magnitude); max_doublings = 0 trusts a single resolution
    (scan mode, order-of-magnitude targets).  Agreement below the roundoff
    floor of the quadrature sum is refused: when eps * sum |w psi| exceeds
    rtol times that scale (the value is a cancellation of far larger terms),
    QuadratureError is raised instead of a value whose digits are noise.
    The terms are summed in a fixed order, so values do not depend on the
    numpy build.
    """
    M, N, L = deriv
    if L not in (0, 1) or N < 0 or M < 0 or N + M > 3:
        raise UnsupportedOrderError(
            f"integral route supports L <= 1 and N + M <= 3, got {deriv}"
        )
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_t(t_arr)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    route = f"integral route (alpha={params.alpha}, beta={params.beta}, deriv={deriv})"
    point = f"t_min={t_arr.min():g}, theta={theta:g}, phi={phi:g}"

    def batch(n, with_mass):
        # D underflows to 0 at the integrand's singularity (t -> 0 on the
        # diagonal); refuse the non-finite result instead of warning on it.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals, mass = _integral_sum(params, t_arr, theta, phi, M, N, L, n, delta_floor,
                                       with_mass)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError(
                f"{route} hit the integrand's singularity: non-finite value for {point}"
            )
        return vals, mass

    n = base_nodes
    prev, _ = batch(n, with_mass=False)  # only a converged batch's mass is read
    if max_doublings == 0:
        return prev if np.ndim(t) else float(prev[0])
    for _ in range(max_doublings):
        n *= 2
        cur, mass = batch(n, with_mass=True)
        scale = float(np.max(np.abs(cur))) or 1e-300
        if np.max(np.abs(cur - prev)) <= rtol * scale:
            cond = float(np.max(mass)) / scale
            if _EPS * cond > rtol:
                raise QuadratureError(
                    f"{route} cannot reach rtol={rtol:g}: condition number "
                    f"sum|w psi|/|value| = {cond:.3g} puts its roundoff floor at "
                    f"{_EPS * cond:.3g}, for {point}"
                )
            return cur if np.ndim(t) else float(cur[0])
        prev = cur
    raise QuadratureError(f"{route} did not stabilize at {n} nodes per piece for {point}")


# ---------------------------------------------------------------------------
# general (symmetrized one-formula) route
# ---------------------------------------------------------------------------

def _general_once(params, t, theta, phi, n_nodes):
    sigma = params.sigma
    scale = 0.25 * params.c_ab * math.sinh(0.5 * t)
    C = math.cosh(0.5 * t)
    P, Q = _pq(theta, phi)
    _, uw, omu = pi_measures.halfline_rule(params.alpha, n_nodes,
                                           _grading_delta(t, theta, phi, P))
    _, vw, omv = pi_measures.halfline_rule(params.beta, n_nodes, _grading_delta(t, theta, phi, Q))

    def bracket(d, inc):
        # D^(-sigma) at distance d + inc minus at d, without cancellation
        return d ** (-sigma) * np.expm1(-sigma * np.log1p(inc / d))

    omu_col = omu.reshape(-1, 1)
    total_dd = 0.0
    total_su = 0.0
    total_sv = 0.0
    corner = 0.0
    for xi in (1.0, -1.0):
        for eta in (1.0, -1.0):
            d11 = (C - 1.0) + (1.0 - xi * P - eta * Q)  # D at the corner (u, v) = (xi, eta)
            corner += scale * d11 ** (-sigma)
            # single-variable brackets Psi(xi u, eta) - Psi(xi, eta), etc.
            su = bracket(d11, xi * omu * P)
            total_su += scale * np.sum(uw * su / omu)
            inc_v = eta * omv * Q
            sv = bracket(d11, inc_v)
            total_sv += scale * np.sum(vw * sv / omv)
            # double bracket, divided by (1-u)(1-v); D(xi u, eta) is a column over u
            dd = (bracket(d11 + xi * omu_col * P, inc_v) - sv) / (omu_col * omv)
            total_dd += scale * (uw @ dd @ vw)
    return 4.0 * total_dd + 2.0 * total_su + 2.0 * total_sv + corner


def h_script_general(params: JacobiParams, t: float, theta: float, phi: float,
                     rtol=5e-8) -> float:
    """Companion kernel via the symmetrized representation over (0, 1]^2.

    Serves as an independent cross-check of h_script_integral; value only.  The default rtol sits at the route's
    cancellation floor: the doubly-differenced integrand loses a few digits
    when the exponent alpha + beta + 2 is large.
    """
    _check_t(t)
    _check_angles(theta, phi)
    _check_rtol(rtol)
    n = _BASE_NODES
    prev = _general_once(params, t, theta, phi, n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        cur = _general_once(params, t, theta, phi, n)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"general route did not stabilize at {n} nodes per piece "
        f"for t={t:g}, theta={theta:g}, phi={phi:g}"
    )


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
    """H_t (or a derivative) by the requested route, correction included."""
    M, N, L = query.deriv
    method = resolve_method(query.method, query.t)
    if method == "series":
        return float(series_H(params, query.t, query.theta, query.phi, M=M, N=N, L=L))
    if method == "f4":
        base = h_script_f4(params, query.t, query.theta, query.phi)
    elif method == "integral":
        base = float(h_script_integral(params, query.t, query.theta, query.phi, deriv=query.deriv))
    elif method == "general":
        base = h_script_general(params, query.t, query.theta, query.phi)
    else:  # pragma: no cover
        raise ValueError(f"unknown method {method!r}")
    if N == 0 and L == 0:
        base += float(jph_correction(params, query.t, M=M))
    return base


def kernel_H_batch(params: JacobiParams, t_arr, theta: float, phi: float, M=0, N=0, L=0,
                   rtol=1e-9, split=AUTO_SPLIT_T, base_nodes=_BASE_NODES,
                   max_doublings=_MAX_DOUBLINGS, delta_floor=2.0**-40):
    """H derivatives over a t array, the integral route (plus the sinh
    correction) below split and the series route from split on; the
    workhorse of the t-integrated kernel scans.  rtol, base_nodes,
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
