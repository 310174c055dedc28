"""Kernels of the semigroup-derived operators and their estimate scans.

Realized kernels (theta != phi), with their Banach-space norms:

  maximal   -- {H_t}_{t>0},            sup norm over t (grid + golden refine);
  riesz     -- (1/Gamma(N)) int d_theta^N H_t t^(N-1) dt,      scalar;
  gfun      -- {d_theta^N d_t^M H_t},  L^2(t^(2M+2N-1) dt) norm;
  laplace   -- -int profile(t) d_t H_t dt,                     scalar;
  stieltjes -- sum_j w_j H_{t_j},                               scalar.

Every kernel but riesz of order 1 gets its H values from
kernel.kernel_H_batch: stieltjes at its atoms with the default resolution,
the others through _KernelBase._H at the resolution preset's integral
dict, the integral route's own keywords.  The maximal kernel's t grid
and the Stieltjes atoms split at AUTO_SPLIT_T, as 'auto' does: below the
split a value takes F4 columns where they are predicted to be few, and
the integral route (at the dict's resolution) elsewhere, as every
derivative does.  Riesz of order 1 takes its t-integral exactly under the integral
representation (kernel.t_integral_H, one (u, v) quadrature under the same
dict; see RieszKernel).  The other t-integrals (riesz of order 2, gfun,
laplace) split at t = 1: below, all their log-spaced Gauss nodes take the
t-uniform integral route; above, exact per-mode upper incomplete-Gamma
closures of the spectral series (for riesz and gfun) or
geometrically-paneled Gauss with the series route plus a certified drop of
the exponentially small remainder (laplace).

Scans check the growth bound against 1/mu(ball), the gradient bound against
1/(|theta-phi| mu(ball)), and sample the first smoothness bound directly on
admissible triples; caps are artifact constants, reports carry the
empirical extremes.  Every scan runs at the 'scan' preset.  Growth and
gradient scans run one pair driver, _pair_check, with a probe(kernel,
theta, phi): kernel.norm for growth, the sum of kernel.grad_norms for
gradient.  A symmetric kernel is probed once per unordered pair, at
theta <= phi (_parallel.pair_map); the same probe re-checks the worst pair
at 'scan_fine'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from jpkernel import specfun
from jpkernel._parallel import pair_map
from jpkernel.basis import mu_ball, mu_total, trig_poly_table
from jpkernel.errors import TailError
from jpkernel.kernel import AUTO_SPLIT_T, check_angle_range, kernel_H_batch, series_H, t_integral_H
from jpkernel.params import JacobiParams
from jpkernel.pi_measures import gauss_panels
from jpkernel.report import EstimateReport, check_cap

TAIL_N_CUT = 64
# Riesz and square-function orders that options leave unset (also jpk apply's).
DEFAULT_ORDERS = {"riesz": {"N": 1}, "gfun": {"M": 1, "N": 0}}
ESTIMATE_CAP = 1e3  # the growth, gradient and smoothness scans' default cap
_MID_NODES = 20
_T_STAR_CAP = 4000.0

# Resolution presets: 'accurate' for single evaluations and oracle tests (the
# kernels' default), 'scan' for grid scans whose caps are order-of-magnitude
# statements.  integral holds the integral route's resolution in its own
# keywords (base_nodes, max_doublings, delta_floor), passed as they stand;
# 'accurate' keeps the route's defaults.
DEFAULT_QUALITY = "accurate"
PRESETS = {
    "accurate": dict(t_lo=1e-9, panels=12, t_nodes=16, integral={}, golden_iters=36,
                     sup_t_lo=1e-4, sup_per_decade=64),
    "scan": dict(t_lo=1e-5, panels=5, t_nodes=8,
                 integral=dict(base_nodes=10, max_doublings=0, delta_floor=2.0**-16),
                 golden_iters=0, sup_t_lo=1e-3, sup_per_decade=16),
    "scan_fine": dict(t_lo=1e-8, panels=8, t_nodes=12,
                      integral=dict(base_nodes=20, max_doublings=0, delta_floor=2.0**-20),
                      golden_iters=12, sup_t_lo=1e-3, sup_per_decade=24),
}


# ---------------------------------------------------------------------------
# multiplier specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceProfile:
    """Bounded profile phi(t) of a Laplace-transform-type multiplier.

    fn maps positive t arrays to (possibly complex) values; sup_norm is the
    user-declared bound used in tail certificates.
    """

    fn: Callable
    sup_norm: float = 1.0
    name: str = "profile"


@dataclass(frozen=True)
class StieltjesAtoms:
    """Finite atomic measure sum_j weights[j] * delta(times[j]) on (0, inf)."""

    times: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.times) != len(self.weights) or not self.times:
            raise ValueError("need equally many (at least one) times and weights")
        if not all(0.0 < t < math.inf for t in self.times):
            raise ValueError(f"atom locations must be positive and finite, got {self.times}")
        if not np.isfinite(self.weights).all():
            raise ValueError(f"atom weights must be finite, got {self.weights}")


def constant_profile() -> LaplaceProfile:
    return LaplaceProfile(fn=lambda t: np.ones_like(np.asarray(t, dtype=float)), sup_norm=1.0,
                          name="const1")


def imaginary_power_profile(gamma: float) -> LaplaceProfile:
    """t^(-i gamma) / Gamma(1 - i gamma); realizes the spectral symbol z^(i gamma)."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma == 0:
        return constant_profile()
    norm = specfun.gamma(1.0 - 1j * gamma)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-1j * gamma * np.log(t)) / norm

    return LaplaceProfile(fn=fn, sup_norm=float(1.0 / abs(norm)), name=f"imaginary:{gamma}")


# ---------------------------------------------------------------------------
# shared t-quadrature and spectral tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _small_t_rule(t_lo: float, panels: int, n: int):
    """Gauss rule for int_(t_lo)^1 f(t) dt, log-spaced panels."""
    s, w = gauss_panels(np.linspace(math.log(t_lo), 0.0, panels + 1), n)
    ts = np.exp(s)
    return ts, w * ts


@lru_cache(maxsize=64)
def _mid_t_rule(t_star: float):
    """Gauss rule for int_1^(t_star) f(t) dt, geometric panels."""
    edges = [1.0]
    while edges[-1] < t_star:
        edges.append(min(edges[-1] * 2.0, t_star))
    return gauss_panels(edges, _MID_NODES)


@lru_cache(maxsize=200_000)
def _coef(params: JacobiParams, angle: float, order: int):
    return trig_poly_table(params, TAIL_N_CUT, np.float64(angle), order=order)


class _KernelBase:
    """A kernel at one resolution preset: its small-t Gauss rule and its one
    path to H values, kernel_H_batch with the preset's integral dict
    forwarded as keywords (and kernel_H_batch's default rtol).  The order-1
    Riesz kernel forwards the same dict to kernel.t_integral_H."""

    _split = math.inf  # the t-integrals' t < 1 nodes all take the integral route

    def __init__(self, params: JacobiParams, quality: str = DEFAULT_QUALITY):
        if quality not in PRESETS:
            raise ValueError(f"unknown quality {quality!r}")
        self.params = params
        self.quality = quality
        self.preset = PRESETS[quality]

    def _t_rule(self):
        p = self.preset
        return _small_t_rule(p["t_lo"], p["panels"], p["t_nodes"])

    def _H(self, ts, theta, phi, M, N, L):
        """H-derivative values on ts at the preset's resolution: the
        integral route below self._split and the series route from it on."""
        if theta == phi:
            raise ValueError(f"the {self.name} kernel is evaluated off the diagonal only")
        return kernel_H_batch(self.params, ts, theta, phi, M, N, L, split=self._split,
                              **self.preset["integral"])


# Norms of the scalar-valued kernels (Riesz, Laplace, Stieltjes), bound as
# methods in each of those classes.
def _abs_norm(self, theta, phi):
    return abs(self._value(theta, phi))


def _abs_grad_norms(self, theta, phi):
    return abs(self._value(theta, phi, dth=1)), abs(self._value(theta, phi, dph=1))


def _abs_diff_norm(self, theta, theta2, phi):
    return abs(self._value(theta, phi) - self._value(theta2, phi))


# ---------------------------------------------------------------------------
# kernel classes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _maximal_t_grid(t_lo: float, per_decade: int):
    n_pts = int(round(per_decade * math.log10(50.0 / t_lo)))
    return np.logspace(math.log10(t_lo), math.log10(50.0), n_pts)


class MaximalKernel(_KernelBase):
    """sup_t H_t, approximated on a log grid (64 per decade over [1e-4, 50]
    in accurate mode) refined by golden section; for lam = 0 the
    t -> infinity limit 1/mu_total is an explicit candidate.  The sup of
    H_t in t is empirically unimodal off the diagonal, which the sparser
    scan-mode grid relies on."""

    symmetric = True
    name = "maximal"
    _split = AUTO_SPLIT_T  # as 'auto' does

    def __init__(self, params: JacobiParams, quality: str = DEFAULT_QUALITY):
        super().__init__(params, quality)
        self.t_grid = _maximal_t_grid(self.preset["sup_t_lo"], self.preset["sup_per_decade"])

    def _sup(self, h_vals):
        """sup over t of |h_vals(ts)|, h_vals a map t array -> values: the
        t-grid maximum, then golden section between its neighbours."""
        vals = np.abs(h_vals(self.t_grid))
        i = int(np.argmax(vals))
        best = float(vals[i])
        if self.preset["golden_iters"] > 0:
            lo = self.t_grid[max(i - 1, 0)]
            hi = self.t_grid[min(i + 1, len(self.t_grid) - 1)]

            def f(log_t):
                return float(np.abs(h_vals(np.array([math.exp(log_t)])))[0])

            best = max(best, _golden_max(f, math.log(lo), math.log(hi),
                                         iters=self.preset["golden_iters"]))
        return best

    def norm(self, theta, phi):
        sup = self._sup(lambda ts: self._H(ts, theta, phi, 0, 0, 0))
        # for lam = 0 the t -> infinity limit 1/mu_total is part of the sup
        return max(sup, 1.0 / mu_total(self.params)) if self.params.lam == 0.0 else sup

    def grad_norms(self, theta, phi):
        return (self._sup(lambda ts: self._H(ts, theta, phi, 0, 1, 0)),
                self._sup(lambda ts: self._H(ts, theta, phi, 0, 0, 1)))

    def diff_norm(self, theta, theta2, phi):
        return self._sup(lambda ts: self._H(ts, theta, phi, 0, 0, 0)
                         - self._H(ts, theta2, phi, 0, 0, 0))


def _golden_max(f, lo: float, hi: float, iters: int) -> float:
    """Golden-section maximization of f on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
        best = max(best, fc, fd)
    return best


class RieszKernel(_KernelBase):
    """Order-N transform kernel (1/Gamma(N)) int_0^inf d_theta^N H_t t^(N-1) dt;
    N in {1, 2}.

    N = 1 takes its t-integral exactly, under the integral representation.
    At M = 0 each term of the (u, v) integrand is sinh(t/2) coef D^(-sigma-k)
    with D = s + q, s = cosh(t/2) - 1, and sinh(t/2) dt = 2 ds, so
        int_0^inf sinh(t/2) (s + q)^(-sigma-k) dt = 2 q^(1-sigma-k) / (sigma+k-1),
    and R_1 = -2 c_ab int int d_theta q q^(-sigma) dPi_alpha(u) dPi_beta(v)
    (kernel.t_integral_H, qpsi.PsiEvaluator.t_integral).  Every theta
    derivative term has k >= 1, so the form is finite for every sigma > 0,
    sigma = 1 (alpha + beta = -1, the Chebyshev case among them) included;
    the sinh correction has no theta derivative and drops out.  Off the
    diagonal q >= 2 sin^2((theta-phi)/4) > 0, which grades the (u, v) rules
    as the integral route's at t = 0.  No t rule, no spectral tail and no
    dropped (0, t_lo) piece remain.

    N = 2 keeps the t-quadrature: its weight t turns the same integral into
    G(q) = int_0^inf t sinh(t/2) (s + q)^(-kappa) dt per kappa = sigma + k,
    which has no elementary form.  It integrates the preset's small-t Gauss
    rule over integral-route values on [t_lo, 1], drops (0, t_lo), and
    closes [1, inf) by per-mode incomplete-Gamma integrals of the spectral
    series."""

    symmetric = False

    def __init__(self, params: JacobiParams, N: int, quality: str = DEFAULT_QUALITY):
        super().__init__(params, quality)
        if N not in (1, 2):
            raise ValueError(f"Riesz order must be 1 or 2, got {N}")
        self.N = N
        self.name = f"riesz{N}"

    def _value(self, theta, phi, dth=0, dph=0):
        N = self.N
        p = self.params
        if N == 1:
            return t_integral_H(p, theta, phi, 1 + dth, dph, **self.preset["integral"])
        ts, ws = self._t_rule()
        vals = self._H(ts, theta, phi, 0, N + dth, dph)
        small = float(np.sum(ws * vals * ts ** (N - 1)))
        a = p.rates(TAIL_N_CUT)
        coef = _coef(p, theta, N + dth) * _coef(p, phi, dph)
        nz = a > 0
        tail = float(np.sum(coef[nz] * specfun.gammaincc_times_gamma(N, a[nz]) / a[nz] ** N))
        return (small + tail) / math.gamma(N)

    norm, grad_norms, diff_norm = _abs_norm, _abs_grad_norms, _abs_diff_norm


class SquareFunctionKernel(_KernelBase):
    """Mixed square-function kernel of orders (M, N), M + N in {1, 2}."""

    def __init__(self, params: JacobiParams, M: int, N: int, quality: str = DEFAULT_QUALITY):
        super().__init__(params, quality)
        if M < 0 or N < 0 or not 1 <= M + N <= 2:
            raise ValueError(f"need M + N in {{1, 2}}, got M={M}, N={N}")
        self.M = M
        self.N = N
        self.symmetric = N == 0
        self.name = f"gfun{M}{N}"

    def _parts(self, theta, phi, dth=0, dph=0):
        """(small-t node values, spectral coefficients) of the kernel's
        d_theta^dth d_phi^dph derivative."""
        p = self.params
        ts, _ = self._t_rule()
        vals = self._H(ts, theta, phi, self.M, self.N + dth, dph)
        coef = (-p.rates(TAIL_N_CUT)) ** self.M * _coef(p, theta, self.N + dth) * _coef(
            p, phi, dph)
        return vals, coef

    def _l2_sq(self, vals, coef):
        """Squared L^2(t^(W-1) dt) norm: Gauss below t = 1, exact
        incomplete-Gamma closure of the spectral series above."""
        W = 2 * (self.M + self.N)
        ts, ws = self._t_rule()
        small = float(np.sum(ws * vals * vals * ts ** (W - 1)))
        a = self.params.rates(TAIL_N_CUT)
        s = a[:, None] + a[None, :]
        cc = coef[:, None] * coef[None, :]
        mask = (s > 0) & (cc != 0.0)
        tail = float(
            np.sum(cc[mask] * specfun.gammaincc_times_gamma(W, s[mask]) / s[mask] ** W)
        )
        return small + tail

    def norm(self, theta, phi):
        return math.sqrt(self._l2_sq(*self._parts(theta, phi)))

    def grad_norms(self, theta, phi):
        return (
            math.sqrt(self._l2_sq(*self._parts(theta, phi, dth=1))),
            math.sqrt(self._l2_sq(*self._parts(theta, phi, dph=1))),
        )

    def diff_norm(self, theta, theta2, phi):
        (v1, c1), (v2, c2) = self._parts(theta, phi), self._parts(theta2, phi)
        return math.sqrt(max(self._l2_sq(v1 - v2, c1 - c2), 0.0))


class LaplaceKernel(_KernelBase):
    """Laplace-transform-type multiplier kernel for a bounded profile."""

    symmetric = True

    def __init__(self, params: JacobiParams, profile: LaplaceProfile,
                 quality: str = DEFAULT_QUALITY):
        super().__init__(params, quality)
        self.profile = profile
        self.name = f"laplace[{profile.name}]"
        a0, a1 = params.rates(1)
        decay = float(a0 if a0 > 0 else a1)
        self.t_star = max(40.0, 34.0 / decay)
        if self.t_star > _T_STAR_CAP:
            raise TailError(
                f"Laplace kernel tail needs t* = {self.t_star:.3g} > cap {_T_STAR_CAP} "
                f"(spectral gap {decay:.3g} too small)"
            )

    def _value(self, theta, phi, dth=0, dph=0):
        p = self.params
        ts, ws = self._t_rule()
        small = np.sum(ws * self.profile.fn(ts) * self._H(ts, theta, phi, 1, dth, dph))
        a = p.rates(TAIL_N_CUT)
        coef = np.abs(_coef(p, theta, dth) * _coef(p, phi, dph))
        nz = a > 0
        t_star = self.t_star
        while True:
            tm, wm = _mid_t_rule(t_star)
            mid = np.sum(wm * self.profile.fn(tm) * series_H(p, tm, theta, phi, M=1, N=dth, L=dph))
            val = -(small + mid)
            with np.errstate(under="ignore"):
                bound = self.profile.sup_norm * float(
                    np.sum(coef[nz] * np.exp(-a[nz] * t_star))
                )
            if bound <= max(1e-12 * abs(val), 1e-300):
                break
            t_star *= 1.5
            if t_star > _T_STAR_CAP:
                raise TailError(
                    f"Laplace kernel tail beyond t*={t_star:.3g} not negligible "
                    f"(bound {bound:.3g} vs value {abs(val):.3g})"
                )
        return complex(val) if np.iscomplexobj(val) else float(val)

    norm, grad_norms, diff_norm = _abs_norm, _abs_grad_norms, _abs_diff_norm


class StieltjesKernel(_KernelBase):
    """Laplace-Stieltjes-type multiplier kernel for a finite atomic measure."""

    symmetric = True

    def __init__(self, params: JacobiParams, atoms: StieltjesAtoms,
                 quality: str = DEFAULT_QUALITY):
        super().__init__(params, quality)
        self.atoms = atoms
        self.name = "stieltjes"

    def _value(self, theta, phi, dth=0, dph=0):
        ts = np.asarray(self.atoms.times, dtype=float)
        h = kernel_H_batch(self.params, ts, theta, phi, N=dth, L=dph)
        total = np.sum(np.asarray(self.atoms.weights) * h)
        return complex(total) if np.iscomplexobj(total) else float(total)

    norm, grad_norms, diff_norm = _abs_norm, _abs_grad_norms, _abs_diff_norm


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def make_kernel(params: JacobiParams, kernel_id: str, quality: str = DEFAULT_QUALITY, **options):
    """Kernel registry for scans and the CLI (orders from DEFAULT_ORDERS)."""
    options = {**DEFAULT_ORDERS.get(kernel_id, {}), **options}
    if kernel_id == "maximal":
        return MaximalKernel(params, quality)
    if kernel_id == "riesz":
        return RieszKernel(params, options["N"], quality)
    if kernel_id == "gfun":
        return SquareFunctionKernel(params, options["M"], options["N"], quality)
    if kernel_id == "laplace":
        return LaplaceKernel(params, options.get("profile") or constant_profile(), quality)
    if kernel_id == "stieltjes":
        atoms = options.get("atoms") or StieltjesAtoms(times=(1.0,), weights=(1.0,))
        return StieltjesKernel(params, atoms, quality)
    raise ValueError(f"unknown kernel id {kernel_id!r}")


def _pairs(theta_grid, phi_grid):
    for theta in np.atleast_1d(theta_grid):
        for phi in np.atleast_1d(phi_grid):
            if theta != phi:
                yield float(theta), float(phi)


def _norm_probe(kernel, theta, phi):
    return kernel.norm(theta, phi)


def _grad_probe(kernel, theta, phi):
    # a sum, so a symmetric kernel's mirrored pair needs no (g2, g1) swap
    return sum(kernel.grad_norms(theta, phi))


def _stabilized(params, kernel, options, probe, theta, phi, coarse_val):
    """Re-run the worst probe point at 'scan_fine'; relative drift <= 1%."""
    fine_val = probe(make_kernel(params, kernel, quality="scan_fine", **options), theta, phi)
    return abs(fine_val - coarse_val) / max(abs(fine_val), 1e-300) <= 0.01


def _pair_check(kind, probe, sep_power, params, kernel, theta_grid, phi_grid, cap,
                options) -> EstimateReport:
    """ratio = probe * |theta-phi|^sep_power * mu(B(theta, |theta-phi|)) per
    off-diagonal grid pair, at the 'scan' preset; the worst pair is the
    first strict maximum, re-checked by _stabilized.  A cap outside
    (0, inf) and grid angles outside [0, pi] are refused before any
    evaluation."""
    check_cap(cap)
    check_angle_range(theta_grid, phi_grid)
    options = options or {}
    k = make_kernel(params, kernel, quality="scan", **options)
    pairs = list(_pairs(theta_grid, phi_grid))
    values = pair_map(partial(probe, k), pairs, k.symmetric)
    rows = []
    for (theta, phi), v in zip(pairs, values):
        sep = abs(theta - phi)
        w = sep ** sep_power
        ball = mu_ball(params, theta, sep)
        rows.append((theta, phi, v, 1.0 / (w * ball), v * w * ball))
    worst = (-math.inf, None)
    for theta, phi, v, _, ratio in rows:
        if ratio > worst[0]:
            worst = (ratio, (theta, phi, v))
    meta = {"alpha": params.alpha, "beta": params.beta, "kernel": k.name}
    if worst[1] is not None:
        meta["stabilized"] = None if worst[0] < 1e-3 else _stabilized(
            params, kernel, options, probe, *worst[1])
    return EstimateReport(kind=kind, columns=("theta", "phi", "norm", "bound", "ratio"),
                          rows=rows, cap=cap, meta=meta)


def growth_check(params: JacobiParams, kernel, theta_grid, phi_grid, cap: float = ESTIMATE_CAP,
                 options: dict | None = None) -> EstimateReport:
    """ratio = ||K|| * mu(B(theta, |theta-phi|)) per grid point.

    kernel is a kernel id, built by make_kernel at the 'scan' preset with
    options.  The worst grid point is re-evaluated at 'scan_fine' and the
    report records whether it moved by at most 1%.
    """
    return _pair_check("growth", _norm_probe, 0, params, kernel, theta_grid, phi_grid, cap,
                       options)


def gradient_check(params: JacobiParams, kernel, theta_grid, phi_grid, cap: float = ESTIMATE_CAP,
                   options: dict | None = None) -> EstimateReport:
    """ratio = (||d_theta K|| + ||d_phi K||) |theta-phi| mu(B) per grid point."""
    return _pair_check("gradient", _grad_probe, 1, params, kernel, theta_grid, phi_grid, cap,
                       options)


def smoothness_check(params: JacobiParams, kernel, n_samples: int = 100, seed: int = 7,
                     cap: float = ESTIMATE_CAP, options: dict | None = None) -> EstimateReport:
    """Samples ||K(theta,.) - K(theta',.)|| on triples with
    |theta - phi| > 2 |theta - theta'| against the first smoothness bound,
    at the 'scan' preset.  A cap outside (0, inf) and fewer than one sample
    are refused before any evaluation."""
    check_cap(cap)
    if n_samples < 1:
        raise ValueError(f"the smoothness scan needs n_samples >= 1, got {n_samples}")
    options = options or {}
    k = make_kernel(params, kernel, quality="scan", **options)
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n_samples:
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.05, math.pi - 0.05)
        sep = abs(theta - phi)
        if sep < 0.1:
            continue
        step = sep * rng.uniform(0.05, 0.49) * (1.0 if rng.random() < 0.5 else -1.0)
        theta2 = theta + step
        if not 0.0 < theta2 < math.pi or abs(theta2 - phi) < 1e-6:
            continue
        ball = mu_ball(params, theta, sep)
        diff = k.diff_norm(theta, theta2, phi)
        bound = abs(step) / (sep * ball)
        rows.append((theta, theta2, phi, diff, bound, diff / bound))
    return EstimateReport(
        kind="smoothness",
        columns=("theta", "theta2", "phi", "diff_norm", "bound", "ratio"),
        rows=rows,
        cap=cap,
        meta={"alpha": params.alpha, "beta": params.beta, "kernel": k.name},
    )
