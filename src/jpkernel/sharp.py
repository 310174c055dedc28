"""Two-sided sharp-bound comparator for the kernel and empirical ratio scans.

Short time (t <= 1) the kernel is comparable with
    (t^2 + theta^2 + phi^2)^(-alpha-1/2)
    * (t^2 + (pi-theta)^2 + (pi-phi)^2)^(-beta-1/2) * t / (t^2 + (theta-phi)^2),
long time (t >= 1) with exp(-t |lam| / 2) for H and exp(-t lam / 2) for the
companion kernel.  The comparability constants are not specified by the
theory, so scans record the empirical min/max ratio and check max/min
against a configurable cap.  The kernel comes from kernel_H_batch, as
'auto' evaluates it, each t by the route kernel.route_plan names; the
integral route runs at SCAN_RTOL.  Angles outside [0, pi] are refused.
"""

from __future__ import annotations

import math

import numpy as np

from jpkernel._parallel import pair_map
from jpkernel.kernel import check_angle_range, jph_correction, kernel_H_batch
from jpkernel.params import JacobiParams
from jpkernel.report import EstimateReport, check_cap

EXCLUDE_NEAR_MINUS_ONE = -0.9  # scans beyond this are reported, not gated
SCAN_RTOL = 1e-7  # the integral route's rtol in ratio scans (the series and F4 keep theirs)
COMPARATORS = ("H", "Hscript")  # the kernels a comparator bounds: H and the companion


def _check_which(which):
    """Raise ValueError unless which names a kernel of COMPARATORS."""
    if which not in COMPARATORS:
        raise ValueError(f"which must be 'H' or 'Hscript', got {which!r}")


def comparator(params: JacobiParams, t: float, theta: float, phi: float, which: str = "H") -> float:
    """Short-time comparator for t <= 1, long-time for t > 1 (both regimes
    are valid at t = 1 exactly); theta and phi must lie in [0, pi]."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    check_angle_range(theta, phi)
    _check_which(which)
    if t > 1.0:
        lam = params.lam
        return math.exp(-0.5 * t * (abs(lam) if which == "H" else lam))
    a, b = params.alpha, params.beta
    return (
        (t * t + theta * theta + phi * phi) ** (-a - 0.5)
        * (t * t + (math.pi - theta) ** 2 + (math.pi - phi) ** 2) ** (-b - 0.5)
        * t
        / (t * t + (theta - phi) ** 2)
    )


def ratio_scan(params: JacobiParams, t_grid, theta_grid, phi_grid, which: str = "H",
               cap: float = 50.0) -> EstimateReport:
    """Per-point ratio kernel / comparator over the grid; pass iff max/min <= cap.

    The kernel is symmetric in (theta, phi), so each unordered pair is
    evaluated once, in the order theta <= phi, and both of its rows take
    that batch; each row keeps its own comparator, and the rows keep the
    grid's order.  Grid angles outside [0, pi] are refused up front.
    """
    _check_which(which)
    check_cap(cap)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    check_angle_range(theta_grid, phi_grid)

    def kernel_vals(theta, phi):
        h_vals = kernel_H_batch(params, t_grid, theta, phi, rtol=SCAN_RTOL)
        if which == "Hscript":
            h_vals = h_vals - jph_correction(params, t_grid)
        return h_vals

    pairs = [(float(th), float(ph)) for th in theta_grid for ph in phi_grid]
    rows = []
    for (theta, phi), h_vals in zip(pairs, pair_map(kernel_vals, pairs, symmetric=True)):
        for t, h in zip(t_grid, h_vals):
            comp = comparator(params, float(t), theta, phi, which=which)
            rows.append((float(t), theta, phi, float(h), comp, float(h) / comp))
    meta = {
        "alpha": params.alpha,
        "beta": params.beta,
        "which": which,
        "excluded_from_pass": bool(
            params.alpha <= EXCLUDE_NEAR_MINUS_ONE or params.beta <= EXCLUDE_NEAR_MINUS_ONE
        ),
    }
    return EstimateReport(
        kind="sharp",
        columns=("t", "theta", "phi", "kernel", "comparator", "ratio"),
        rows=rows,
        cap=cap,
        two_sided=True,
        meta=meta,
    )


def long_time_fit(params: JacobiParams, theta: float, phi: float):
    """Fit exp(t |lam|/2) H_t -> 2^lam c_ab residual decay on 16 equally
    spaced t in [5, 20].

    Returns (rate, log_amplitude) from a log-linear regression of the
    absolute residual; rate is the decay exponent (positive).
    """
    t = np.linspace(5.0, 20.0, 16)
    h = kernel_H_batch(params, t, theta, phi)
    limit = 2.0**params.lam * params.c_ab  # = 1 / mu_total
    resid = np.abs(np.exp(0.5 * t * abs(params.lam)) * h - limit)
    floor = 1e-15 * limit
    mask = resid > floor
    if mask.sum() < 4:
        raise ValueError(f"long-time residual at machine floor on {16 - mask.sum()} of 16 points")
    slope, intercept = np.polyfit(t[mask], np.log(resid[mask]), 1)
    return -float(slope), float(intercept)
