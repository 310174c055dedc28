"""Acceptance gate: every exit criterion as one test, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines as they complete; `pytest -v` shows the same information
through the test names.
"""

import math
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from jpkernel.basis import OrthonormalBasis, theta_quad_rule, trig_poly_table
from jpkernel.czkernels import (
    StieltjesAtoms,
    gradient_check,
    growth_check,
    imaginary_power_profile,
    constant_profile,
    smoothness_check,
)
from jpkernel.kernel import (
    KernelQuery,
    closed_form_chebyshev,
    h_script_f4,
    h_script_general,
    h_script_integral,
    jph_correction,
    kernel_eval,
    series_H,
)
from jpkernel.operators import Expansion, g_function, multiplier_apply, semigroup_apply
from jpkernel.params import JacobiParams
from jpkernel.sharp import long_time_fit, ratio_scan

from _basis_reference import trig_poly_deriv
from conftest import ACCEPTANCE_SETS, unit_expansion

GRID_THETA = [0.01, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 0.01]


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_01_cross_method_agreement():
    start = time.time()
    worst_tight = 0.0
    worst_relaxed = 0.0

    def one(job):
        (a, b), t, theta, phi = job
        p = JacobiParams(a, b)
        corr = float(jph_correction(p, t))
        vals = [
            series_H(p, t, theta, phi),
            h_script_f4(p, t, theta, phi) + corr,
            float(h_script_integral(p, t, theta, phi)) + corr,
            h_script_general(p, t, theta, phi) + corr,
        ]
        rel = (max(vals) - min(vals)) / abs(sum(vals) / 4)
        relaxed = t == 0.1 and abs(theta - phi) < 0.05
        return rel, relaxed

    jobs = [
        (ab, t, th, ph)
        for ab in ACCEPTANCE_SETS
        for t in (0.1, 0.5, 1.0)
        for th in GRID_THETA
        for ph in GRID_THETA
    ]
    for rel, relaxed in map(one, jobs):
        if relaxed:
            worst_relaxed = max(worst_relaxed, rel)
        else:
            worst_tight = max(worst_tight, rel)
    elapsed = time.time() - start
    ok = worst_tight <= 1e-6 and worst_relaxed <= 1e-4 and elapsed <= 120.0
    report(
        "criterion 1 (cross-method agreement)",
        ok,
        f"max rel diff {worst_tight:.2e} (tight) {worst_relaxed:.2e} (near-diagonal band), "
        f"{elapsed:.0f}s <= 120s",
    )


def test_criterion_02_chebyshev_closed_form():
    p = JacobiParams(-0.5, -0.5)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        t = float(np.exp(rng.uniform(math.log(0.1), math.log(20.0))))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, math.pi))
        got = kernel_eval(p, KernelQuery(t=t, theta=theta, phi=phi))
        ref = closed_form_chebyshev(t, theta, phi)
        worst = max(worst, abs(got - ref) / abs(ref))
    report("criterion 2 (closed-form oracle)", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_03_mass_identity():
    worst = 0.0
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        rule = theta_quad_rule(p, 256)
        for t in (0.5, 1.0, 5.0):
            vals = series_H(p, t, 1.1, rule.nodes)
            mass = float(np.sum(rule.weights * vals))
            worst = max(worst, abs(mass - math.exp(-0.5 * t * abs(p.lam))))
    report("criterion 3 (mass identity)", worst <= 1e-8, f"max abs err {worst:.2e}")


def test_criterion_04_semigroup_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        rule = theta_quad_rule(p, 256)
        for s, t in ((0.3, 0.7), (1.0, 1.0)):
            for _ in range(10):
                theta = float(rng.uniform(0, math.pi))
                phi = float(rng.uniform(0, math.pi))
                left = series_H(p, s, theta, rule.nodes)
                right = series_H(p, t, phi, rule.nodes)
                composed = float(np.sum(rule.weights * left * right))
                ref = series_H(p, s + t, theta, phi)
                worst = max(worst, abs(composed - ref) / abs(ref))
    report("criterion 4 (semigroup identity)", worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_05_orthonormality():
    worst = 0.0
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        rule = theta_quad_rule(p, 64)
        table = trig_poly_table(p, 30, rule.nodes)
        gram = (table * rule.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(31)))))
    report("criterion 5 (orthonormality)", worst <= 1e-9, f"max Gram deviation {worst:.2e}")


def test_criterion_06_sharp_estimates():
    t_grid = np.geomspace(0.05, 1.0, 8)
    grid = np.linspace(0.0, math.pi, 25)
    worst_band = 0.0
    worst_rate_margin = math.inf
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        scan = ratio_scan(p, t_grid, grid, grid, cap=50.0)
        band = scan.ratio_max / scan.ratio_min
        worst_band = max(worst_band, band)
        eps = min(a + b + 2.0, 1.0)
        for theta, phi in ((0.9, 2.1), (0.3, 0.5), (2.8, 1.4)):
            rate, _ = long_time_fit(p, theta, phi)
            worst_rate_margin = min(worst_rate_margin, rate / (eps / 2.0))
    ok = worst_band <= 50.0 and worst_rate_margin >= 0.8
    report(
        "criterion 6 (sharp estimates)",
        ok,
        f"worst short-time ratio band {worst_band:.2f} <= 50, "
        f"worst long-time rate margin {worst_rate_margin:.2f} >= 0.8",
    )


def test_criterion_07_standard_estimates():
    grid = np.linspace(0.15, math.pi - 0.15, 15)
    kernels = [
        ("maximal", {}),
        ("riesz", {"N": 1}),
        ("gfun", {"M": 1, "N": 0}),
        ("laplace", {"profile": imaginary_power_profile(1.0)}),
        ("stieltjes", {"atoms": StieltjesAtoms((0.5, 2.0), (1.0, 0.5))}),
    ]
    worst = 0.0
    failures = []
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        for kid, opts in kernels:
            for check in (growth_check, gradient_check):
                rep = check(p, kid, grid, grid, cap=1e3, options=opts)
                worst = max(worst, rep.ratio_max)
                if not rep.passed or rep.meta.get("stabilized") is False:
                    failures.append((a, b, kid, check.__name__, rep.ratio_max,
                                     rep.meta.get("stabilized")))
        for i, (kid, opts) in enumerate(kernels):
            rep = smoothness_check(p, kid, n_samples=20, seed=100 + i, cap=1e3, options=opts)
            worst = max(worst, rep.ratio_max)
            if not rep.passed:
                failures.append((a, b, kid, "smoothness", rep.ratio_max, None))
    report(
        "criterion 7 (standard estimates)",
        not failures,
        f"worst ratio {worst:.3g} vs cap 1e3; failures: {failures or 'none'}",
    )


def test_criterion_08_riesz_spectral_identity():
    from _dualroute import RieszKernelRoute

    cases = [(0.5, 0.5, 0.9), (0.5, -0.75, 1.7), (-0.75, -0.75, 2.3)]
    worst = 0.0
    for a, b, theta in cases:
        p = JacobiParams(a, b)
        basis = OrthonormalBasis(p, 8)
        for order in (1, 2):
            route = RieszKernelRoute(p, order, theta)
            table = trig_poly_table(p, 8, route.rule.nodes)
            for n in range(1, 7):
                got = route.apply(table[n])
                a_n = abs(n + 0.5 * p.lam)
                ref = a_n ** (-float(order)) * trig_poly_deriv(basis, n, theta, order)
                worst = max(worst, abs(got - ref) / abs(ref))
    report("criterion 8 (Riesz spectral identity)", worst <= 1e-5, f"max rel err {worst:.2e}")


def test_criterion_09_square_function_closed_form():
    thetas = np.linspace(0.1, math.pi - 0.1, 20)
    worst = 0.0
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        basis = OrthonormalBasis(p, 5)
        table = trig_poly_table(p, 5, thetas)
        for n in range(6):
            got = g_function(unit_expansion(basis, n), 1, 0, thetas)
            ref = np.abs(table[n]) / 2.0
            if n == 0 and p.lam == 0.0:
                ref = np.zeros_like(ref)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    report("criterion 9 (square-function closed form)", worst <= 1e-8,
           f"max abs err {worst:.2e}")


def test_criterion_10_multiplier_identities():
    rng = np.random.default_rng(11)
    worst_const = 0.0
    worst_atom = 0.0
    worst_parseval = 0.0
    for a, b in ACCEPTANCE_SETS:
        p = JacobiParams(a, b)
        basis = OrthonormalBasis(p, 10)
        exp = Expansion(basis, rng.normal(size=11))
        if p.lam != 0.0:
            out = multiplier_apply(exp, constant_profile())
            worst_const = max(worst_const, float(np.max(np.abs(out.coeffs - exp.coeffs))))
        atom = multiplier_apply(exp, StieltjesAtoms((0.8,), (1.0,)))
        ref = semigroup_apply(exp, 0.8)
        worst_atom = max(worst_atom, float(np.max(np.abs(atom.coeffs - ref.coeffs))))
        im = multiplier_apply(exp, imaginary_power_profile(0.75))
        worst_parseval = max(
            worst_parseval,
            abs(float(np.sum(np.abs(im.coeffs) ** 2) - np.sum(exp.coeffs**2))),
        )
    ok = worst_const <= 1e-10 and worst_atom <= 1e-13 and worst_parseval <= 1e-12
    report(
        "criterion 10 (multiplier identities)",
        ok,
        f"const-profile {worst_const:.2e} <= 1e-10, atom-vs-semigroup {worst_atom:.2e}, "
        f"imaginary-power Parseval {worst_parseval:.2e} <= 1e-12",
    )
