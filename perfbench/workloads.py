"""The three workloads: seeded inputs, how one op runs, and how it is checked.

An op is a plain dict of numbers and strings, so it can be hashed, listed with
a failure and handed to a fresh interpreter.  Ops come in rounds, and every
round of a workload runs the same design points, jittered anew; ``point`` in
an op names its design point.

Each workload has two halves.  ``call_<workload>(op)`` is the timed part: it
calls the package and returns what it produced.  ``judge_<workload>(op, out)``
is the untimed check: it returns the worst relative deviation from the
workload's reference (or None) and a list of problems; an op with any
problem, or whose call raised, counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

from jpkernel import czkernels, kernel, sharp
from jpkernel.params import JacobiParams

# The parameter sets of the acceptance suite (tests/conftest.py); together
# they cover all four quadrants of the (alpha, beta) case split.
ACCEPTANCE_SETS = [
    (0.5, 0.5),
    (-0.75, 0.5),
    (0.5, -0.75),
    (-0.75, -0.75),
    (0.0, 0.0),
    (2.0, -0.25),
]
CHEB = (-0.5, -0.5)  # the closed-form (Chebyshev) case
POINT_SETS = ACCEPTANCE_SETS + [CHEB]
QUADRANT_SETS = ACCEPTANCE_SETS[:4]  # one set per case (i)-(iv)

# Criterion 1 of the acceptance suite: routes agree to TIGHT, or to BAND in
# the near-diagonal band at small t.
TIGHT = 1e-6
BAND = 1e-4
BAND_SEP = 0.05
BAND_T = 0.1
CLOSED_FORM_RTOL = 1e-10  # criterion 2, applies for t >= 0.1
CRIT2_T_MIN = 0.1
ROUTE_RTOL = {"integral": 1e-9, "general": 5e-8}  # each route's own default rtol

# pointwise: t in [T_LO, T_HI] and |theta - phi| in [SEP_LO, pi], log-spread.
T_LO, T_HI = 0.01, 2.0
SEP_LO = 1e-2
VALUE_OPS_PER_ROUND = 32
# Derivative orders (M, N, L) of the derivative slice: every order the
# operator-kernel scans ask of the integral route, plus N + M = 3.
DERIVS = [(0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 0, 1),
          (0, 3, 0), (1, 2, 1)]
# The tiny-t slice sits at the fixed points of the ROADMAP's accuracy table
# (theta = 1, on and 1e-7 off the diagonal), so it repeats exactly in every round.
TINY_TS = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
TINY_THETA = 1.0
TINY_SEPS = [0.0, 1e-7]

# sharp: one ratio scan per set on a jittered grid, t in [0.05, 1].
SHARP_T = (0.05, 1.0, 12)
SHARP_GRID = 5
SHARP_VARIANTS = 4  # grids per set and round, offset by a quarter cell each
SHARP_CAP = 50.0
SHARP_SPOT_ROWS = 1
RATE_MARGIN = 0.8  # criterion 6: long-time decay rate >= 0.8 * eps / 2

# cz-scan: every kernel family x scan x quadrant set, at the 'scan' preset.
CZ_FAMILIES = {
    "maximal": {},
    "riesz": {"N": 1},
    "gfun": {"M": 1, "N": 0},
    "laplace": {"profile": ("imaginary", 1.0)},
    "stieltjes": {"atoms": ((0.5, 2.0), (1.0, 0.5))},
}
CZ_SCANS = ("growth", "gradient", "smoothness")
CZ_GRID = 4
CZ_SAMPLES = 4
CZ_CAP = 1e3

WORKLOADS = ("pointwise", "sharp", "cz-scan")

# Design points that fail at the commit that added the benchmark, with every
# way each was seen to fail (failure_kind of its problems).  They run and
# count as failed like any other op.  `correct` stays true while each of them
# either passes or fails only in a recorded way, and every other op passes.
_TINY_FIRST = VALUE_OPS_PER_ROUND + len(DERIVS)  # point of the first tiny-t op
_OFF = {"integral off the closed form", "general off the closed form"}
KNOWN_FAILURES = {
    "pointwise": {
        # The first derivative op, (M, N, L) = (0, 1, 0) at alpha = beta = 0.5,
        # sits on the design's corner: t = 0.01, theta = 0, |theta - phi| = 0.01.
        # The integral route fails to stabilize there in about one jitter in four.
        VALUE_OPS_PER_ROUND: {"integral raised QuadratureError"},
        # The tiny-t slice: from t = 1e-4 down both routes drift off the closed
        # form; at t = 1e-8 on the diagonal both raise.
        **{_TINY_FIRST + k: _OFF for k in range(len(TINY_TS) * len(TINY_SEPS))},
        _TINY_FIRST + 2 * TINY_TS.index(1e-8): {"integral raised QuadratureError",
                                                "general raised ZeroDivisionError"},
    },
    "sharp": {},
    "cz-scan": {},
}


def failure_kind(problem: str) -> str:
    """A problem without its numbers: 'integral off the closed form by 3e-08 > 1e-09'
    -> 'integral off the closed form', 'general raised ZeroDivisionError: ...'
    -> 'general raised ZeroDivisionError'."""
    return problem.split(":")[0].split(" by ")[0]


def expected_failure(workload: str, op: dict, problems: list) -> bool:
    """True if the op is a known failing point and failed only in recorded ways."""
    kinds = KNOWN_FAILURES[workload].get(op.get("point"))
    return kinds is not None and all(failure_kind(p) in kinds for p in problems)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def rounds(workload: str, seed: int, stream: int = 0):
    """Endless stream of rounds (lists of ops) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    gen = {"pointwise": _pointwise_rounds, "sharp": _sharp_rounds, "cz-scan": _cz_rounds}[workload]
    return gen(np.random.default_rng([seed, stream]))


WARMUP_OPS = 8


def warmup_ops(workload: str, seed: int):
    """Ops apart from the measured ones (another jitter of the same design),
    run before timing starts to fill the package's caches."""
    return next(rounds(workload, seed, stream=1))[:WARMUP_OPS]


# Every workload has a fixed design, the same in every round: the first
# points of an unscrambled Sobol sequence, or the cells of a grid.  The seed
# jitters each point within 2% of its cell in every round and shuffles
# the order of the ops, so runs with different seeds get different inputs of
# the same cost structure, and every round of a run costs about the same.
JITTER = 0.02  # share of a cell


def _log_spread(u, lo, hi):
    return float(lo * (hi / lo) ** u)


def _pair(u_pos, sep):
    """(theta, phi) in [0, pi] with |theta - phi| = sep; u_pos places the pair
    and, through its upper half, picks which of the two is larger."""
    lo = float(2.0 * u_pos % 1.0) * (math.pi - sep)
    return (lo + sep, lo) if u_pos >= 0.5 else (lo, lo + sep)


def _numbered(ops):
    """Tag each op with its design point, the same in every round."""
    for k, op in enumerate(ops):
        op["point"] = k
    return ops


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _pointwise_rounds(rng):
    from scipy.stats import qmc  # imported here: first_op.py times imports, and this is not jpkernel's

    n = VALUE_OPS_PER_ROUND
    # dims 0-3 place the value ops, dims 4-7 the derivative ops
    design = qmc.Sobol(d=8, scramble=False).random(n)
    while True:
        pts = design.copy()
        pts[:, [0, 1, 3, 4, 5, 7]] += rng.uniform(-JITTER, JITTER, (n, 6)) / n
        pts = np.clip(pts, 0.0, np.nextafter(1.0, 0.0))
        ops = []
        for u in pts:
            a, b = POINT_SETS[int(u[2] * len(POINT_SETS))]
            theta, phi = _pair(u[3], _log_spread(u[1], SEP_LO, math.pi))
            ops.append(dict(kind="value", alpha=a, beta=b, t=_log_spread(u[0], T_LO, T_HI),
                            theta=theta, phi=phi))
        for d, u in zip(DERIVS, pts[:, 4:]):
            a, b = POINT_SETS[int(u[2] * len(POINT_SETS))]
            theta, phi = _pair(u[3], _log_spread(u[1], SEP_LO, math.pi))
            ops.append(dict(kind="deriv", alpha=a, beta=b, t=_log_spread(u[0], T_LO, T_HI),
                            theta=theta, phi=phi, deriv=list(d)))
        for t in TINY_TS:
            for sep in TINY_SEPS:
                ops.append(dict(kind="tiny", alpha=CHEB[0], beta=CHEB[1], t=t, theta=TINY_THETA,
                                phi=TINY_THETA + sep))
        yield _shuffled(rng, _numbered(ops))


def _jittered_grid(rng, n, lo=0.0, hi=math.pi, offset=0.5):
    """n points at the same offset within each of n equal cells of [lo, hi], jittered."""
    cells = np.arange(n) + offset + rng.uniform(-JITTER, JITTER, n)
    return [float(x) for x in lo + (hi - lo) * cells / n]


def _sharp_rounds(rng):
    lo, hi, n = SHARP_T
    while True:
        ops = []
        for a, b in POINT_SETS:
            for v in range(SHARP_VARIANTS):
                t_grid = np.geomspace(lo, hi, n) * np.exp(rng.uniform(-0.01, 0.01, n))
                ops.append(dict(alpha=a, beta=b, t_grid=[float(x) for x in np.clip(t_grid, lo, hi)],
                                theta_grid=_jittered_grid(rng, SHARP_GRID, offset=(v + 0.5) / SHARP_VARIANTS),
                                fit_point=[0.8 + rng.uniform(-0.1, 0.1), 2.3 + rng.uniform(-0.1, 0.1)]))
        yield _shuffled(rng, _numbered(ops))


def _cz_rounds(rng):
    first = True
    while True:
        ops = []
        for family in CZ_FAMILIES:
            for scan in CZ_SCANS:
                for a, b in QUADRANT_SETS:
                    ops.append(dict(family=family, scan=scan, alpha=a, beta=b,
                                    grid=_jittered_grid(rng, CZ_GRID, 0.15, math.pi - 0.15),
                                    sample_seed=len(ops),  # smoothness samples: part of the design
                                    reference=first))  # check against scan_fine in the first round
        first = False
        yield _shuffled(rng, _numbered(ops))


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def f4_in_domain(t, theta, phi):
    """The documented convergence domain of the F4 route."""
    rho = math.cos(0.5 * (theta - phi)) / math.cosh(0.5 * t)
    return rho < 1.0 - kernel.F4_EPS_CONV


def _routes(op):
    """(name, thunk) for every route that supports the op; thunks give H."""
    p = JacobiParams(op["alpha"], op["beta"])
    t, theta, phi = op["t"], op["theta"], op["phi"]
    M, N, L = op.get("deriv", (0, 0, 0))
    corr = float(kernel.jph_correction(p, t, M=M)) if N == 0 and L == 0 else 0.0
    out = []
    if op["kind"] == "tiny":
        out.append(("integral", lambda: float(kernel.h_script_integral(p, t, theta, phi)) + corr))
        out.append(("general", lambda: kernel.h_script_general(p, t, theta, phi) + corr))
        return out
    out.append(("series", lambda: float(kernel.series_H(p, t, theta, phi, M=M, N=N, L=L))))
    if op["kind"] == "value" and f4_in_domain(t, theta, phi):
        out.append(("f4", lambda: kernel.h_script_f4(p, t, theta, phi) + corr))
    out.append(("integral", lambda: float(
        kernel.h_script_integral(p, t, theta, phi, deriv=(M, N, L))) + corr))
    if op["kind"] == "value":
        out.append(("general", lambda: kernel.h_script_general(p, t, theta, phi) + corr))
    return out


def call_pointwise(op):
    """Evaluate the op's point by every route; a raising route is recorded,
    not propagated, so the other routes still run."""
    out = {}
    for name, thunk in _routes(op):
        try:
            out[name] = thunk()
        except Exception as exc:  # every failure of a route counts, whatever its type
            out[name] = exc
    return out


def judge_pointwise(op, out):
    problems = [f"{name} raised {type(v).__name__}: {v}" for name, v in out.items()
                if isinstance(v, BaseException)]
    vals = {name: v for name, v in out.items() if not isinstance(v, BaseException)}
    for name, v in vals.items():
        if not math.isfinite(v):
            problems.append(f"{name} gave {v}")
    vals = {name: v for name, v in vals.items() if math.isfinite(v)}
    if not vals:
        return None, problems
    t, sep = op["t"], abs(op["theta"] - op["phi"])
    cheb = (op["alpha"], op["beta"]) == CHEB and op["kind"] != "deriv"
    if cheb:
        ref = kernel.closed_form_chebyshev(t, op["theta"], op["phi"])
    else:
        ref = float(np.median(list(vals.values())))
    scale = abs(ref) or 1e-300
    dev = {name: abs(v - ref) / scale for name, v in vals.items()}
    if op["kind"] == "tiny":
        for name, d in dev.items():
            if d > ROUTE_RTOL[name]:
                problems.append(f"{name} off the closed form by {d:.3g} > {ROUTE_RTOL[name]:g}")
    else:
        spread = (max(vals.values()) - min(vals.values())) / abs(float(np.mean(list(vals.values()))) or 1e-300)
        tol = BAND if (t <= BAND_T and sep < BAND_SEP) else TIGHT
        if spread > tol:
            problems.append(f"route spread {spread:.3g} > {tol:g} over {sorted(vals)}")
        if cheb and t >= CRIT2_T_MIN:
            auto = kernel.resolve_method("auto", t)
            if auto in dev and dev[auto] > CLOSED_FORM_RTOL:
                problems.append(f"{auto} off the closed form by {dev[auto]:.3g} > {CLOSED_FORM_RTOL:g}")
    return max(dev.values()), problems


# ---------------------------------------------------------------------------
# sharp
# ---------------------------------------------------------------------------

def call_sharp(op):
    p = JacobiParams(op["alpha"], op["beta"])
    grid = np.asarray(op["theta_grid"])
    report = sharp.ratio_scan(p, np.asarray(op["t_grid"]), grid, grid, cap=SHARP_CAP)
    rate, _ = sharp.long_time_fit(p, *op["fit_point"])
    return report, rate


def judge_sharp(op, out):
    report, rate = out
    problems = []
    ab = (op["alpha"], op["beta"])
    if not report.passed and not report.meta.get("excluded_from_pass"):
        problems.append(f"ratio band {report.ratio_max / report.ratio_min:.3g} > cap {SHARP_CAP:g}")
    eps = min(op["alpha"] + op["beta"] + 2.0, 1.0)
    if not rate >= RATE_MARGIN * eps / 2.0:
        problems.append(f"long-time rate {rate:.3g} < {RATE_MARGIN} * {eps / 2.0:.3g}")
    rows = np.asarray(report.rows, dtype=float)  # t, theta, phi, kernel, comparator, ratio
    if ab == CHEB:
        ref = kernel.closed_form_chebyshev(rows[:, 0], rows[:, 1], rows[:, 2])
        dev = float(np.max(np.abs(rows[:, 3] - ref) / np.abs(ref)))
        if dev > 1e-7:
            problems.append(f"kernel column off the closed form by {dev:.3g} > 1e-7")
        return dev, problems
    # Elsewhere: a spot row that the integral route computed (t below the
    # auto split), off the diagonal, against the series route.
    p = JacobiParams(*ab)
    cand = np.flatnonzero((rows[:, 0] < kernel.AUTO_SPLIT_T) & (np.abs(rows[:, 1] - rows[:, 2]) >= BAND_SEP))
    dev = 0.0
    for i in cand[:SHARP_SPOT_ROWS]:
        t, theta, phi, h = rows[i, :4]
        ref = float(kernel.series_H(p, t, theta, phi))
        dev = max(dev, abs(h - ref) / abs(ref))
    if dev > TIGHT:
        problems.append(f"spot rows off the series route by {dev:.3g} > {TIGHT:g}")
    return (dev if len(cand) else None), problems


# ---------------------------------------------------------------------------
# cz-scan
# ---------------------------------------------------------------------------

def _cz_options(family):
    opts = dict(CZ_FAMILIES[family])
    if "profile" in opts:
        opts["profile"] = czkernels.imaginary_power_profile(opts["profile"][1])
    if "atoms" in opts:
        opts["atoms"] = czkernels.StieltjesAtoms(*opts["atoms"])
    return opts


def call_cz(op):
    p = JacobiParams(op["alpha"], op["beta"])
    opts = _cz_options(op["family"])
    grid = np.asarray(op["grid"])
    if op["scan"] == "growth":
        return czkernels.growth_check(p, op["family"], grid, grid, cap=CZ_CAP, options=opts)
    if op["scan"] == "gradient":
        return czkernels.gradient_check(p, op["family"], grid, grid, cap=CZ_CAP, options=opts)
    return czkernels.smoothness_check(p, op["family"], n_samples=CZ_SAMPLES, seed=op["sample_seed"],
                                      cap=CZ_CAP, options=opts)


def judge_cz(op, report):
    problems = []
    if not report.passed:
        problems.append(f"worst ratio {report.ratio_max:.3g} beyond cap {CZ_CAP:g}")
    if report.meta.get("stabilized") is False:
        problems.append("worst point moved by more than 1% at scan_fine")
    if not op["reference"]:
        return None, problems
    # Reference: the worst point again, at the finer 'scan_fine' preset.
    p = JacobiParams(op["alpha"], op["beta"])
    fine = czkernels.make_kernel(p, op["family"], quality="scan_fine", **_cz_options(op["family"]))
    worst = max(report.rows, key=lambda row: row[-1])
    if op["scan"] == "growth":
        coarse, ref = worst[2], fine.norm(worst[0], worst[1])
    elif op["scan"] == "gradient":
        coarse, ref = worst[2], sum(fine.grad_norms(worst[0], worst[1]))
    else:
        coarse, ref = worst[3], fine.diff_norm(worst[0], worst[1], worst[2])
    return abs(coarse - ref) / max(abs(ref), 1e-300), problems


CALL = {"pointwise": call_pointwise, "sharp": call_sharp, "cz-scan": call_cz}
JUDGE = {"pointwise": judge_pointwise, "sharp": judge_sharp, "cz-scan": judge_cz}
