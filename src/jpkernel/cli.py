"""Command-line front end.

Subcommands: kernel, compare, scan, apply, coeffs.  Every numeric path is a
library call; this module only parses flags, shuttles files and formats
output.  Exit codes: 0 success/pass, 2 usage error, 3 numeric failure,
4 estimate-cap (or tolerance) violation.

Optional flag values take precedence over an optional --config JSON file,
which takes precedence over built-in defaults; a value neither sets keeps
the library's default.  Required flags come from the command line only.
Floats are printed with repr (shortest round-trip form); the kernel
command prints 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from jpkernel import czkernels, operators, sharp
from jpkernel.errors import JPKError
from jpkernel.kernel import METHODS, KernelQuery, kernel_eval
from jpkernel.params import JacobiParams
from jpkernel.report import EstimateReport, format_float

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4


class UsageError(Exception):
    pass


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Comma list '0.1,0.2' or linspace shorthand 'lo:hi:n'; not empty."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            return np.linspace(float(lo), float(hi), int(n))
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"{flag} wants a comma list x,y,... or lo:hi:n, got {text!r}") from None


def _grid(args, config, name, default):
    return _parse_grid(_opt(args, config, name, default), f"--{name}")


def _angle_grids(args, config, theta_default):
    """The theta and phi grids; the phi grid is the theta grid when unset."""
    theta_grid = _grid(args, config, "theta-grid", theta_default)
    phi_set = _opt(args, config, "phi-grid") is not None
    return theta_grid, _grid(args, config, "phi-grid", None) if phi_set else theta_grid


def _parse_deriv(text: str):
    try:
        M, N, L = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--deriv wants M,N,L, got {text!r}") from None
    return M, N, L


def _parse_atoms(text: str) -> czkernels.StieltjesAtoms:
    try:
        times, weights = zip(*((float(t), float(w))
                               for t, w in (chunk.split(":") for chunk in text.split(","))))
    except ValueError:
        raise UsageError(f"--atoms wants t:w,t:w,..., got {text!r}") from None
    return czkernels.StieltjesAtoms(times=times, weights=weights)


def _parse_profile(text: str) -> czkernels.LaplaceProfile:
    if text == "const1":
        return czkernels.constant_profile()
    if text.startswith("imaginary:"):
        try:
            gamma = float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--laplace-profile wants const1 or imaginary:GAMMA, "
                             f"got {text!r}") from None
        return czkernels.imaginary_power_profile(gamma)
    raise UsageError(f"unknown laplace profile {text!r} (const1 | imaginary:GAMMA)")


# The flags of each kernel family's options, keyed as make_kernel takes them.
_FAMILY_OPTIONS = {
    "riesz": dict(N=("N", int)),
    "gfun": dict(M=("M", int), N=("N", int)),
    "laplace": dict(profile=("laplace-profile", _parse_profile)),
    "stieltjes": dict(atoms=("atoms", _parse_atoms)),
}


def _load_config(path):
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _opt(args, config, name, default=None):
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return config.get(name, default)


def _given(args, config, **flags):
    """{key: convert(value)} for each key = (flag name, convert) whose flag
    the command line or the config sets: a value left unset is not passed,
    so the library keeps its own default."""
    given = {key: (_opt(args, config, name), convert) for key, (name, convert) in flags.items()}
    return {key: convert(val) for key, (val, convert) in given.items() if val is not None}


def _params(args, config) -> JacobiParams:
    alpha = _opt(args, config, "alpha", None)
    beta = _opt(args, config, "beta", None)
    if alpha is None or beta is None:
        raise UsageError("--alpha and --beta are required")
    try:
        return JacobiParams(float(alpha), float(beta))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_samples(thetas, vals, out_path):
    """Sampled values as "theta,value" CSV rows; a complex value (a numpy
    complex scalar) keeps its imaginary part."""
    lines = ["theta,value"] + [f"{format_float(float(t))},{format_float(v)}"
                               for t, v in zip(thetas, vals)]
    _emit("\n".join(lines) + "\n", out_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    config = _load_config(args.config)
    params = _params(args, config)
    query = KernelQuery(
        t=args.t, theta=args.theta, phi=args.phi,
        **_given(args, config, deriv=("deriv", _parse_deriv), method=("method", str)),
    )
    value = kernel_eval(params, query)
    _emit(f"{value:.15g}\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    params = _params(args, config)
    t_grid = _grid(args, config, "t-grid", "0.1,0.5,1.0")
    theta_grid, phi_grid = _angle_grids(args, config, "0.01,0.7853981633974483,1.5707963267948966,"
                                        "2.356194490192345,3.131592653589793")
    tol = float(_opt(args, config, "tol", 1e-6))
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be positive and finite, got {tol}")
    if t_grid.size == 0 or theta_grid.size == 0 or phi_grid.size == 0:
        raise UsageError("compare grids must be non-empty")

    routes = ("series", "f4", "integral", "general")
    lines = ["t,theta,phi,series,f4,integral,general,max_rel_diff"]
    max_rel = 0.0
    failed = False
    for t in t_grid:
        for theta in theta_grid:
            for phi in phi_grid:
                vals = {}
                for name in routes:
                    query = KernelQuery(float(t), float(theta), float(phi), method=name)
                    try:
                        vals[name] = kernel_eval(params, query)
                    except JPKError as exc:
                        vals[name] = math.nan
                        failed = True
                        print(f"method {name} failed at t={t} theta={theta} phi={phi}: {exc}",
                              file=sys.stderr)
                good = [v for v in vals.values() if math.isfinite(v)]
                rel = math.nan
                if len(good) >= 2:
                    mid = sum(abs(v) for v in good) / len(good)
                    rel = (max(good) - min(good)) / mid if mid > 0 else 0.0
                    max_rel = max(max_rel, rel)
                lines.append(",".join(
                    [format_float(float(t)), format_float(float(theta)), format_float(float(phi))]
                    + [format_float(vals[k]) for k in routes]
                    + [format_float(rel)]
                ))
    _emit("\n".join(lines) + "\n", args.out)
    summary = {"summary": {"max_rel_diff": float(max_rel), "tol": tol,
                           "pass": bool(max_rel <= tol)}}
    print(json.dumps(summary))
    if failed:
        return EXIT_NUMERIC
    return EXIT_OK if max_rel <= tol else EXIT_CAP


def _scan_report(args, config, params) -> EstimateReport:
    which = args.scan
    limits = _given(args, config, cap=("cap", float))
    if not 1.0 <= limits.get("cap", 1.0) < math.inf:  # an unset cap passes
        raise UsageError(f"cap must be at least 1 and finite, got {limits['cap']}")
    theta_grid, phi_grid = _angle_grids(args, config, "0.15:2.991592653589793:15")
    if which == "sharp":
        t_grid = _grid(args, config, "t-grid", "0.05:1.0:10")
        return sharp.ratio_scan(params, t_grid, theta_grid, phi_grid, **limits,
                                **_given(args, config, which=("comparator", str)))
    kernel_id = _opt(args, config, "kernel", "maximal")
    options = _given(args, config, **_FAMILY_OPTIONS.get(kernel_id, {}))
    if which in ("growth", "gradient"):
        check = czkernels.growth_check if which == "growth" else czkernels.gradient_check
        return check(params, kernel_id, theta_grid, phi_grid, **limits, options=options)
    if which == "smoothness":
        for name in ("theta-grid", "phi-grid"):
            if _opt(args, config, name) is not None:
                raise UsageError(f"--{name} does not apply to the smoothness scan, "
                                 "which samples its own angles")
        return czkernels.smoothness_check(
            params, kernel_id, **limits, options=options,
            **_given(args, config, n_samples=("samples", int), seed=("seed", int)))
    raise UsageError(f"unknown scan {which!r}")


def cmd_scan(args) -> int:
    config = _load_config(args.config)
    params = _params(args, config)
    report = _scan_report(args, config, params)
    fmt = _opt(args, config, "format", "csv")
    if fmt == "json":
        _emit(report.to_json() + "\n", args.out)
    else:
        _emit(report.to_csv(), args.out)
        print(json.dumps({"summary": report.summary()}))
    return EXIT_OK if report.passed else EXIT_CAP


def cmd_apply(args) -> int:
    config = _load_config(args.config)
    in_path = args.in_ if args.in_ is not None else config.get("in")
    if not in_path:
        raise UsageError("--in expansion JSON is required")
    try:
        with open(in_path, encoding="utf-8") as fh:
            exp = operators.expansion_from_dict(json.load(fh))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed expansion file: {exc}") from exc

    op = args.op
    eval_at = _opt(args, config, "eval-at")
    if op in ("riesz", "gfun"):
        if eval_at is None:
            raise UsageError(f"--op {op} emits sampled values; give --eval-at")
        thetas = _parse_grid(eval_at, "--eval-at")
        orders = {**czkernels.DEFAULT_ORDERS[op], **_given(args, config, **_FAMILY_OPTIONS[op])}
        if op == "riesz":
            evaluator = operators.riesz_apply(exp, **orders)
            vals = [evaluator(t) for t in thetas]
        else:
            vals = operators.g_function(exp, **orders, theta_points=thetas)
        _emit_samples(thetas, vals, args.out)
        return EXIT_OK
    if op == "semigroup":
        out = operators.semigroup_apply(exp, float(_opt(args, config, "t", 0.0)))
    elif op == "multiplier":
        profile_text = _opt(args, config, "laplace-profile")
        atoms_text = _opt(args, config, "atoms")
        if profile_text is not None:
            spec = _parse_profile(profile_text)
        elif atoms_text is not None:
            spec = _parse_atoms(atoms_text)
        else:
            raise UsageError("--op multiplier wants --laplace-profile or --atoms")
        dropped = operators.dropped_modes(exp, spec)
        if dropped:
            print(f"note: rate-0 modes dropped by the Laplace-type symbol: {dropped}",
                  file=sys.stderr)
        out = operators.multiplier_apply(exp, spec)
    else:
        raise UsageError(f"unknown op {op!r}")

    if eval_at is not None:
        thetas = _parse_grid(eval_at, "--eval-at")
        _emit_samples(thetas, operators.synthesize(out, thetas), args.out)
    else:
        _emit(json.dumps(operators.expansion_to_dict(out)) + "\n", args.out)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    config = _load_config(args.config)
    params = _params(args, config)
    in_path = args.in_ if args.in_ is not None else config.get("in")
    if not in_path:
        raise UsageError("--in sampled CSV is required")
    try:
        data = np.loadtxt(in_path, delimiter=",", skiprows=int(_opt(args, config, "skip-rows", 0)))
    except (OSError, ValueError) as exc:
        raise UsageError(f"could not read samples: {exc}") from exc
    if data.ndim != 2 or data.shape[1] < 2:
        raise UsageError("samples CSV needs two columns theta,f(theta)")
    order = np.argsort(data[:, 0])
    xs, ys = data[order, 0], data[order, 1]
    from jpkernel.basis import OrthonormalBasis

    basis = OrthonormalBasis(params, int(_opt(args, config, "n-max", 10)))
    exp = operators.analyze(basis, lambda th: np.interp(th, xs, ys))
    _emit(json.dumps(operators.expansion_to_dict(exp)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jpk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate the kernel at one point")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--deriv", help="M,N,L derivative orders in (t,theta,phi)")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("compare", help="cross-method agreement table")
    _add_common(p)
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--theta-grid", dest="theta_grid")
    p.add_argument("--phi-grid", dest="phi_grid")
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scan", help="estimate ratio scans")
    _add_common(p)
    p.add_argument("--scan", choices=["sharp", "growth", "gradient", "smoothness"],
                   required=True)
    p.add_argument("--kernel", choices=["maximal", "riesz", "gfun", "laplace", "stieltjes"])
    p.add_argument("--comparator", choices=sharp.COMPARATORS)
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--theta-grid", dest="theta_grid")
    p.add_argument("--phi-grid", dest="phi_grid")
    p.add_argument("--cap", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--laplace-profile", dest="laplace_profile")
    p.add_argument("--atoms", help="Stieltjes atoms t:w,t:w,...")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("apply", help="apply a spectral operator to an expansion")
    _add_common(p)
    p.add_argument("--op", choices=["semigroup", "riesz", "gfun", "multiplier"], required=True)
    p.add_argument("--in", dest="in_")
    p.add_argument("--t", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--laplace-profile", dest="laplace_profile")
    p.add_argument("--atoms")
    p.add_argument("--eval-at", dest="eval_at")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("coeffs", help="Fourier-Jacobi coefficients of sampled data")
    _add_common(p)
    p.add_argument("--in", dest="in_")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--skip-rows", dest="skip_rows", type=int)
    p.set_defaults(fn=cmd_coeffs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JPKError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
