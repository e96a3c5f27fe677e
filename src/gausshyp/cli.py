"""Command-line interface.

Subcommands:
  eval      single evaluation with explicit or auto-selected method
  table     reproduce one of the four built-in relative-error tables
  region    rasterize a method's convergence region to CSV
  selftest  check every route against the quadrature oracle, the oracle
            against the power series, and the double-precision recursions
            against their extended-precision references

Exit codes: 0 success, 2 usage/config error, 3 domain or region error,
4 numerical breakdown.
"""

import argparse
import cmath
import json
import math
import sys
from functools import cache, partial

from . import __version__
from .core import HypParams
from .errors import (
    ConfigError,
    GaussHypError,
    IntegerDifferenceError,
    PoleError,
    RecurrenceBreakdown,
)
from .onepoint import phi_half_sequence
from .raster import RasterSpec, raster_to_csv
from .reference import classify_region, euler_integral
from .results import MethodId
from .select import evaluate, method_margin
from .tables import TABLES, run_table, table_to_csv, table_to_json
from .threepoint import phi3_sequence
from .twopoint import twopoint_coeffs_recursive

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (PoleError, IntegerDifferenceError, RecurrenceBreakdown)

def parse_complex(text: str) -> complex:
    """Parse a Python complex literal written with i or j, or the tokens exp(+-i*pi/3).

    The exponential tokens exist so the exceptional points can be requested
    without decimal truncation.  A real literal goes through float first, so
    inf and nan parse, and the library rejects them as a domain error.
    """
    s = text.strip().replace(" ", "")
    low = s.lower()
    if low in ("exp(i*pi/3)", "exp(+i*pi/3)"):
        return cmath.exp(1j * math.pi / 3.0)
    if low == "exp(-i*pi/3)":
        return cmath.exp(-1j * math.pi / 3.0)
    try:
        return complex(float(s), 0.0)
    except ValueError:
        pass
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's shared parser, built on the first call; callers must not modify it."""
    p = argparse.ArgumentParser(
        prog="gausshyp",
        description="Evaluate the Gauss hypergeometric function 2F1(a,b,c;z) for complex z.",
    )
    p.add_argument("--version", action="version", version=f"gausshyp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate 2F1 at a single point")
    pe.add_argument("--a", type=float, required=True)
    pe.add_argument("--b", type=float, required=True)
    pe.add_argument("--c", type=float, required=True)
    pe.add_argument("--z", type=parse_complex, required=True)
    pe.add_argument("--method", choices=["auto", *(m.value for m in MethodId)], default="auto")
    pe.add_argument("--terms", type=int, default=40, help="truncation index for series methods")
    pe.add_argument("--tol", type=float, default=1e-13)
    pe.add_argument("--w", type=parse_complex, default=None, help="expansion point for onepoint-w")
    pe.add_argument("--z0", type=parse_complex, default=0.5 + 0j, help="continuation expansion point")
    pe.add_argument("--format", choices=("json", "text"), default="json")
    pe.add_argument("--out", default=None)

    pt = sub.add_parser("table", help="reproduce a built-in relative-error table")
    pt.add_argument("--id", type=int, required=True, choices=sorted(TABLES))
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.add_argument("--tol", type=float, default=1e-13, help="oracle tolerance")
    pt.add_argument("--out", default=None)

    pr = sub.add_parser("region", help="rasterize a convergence region")
    pr.add_argument("--method", choices=[m.value for m in MethodId], required=True)
    pr.add_argument("--w", type=parse_complex, default=None)
    pr.add_argument("--rho", type=float, default=0.9)
    pr.add_argument("--xmin", type=float, required=True)
    pr.add_argument("--xmax", type=float, required=True)
    pr.add_argument("--ymin", type=float, required=True)
    pr.add_argument("--ymax", type=float, required=True)
    pr.add_argument("--res", type=int, required=True)
    pr.add_argument("--out", default=None)

    sub.add_parser("selftest", help="check every route against the quadrature oracle")
    return p


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_eval(args) -> int:
    params = HypParams(args.a, args.b, args.c)
    res, method = evaluate(
        params,
        args.z,
        method=args.method,
        n_terms=args.terms,
        tol=args.tol,
        w=args.w,
        z0=args.z0,
    )
    margin = method_margin(method, args.z, w=args.w, z0=args.z0)
    if args.format == "json":
        payload = {
            "value": {"re": res.value.real, "im": res.value.imag},
            "method": method.value,
            "terms": res.terms_used,
            "est_error": res.est_error,
            "converged": res.converged,
            "in_region_margin": margin,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"value      = {res.value.real!r} {'+' if res.value.imag >= 0 else '-'} {abs(res.value.imag)!r}i",
            f"method     = {method.value}",
            f"terms      = {res.terms_used}",
            f"est_error  = {res.est_error:.3e}",
            f"margin     = {margin:.6g}",
            f"converged  = {res.converged}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    result = run_table(args.id, oracle_tol=args.tol)
    text = table_to_csv(result) if args.format == "csv" else table_to_json(result)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    spec = RasterSpec(
        method=MethodId.from_string(args.method),
        xmin=args.xmin,
        xmax=args.xmax,
        ymin=args.ymin,
        ymax=args.ymax,
        res=args.res,
        w=args.w,
        rho=args.rho,
    )
    _emit(raster_to_csv(spec), args.out)
    return EXIT_OK


def _selftest_checks():
    # the extended-precision references load mpmath, which no other command needs
    from .verify import phi3_direct_sequence, phi_brute, twopoint_coeffs_explicit

    z_exc = cmath.exp(1j * math.pi / 3.0)
    params = HypParams(1.2, 2.1, 3.0)
    # (route, params, z, label, n_terms, relative tolerance against the quadrature oracle)
    routes = [
        (MethodId.MACLAURIN, params, 0.55 + 0.4j, "0.55+0.4i", 40, 1e-11),
        (MethodId.MACLAURIN, params, -0.6 + 0.5j, "-0.6+0.5i", 40, 1e-12),
        (MethodId.MACLAURIN, HypParams(0.7, 0.4, 0.9), 0.35 + 0.2j, "0.35+0.2i, b<1, c-b<1", 40, 1e-12),
        (MethodId.BUHRING, params, z_exc, "exp(i*pi/3)", 25, 1e-1),
        (MethodId.ONEPOINT_HALF, params, z_exc, "exp(i*pi/3)", 25, 1e-5),
        (MethodId.ONEPOINT_W, params, z_exc, "exp(i*pi/3)", 20, 1.5e-6),
        (MethodId.TWOPOINT, params, z_exc, "exp(i*pi/3)", 20, 1e-10),
        (MethodId.THREEPOINT, params, z_exc, "exp(i*pi/3)", 20, 1e-10),
    ]

    def route_matches_oracle(method, p, z, n, tol):
        value = evaluate(p, z, method, n_terms=n, w=complex(0.5, 0.5))[0].value
        ref = euler_integral(p, z).value
        return abs(value - ref) <= tol * abs(ref)

    def oracle_conjugate_symmetric(z=3 + 0.5j):
        v, vc = (euler_integral(params, x).value for x in (z, z.conjugate()))
        return abs(vc - v.conjugate()) <= 1e-14 * abs(v)

    def exceptional_point_covered():
        new = (MethodId.ONEPOINT_HALF, MethodId.TWOPOINT, MethodId.THREEPOINT)
        return all(method_margin(m, z_exc) > 0.0 for m in new) and not classify_region(z_exc, 0.95)

    def phi_matches_definition():
        rec = phi_half_sequence(9, 2.1, 3.0)
        return all(
            abs(rec[n] - phi_brute(n, 2.1, 3.0, 0.5).real) <= 1e-10 * max(1.0, abs(rec[n]))
            for n in range(10)
        )

    def twopoint_paths_agree():
        A, B = twopoint_coeffs_recursive(1.2, -1.0 + 0j, 6)
        for n in range(1, 7):
            ae, be = twopoint_coeffs_explicit(1.2, -1.0 + 0j, n)
            if abs(ae - A[n]) > 1e-10 * max(1.0, abs(ae)):
                return False
            if abs(be - B[n]) > 1e-10 * max(1.0, abs(be)):
                return False
        return True

    def phi3_paths_agree():
        rec = phi3_sequence(15, 2.1, 3.0)
        direct = phi3_direct_sequence(15, 2.1, 3.0, dps=40)
        return all(abs(rec[n] - direct[n]) <= 1e-9 * abs(direct[n]) for n in range(1, 16))

    return [
        *(
            (f"{m.value} vs euler integral at z = {label}", partial(route_matches_oracle, m, p, z, n, tol))
            for m, p, z, label, n, tol in routes
        ),
        ("euler integral conjugate symmetry at z = 3+0.5i", oracle_conjugate_symmetric),
        ("exp(i*pi/3) covered by new regions only", exceptional_point_covered),
        ("phi recurrence matches terminating series", phi_matches_definition),
        ("twopoint explicit vs recursive", twopoint_paths_agree),
        ("phi3 recurrence vs direct", phi3_paths_agree),
    ]


def _cmd_selftest(_args) -> int:
    checks = _selftest_checks()
    failures = 0
    for name, check in checks:
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    dispatch = {
        "eval": _cmd_eval,
        "table": _cmd_table,
        "region": _cmd_region,
        "selftest": _cmd_selftest,
    }
    try:
        return dispatch[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GaussHypError as exc:  # domain, region and any other library error
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
