"""Command-line interface.

Subcommands:
  eval      single evaluation with explicit or auto-selected method
  table     reproduce one of the five built-in relative-error tables
  region    rasterize a method's convergence region to CSV
  selftest  check every route against the quadrature oracle, the oracle
            against the power series, and the double-precision recursions
            against their extended-precision references

Exit codes: 0 success, 2 usage/config error, 3 domain or region error,
4 numerical breakdown.
"""

import argparse
import cmath
import math
import re
import sys
from functools import cache

from . import __version__
from .core import DEFAULT_TERMS, DEFAULT_TOL, HypParams, json_value
from .errors import ConfigError, GaussHypError, IntegerDifferenceError, PoleError, RecurrenceBreakdown
from .results import MethodId
from .select import DEFAULT_Z0, evaluate, method_margin

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (PoleError, IntegerDifferenceError, RecurrenceBreakdown)


def __getattr__(name: str):
    # run_table and raster_to_csv load on first use; the table and region commands
    # call them as module attributes, so a wrapper set here sees every call
    if name not in ("run_table", "raster_to_csv"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


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
        return complex(re.sub(r"[iI](\)?)$", r"j\1", s))  # only the unit: "infi" is inf * 1j
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
    pe.add_argument("--terms", type=int, help=f"largest summation index (default: at most {DEFAULT_TERMS}, buhring "
                    "and connection stop at tol/10)")
    pe.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pe.add_argument("--w", type=parse_complex, default=None, help="expansion point for onepoint-w")
    pe.add_argument("--z0", type=parse_complex, default=DEFAULT_Z0, help="continuation expansion point")
    pe.add_argument("--format", choices=("json", "text"), default="json")
    pe.add_argument("--out", default=None)

    pt = sub.add_parser("table", help="reproduce a built-in relative-error table")
    pt.add_argument("--id", type=int, required=True)
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.add_argument("--tol", type=float, default=DEFAULT_TOL, help="oracle tolerance")
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def _cmd_eval(args) -> int:
    params = HypParams(args.a, args.b, args.c)
    res, method = evaluate(params, args.z, method=args.method, n_terms=args.terms, tol=args.tol, w=args.w, z0=args.z0)
    margin = method_margin(method, args.z, w=args.w, z0=args.z0)
    if args.format == "json":
        import json

        payload = {
            "value": {"re": json_value(res.value.real), "im": json_value(res.value.imag)},
            "method": method.value,
            "terms": res.terms_used,
            "est_error": json_value(res.est_error),
            "converged": res.converged,
            "in_region_margin": json_value(margin),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.out)
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
    from .tables import table_to_csv, table_to_json

    result = sys.modules[__name__].run_table(args.id, oracle_tol=args.tol)
    text = table_to_csv(result) if args.format == "csv" else table_to_json(result)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    from .raster import RasterSpec

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
    _emit(sys.modules[__name__].raster_to_csv(spec), args.out)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from .verify import selftest_checks  # loads mpmath, which no other command needs

    checks = selftest_checks()
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


#: The options that take a number; every other option starts with another letter.
_NUMBER_OPTIONS = ("a", "b", "c", "z", "w", "z0", "tol", "rho", "xmin", "xmax", "ymin", "ymax", "terms", "res", "id")


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each '-'-led value of a number option (or its abbreviation) attached as --opt=value.

    argparse takes any '-'-led token but a plain decimal for an option, so "--z -1+1i" would leave --z empty.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out and tok.startswith("-") and not tok.startswith("--") else ""
        name = prev[2:] if prev.startswith("--") and "=" not in prev else ""
        if name and any(o.startswith(name) for o in _NUMBER_OPTIONS):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    dispatch = {"eval": _cmd_eval, "table": _cmd_table, "region": _cmd_region, "selftest": _cmd_selftest}
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
