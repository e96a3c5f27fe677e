"""Layer times of the three-point route, the continuation and auto's route choice, each beside its error.

Run from the root of a checkout, against src or against an installed package:

    PYTHONPATH=src python bench/layers.py                      # writes BENCH_layers.json
    python bench/layers.py --rounds 2 --number 5 --out x.json  # a quick run
    PYTHONPATH=src python bench/layers.py --parent ../old/src  # beside each row, the same layer of ../old/src

Every three-point layer runs at one point, z = exp(i pi/3) and (a, b, c) = (1.2, 2.3, 3.5),
and every layer of Buhring's continuation at z = -2 + 2i with the same (a, b, c) and
z0 = 1/2, where its two series reach the rounding level by n = 40; all in this one
process.  The layers are interleaved: each round times each layer once over `number`
calls, and the best round is kept.  A stream is timed per term it
yields; a term generator, the summation and evaluate per call.  The Phi_3 moment
stream, the term generator and evaluate are timed twice: on a cold store, where
the psi_n prefix kept by threepoint._phi3_stream is emptied before each call (the
emptying is inside the timed loop), and on the stored prefix.

The term generator steps A/B/C inside its own loop and reads psi_n from the Phi_3
stream; _abc_stream is the reference stream behind threepoint_coeffs, timed on its
own.  core.sum_series sums 41 precomputed terms, so the summation's own cost shows
apart from the cost of the terms.  select.eval_threepoint, the one-stop runner the
route table calls, sums the stored term loop to n = 40; its time less that of the
term loop is the summation and the runner's plumbing, and evaluate[hit] less it is
evaluate's own checks and route lookup.  The continuation's term generator steps d_n inside
its own loop too; its row times the two series, s = a and s = b, that the continuation's
Route.sums runs, and _d_stream, the reference stream behind buhring_coeffs, is timed per term
of the s = a series.  select_method is timed at exp(i pi/3), where auto takes threepoint,
and at z = 2 + 2i, where the rate gate defers threepoint (rate 0.49) to the continuation
(rate 0.20); each route's rate is timed at exp(i pi/3); and evaluate on the fallback path
at (0.59, 1.66, 4.38), z = 1.544 - 0.879i, where the continuation the gate picks stops
short of tol and the three-point route runs after it.  The fixed cost of an auto call that the
continuation serves is timed at (1.2, 2.1, 3), z = 3 + 0.5i: core.HypParams, select_method there,
and auto's evaluate beside the continuation's Route.sums at n = 40; evaluate less that and select_method
is evaluate's own checks and plumbing.  Route.sums is called with all six arguments by position, the one
order that every tree's route table takes.  At an integer b - a, (1.2, 2.2, 3) at z = 12 + 5i, the
continuation refuses: the 1/z series' Route.sums is timed at n = 10 and n = 40, and auto's evaluate,
which takes that series, beside evaluate with the quadrature oracle, which auto took there before it.
evaluate with method buhring at z = -2 + 2i and with method connection at the integer b - a point is
timed with the default n_terms, which stops each at tol / 10 within 40 terms, and with n_terms = 40.

With --parent DIR, the gausshyp package under DIR (DIR/gausshyp, or DIR/src/gausshyp) is imported
a second time under another name, and each round times each layer on both trees, in alternating
order, so that a slow spell of the host reaches both alike.  Each row then carries the parent's
best time beside its own; a layer that the parent tree lacks is skipped there.  Errors are this
tree's only.

Each error compares what the layer computes with mpmath at 40 digits:
  - the Phi_3 stream: Phi_n = (-1)^n (b)_n (c-b)_n / (2^n (c)_{2n}) 2F1(-n, b+n; c+2n; 2),
    the worst n;
  - the A/B/C stream: the three-point sum of its coefficients against the moments
    in mpmath, to n = 40, against 2F1(a, b, c; z);
  - a term generator, the summation, the runner and evaluate: their sum or value against 2F1(a, b, c; z);
  - the d_n stream: the continuation summed from its d_n of both series, to n = 40, with the
    gamma prefactors and the powers of z - z0 in mpmath, against 2F1(a, b, c; z);
  - the continuation's term generators and its Route.sums: their value against 2F1(a, b, c; z);
  - select_method and core.HypParams: the value of auto's evaluate at the point against 2F1(a, b, c; z);
  - a rate: against its formula in mpmath;
  - evaluate on the fallback path: its value against 2F1 at its point;
  - the 1/z series' Route.sums, auto's evaluate and the oracle at the integer b - a point: their value
    against 2F1 there;
  - evaluate with the continuation or the 1/z series, default or n_terms = 40: its value against 2F1 at its point.
"""

import argparse
import cmath
import importlib.util
import json
import math
import os
import platform
import sys
import time
from itertools import islice
from pathlib import Path

import mpmath

import gausshyp
from gausshyp import ROUTES, HypParams, MethodId, evaluate
from gausshyp import threepoint
from gausshyp.buhring import _buhring_terms, _d_stream
from gausshyp.core import DEFAULT_TERMS, SERIES_TOL_FLOOR, sum_series
from gausshyp.select import eval_threepoint
from gausshyp.threepoint import _abc_stream, _phi3_stream, _threepoint_terms

PARAMS = HypParams(1.2, 2.3, 3.5)
Z = cmath.exp(1j * math.pi / 3.0)
#: The psi_n a default term loop reads: indices 0 .. DEFAULT_TERMS + 1.
N_PSI = DEFAULT_TERMS + 2
#: The continuation's point and expansion point, and 1/(z - z0), the ratio of its terms.
Z_BUHRING, Z0 = complex(-2.0, 2.0), 0.5
U = 1.0 / (Z_BUHRING - Z0)
#: A point whose three-point rate is past the gate, and (params, z) where auto falls back to threepoint.
Z_DEFERRED = complex(2.0, 2.0)
FALLBACK = (0.59, 1.66, 4.38), complex(1.544, -0.879)
#: (a, b, c) and z where auto takes the continuation, for the fixed cost of such a call.
AUTO_BUHRING = (1.2, 2.1, 3.0), complex(3.0, 0.5)
#: (a, b, c) with an integer b - a, and z, where auto takes the 1/z series.
INTEGER = (1.2, 2.2, 3.0), complex(12.0, 5.0)
#: Each rate's formula at (z, z0), for mpmath numbers.
RATES = {
    MethodId.THREEPOINT: lambda z, z0: abs(z) ** 3 / (6 * mpmath.sqrt(3) * abs((1 - z) * (2 - z))),
    MethodId.TWOPOINT: lambda z, z0: abs(z) ** 2 / (4 * abs(1 - z)),
    MethodId.ONEPOINT_HALF: lambda z, z0: abs(z) / abs(2 - z),
    MethodId.BUHRING: lambda z, z0: max(abs(z0), abs(z0 - 1)) / abs(z - z0),
}


def _rel(got, want) -> float:
    return float(abs(mpmath.mpmathify(got) - want) / abs(want))


def _phi(n: int, b, c):
    """Phi_n(b, c) by its closed form, at the working precision."""
    return (-1) ** n * mpmath.rf(b, n) * mpmath.rf(c - b, n) / (2**n * mpmath.rf(c, 2 * n)) * mpmath.hyp2f1(
        -n, b + n, c + 2 * n, 2
    )


def _errors() -> dict:
    """Largest relative error of each layer's output against mpmath.hyp2f1 at 40 digits."""
    a, b, c = (mpmath.mpf(v) for v in PARAMS)
    with mpmath.workdps(40):
        want = mpmath.hyp2f1(a, b, c, Z)
        psi = list(islice(_phi3_stream(PARAMS.b, PARAMS.c), N_PSI))
        phi3 = max(_rel((-1) ** n * p, _phi(n, b, c)) for n, p in enumerate(psi))
        weights = (1, b / c, b * (b + 1) / (c * (c + 1)))
        abc = sum(
            (-1) ** n * sum(w * col * _phi(n, b + j, c + j) for j, (w, col) in enumerate(zip(weights, cols)))
            for n, cols in enumerate(islice(_abc_stream(PARAMS.a, Z), DEFAULT_TERMS + 1))
        )
        terms = {n: _rel(mpmath.fsum(islice(_threepoint_terms(PARAMS, Z), n + 1)), want) for n in (10, 40)}
        (summed,) = sum_series((40,), SERIES_TOL_FLOOR, (1.0, _threepoint_terms(PARAMS, Z)))
        sum40 = _rel(summed.value, want)
        runner = _rel(eval_threepoint(PARAMS, Z, 40).value, want)
        value = _rel(evaluate(PARAMS, Z, "threepoint")[0].value, want)
        want_b = mpmath.hyp2f1(a, b, c, Z_BUHRING)
        w = Z0 - mpmath.mpc(Z_BUHRING)
        # (s, the continuation's gamma prefactor times (z0 - z)^(-s)) for s = a and s = b
        series = (
            (PARAMS.a, mpmath.gamma(c) * mpmath.gamma(b - a) / (mpmath.gamma(b) * mpmath.gamma(c - a)) * w**-a),
            (PARAMS.b, mpmath.gamma(c) * mpmath.gamma(a - b) / (mpmath.gamma(a) * mpmath.gamma(c - b)) * w**-b),
        )
        d_sum = sum(
            fac * mpmath.fsum(d * (-1 / w) ** n for n, d in enumerate(islice(_d_stream(s, Z0, PARAMS), 41)))
            for s, fac in series
        )
        b_terms = sum(fac * mpmath.fsum(islice(_buhring_terms(s, Z0, PARAMS, U), 41)) for s, fac in series)
        (b_summed,) = ROUTES[MethodId.BUHRING].sums(PARAMS, Z_BUHRING, (40,), z0=Z0)
        deferred = _rel(evaluate(PARAMS, Z_DEFERRED)[0].value, mpmath.hyp2f1(a, b, c, Z_DEFERRED))
        rates = {
            f"rate[{m}]": _rel(ROUTES[m].rate(Z, Z0), rate(mpmath.mpc(Z), mpmath.mpf(Z0))) for m, rate in RATES.items()
        }
        want_fallback = mpmath.hyp2f1(*FALLBACK[0], FALLBACK[1])
        fallback = _rel(evaluate(HypParams(*FALLBACK[0]), FALLBACK[1])[0].value, want_fallback)
        auto_params, auto_z = HypParams(*AUTO_BUHRING[0]), AUTO_BUHRING[1]
        want_auto = mpmath.hyp2f1(*AUTO_BUHRING[0], auto_z)
        (auto_summed,) = ROUTES[MethodId.BUHRING].sums(auto_params, auto_z, (40,), z0=Z0)
        int_params, int_z = HypParams(*INTEGER[0]), INTEGER[1]
        want_int = mpmath.hyp2f1(*INTEGER[0], int_z)
        connection = ROUTES[MethodId.CONNECTION].sums(int_params, int_z, (10, 40))
        csums = {res.terms_used: _rel(res.value, want_int) for res in connection}
        integer = {m: _rel(evaluate(int_params, int_z, m)[0].value, want_int) for m in ("auto", "euler-oracle")}
        points = (("buhring", PARAMS, Z_BUHRING, want_b), ("connection", int_params, int_z, want_int))
        stopped = {
            (m, n): _rel(evaluate(params, z, m, n_terms=n)[0].value, want)
            for m, params, z, want in points
            for n in (None, 40)
        }
    return {
        **rates,
        "phi3": phi3,
        "abc": _rel(abc, want),
        "terms10": terms[10],
        "terms40": terms[40],
        "sum40": sum40,
        "runner": runner,
        "evaluate": value,
        "d": _rel(d_sum, want_b),
        "bterms40": _rel(b_terms, want_b),
        "bsums40": _rel(b_summed.value, want_b),
        "deferred": deferred,
        "fallback": fallback,
        "auto": _rel(evaluate(auto_params, auto_z)[0].value, want_auto),
        "asums40": _rel(auto_summed.value, want_auto),
        "csums10": csums[10],
        "csums40": csums[40],
        "integer": integer["auto"],
        "integer_oracle": integer["euler-oracle"],
        **{f"{m}[n={n}]": err for (m, n), err in stopped.items()},
    }


def _drain(stream, n: int) -> None:
    for _ in islice(stream, n):
        pass


def _layers(pkg) -> dict:
    """name -> (timed call, its divisor: terms per call or 1, unit, error key), on the gausshyp package pkg."""
    tp, bu, select, core = pkg.threepoint, pkg.buhring, pkg.select, pkg.core
    params = pkg.HypParams(*PARAMS)
    a, b, c = params
    store = getattr(tp, "_PHI3", {})  # an empty dict where the package keeps no store

    def cold(call):
        def run():
            store.clear()
            call()

        return run

    phi3 = lambda: _drain(tp._phi3_stream(b, c), N_PSI)
    abc = lambda: _drain(tp._abc_stream(a, Z), DEFAULT_TERMS + 1)
    terms10 = lambda: _drain(tp._threepoint_terms(params, Z), 11)
    terms40 = lambda: _drain(tp._threepoint_terms(params, Z), 41)
    terms = list(islice(tp._threepoint_terms(params, Z), 41))
    sum40 = lambda: tuple(core.sum_series((40,), SERIES_TOL_FLOOR, (1.0, iter(terms))))
    ev = lambda: pkg.evaluate(params, Z, "threepoint")
    d = lambda: _drain(bu._d_stream(a, Z0, params), DEFAULT_TERMS + 1)
    bterms40 = lambda: [_drain(bu._buhring_terms(s, Z0, params, U), 41) for s in (a, b)]
    bsums = pkg.ROUTES[pkg.MethodId.BUHRING].sums
    bsums40 = lambda: tuple(bsums(params, Z_BUHRING, (40,), SERIES_TOL_FLOOR, None, Z0))
    fallback = pkg.HypParams(*FALLBACK[0]), FALLBACK[1]
    auto_params, auto_z = pkg.HypParams(*AUTO_BUHRING[0]), AUTO_BUHRING[1]
    int_params, int_z = pkg.HypParams(*INTEGER[0]), INTEGER[1]
    # looked up at call time: a parent tree without the route raises AttributeError there, and skips the row
    csums = lambda n: tuple(
        pkg.ROUTES[pkg.MethodId.CONNECTION].sums(int_params, int_z, (n,), SERIES_TOL_FLOOR, None, Z0)
    )
    rates = {
        f"select.rate[{m}]": ((lambda rate=pkg.ROUTES[pkg.MethodId(m.value)].rate: rate(Z, Z0)), 1, "us", f"rate[{m}]")
        for m in RATES
    }
    return {
        "threepoint._phi3_stream[cold]": (cold(phi3), N_PSI, "us/term", "phi3"),
        "threepoint._phi3_stream[stored]": (phi3, N_PSI, "us/term", "phi3"),
        "threepoint._abc_stream": (abc, DEFAULT_TERMS + 1, "us/term", "abc"),
        "threepoint._threepoint_terms[n=10, cold]": (cold(terms10), 1, "us", "terms10"),
        "threepoint._threepoint_terms[n=10, stored]": (terms10, 1, "us", "terms10"),
        "threepoint._threepoint_terms[n=40, cold]": (cold(terms40), 1, "us", "terms40"),
        "threepoint._threepoint_terms[n=40, stored]": (terms40, 1, "us", "terms40"),
        "core.sum_series[n=40]": (sum40, 1, "us", "sum40"),
        "select.eval_threepoint[n=40, stored]": (lambda: select.eval_threepoint(params, Z, 40), 1, "us", "runner"),
        "select.evaluate[miss]": (cold(ev), 1, "us", "evaluate"),
        "select.evaluate[hit]": (ev, 1, "us", "evaluate"),
        "buhring._d_stream": (d, DEFAULT_TERMS + 1, "us/term", "d"),
        "buhring._buhring_terms[n=40]": (bterms40, 1, "us", "bterms40"),
        "select.Route.sums[buhring, n=40]": (bsums40, 1, "us", "bsums40"),
        "select.select_method[threepoint]": (lambda: pkg.select_method(params, Z), 1, "us", "evaluate"),
        "select.select_method[deferred]": (lambda: pkg.select_method(params, Z_DEFERRED), 1, "us", "deferred"),
        **rates,
        "select.evaluate[fallback]": (lambda: pkg.evaluate(*fallback), 1, "us", "fallback"),
        "core.HypParams": (lambda: pkg.HypParams(*AUTO_BUHRING[0]), 1, "us", "auto"),
        "select.select_method[buhring]": (lambda: pkg.select_method(auto_params, auto_z), 1, "us", "auto"),
        "select.Route.sums[buhring, n=40, 3+0.5i]": (
            lambda: tuple(bsums(auto_params, auto_z, (40,), SERIES_TOL_FLOOR, None, Z0)), 1, "us", "asums40"
        ),
        "select.evaluate[buhring]": (lambda: pkg.evaluate(auto_params, auto_z), 1, "us", "auto"),
        "select.Route.sums[connection, n=10]": (lambda: csums(10), 1, "us", "csums10"),
        "select.Route.sums[connection, n=40]": (lambda: csums(40), 1, "us", "csums40"),
        "select.evaluate[integer b-a]": (lambda: pkg.evaluate(int_params, int_z), 1, "us", "integer"),
        "select.evaluate[integer b-a, euler-oracle]": (
            lambda: pkg.evaluate(int_params, int_z, "euler-oracle"), 1, "us", "integer_oracle"
        ),
        "select.evaluate[buhring, -2+2i]": (
            lambda: pkg.evaluate(params, Z_BUHRING, "buhring"), 1, "us", "buhring[n=None]"
        ),
        "select.evaluate[buhring, -2+2i, n=40]": (
            lambda: pkg.evaluate(params, Z_BUHRING, "buhring", n_terms=40), 1, "us", "buhring[n=40]"
        ),
        "select.evaluate[connection]": (
            lambda: pkg.evaluate(int_params, int_z, "connection"), 1, "us", "connection[n=None]"
        ),
        "select.evaluate[connection, n=40]": (
            lambda: pkg.evaluate(int_params, int_z, "connection", n_terms=40), 1, "us", "connection[n=40]"
        ),
    }


def load_parent(root: Path):
    """The gausshyp package under root (root/gausshyp or root/src/gausshyp), imported as gausshyp_parent."""
    pkg = next((p for p in (root / "gausshyp", root / "src" / "gausshyp") if (p / "__init__.py").is_file()), None)
    if pkg is None:
        raise SystemExit(f"no gausshyp package under {root}")
    spec = importlib.util.spec_from_file_location("gausshyp_parent", pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def measure(rounds: int, number: int, parent=None) -> dict:
    err = _errors()
    trees = {"time": _layers(gausshyp)}
    if parent is not None:
        trees["parent_time"] = _layers(parent)
    for key, layers in trees.items():  # fills the store, as a repeated (b, c) finds it
        for name, (call, *_) in list(layers.items()):
            try:
                call()
            except (AttributeError, TypeError):  # a name, or a route's rate, that the parent tree lacks
                if key == "time":
                    raise
                del layers[name]
    best = {key: dict.fromkeys(layers, math.inf) for key, layers in trees.items()}
    for r in range(rounds):
        for name in trees["time"]:
            for key in sorted(trees, reverse=r % 2 == 1):  # alternate which tree goes first
                if name in trees[key]:
                    call = trees[key][name][0]
                    t0 = time.perf_counter()
                    for _ in range(number):
                        call()
                    best[key][name] = min(best[key][name], time.perf_counter() - t0)
    rows = {}
    for name, (_, per, unit, key) in trees["time"].items():
        rows[name] = {"time": round(best["time"][name] / number / per * 1e6, 4), "unit": unit}
        if parent is not None:
            t = best["parent_time"].get(name, math.inf)
            rows[name]["parent_time"] = round(t / number / per * 1e6, 4) if t < math.inf else None
        rows[name]["max_rel_err"] = err[key]
    return {
        "point": {
            "a": PARAMS.a, "b": PARAMS.b, "c": PARAMS.c, "z": "exp(i pi/3)", "z_buhring": "-2+2i", "z0": Z0,
            "z_deferred": "2+2i", "fallback": "(0.59, 1.66, 4.38) at 1.544-0.879i",
            "auto_buhring": "(1.2, 2.1, 3) at 3+0.5i", "integer": "(1.2, 2.2, 3) at 12+5i",
        },
        "settings": {"rounds": rounds, "number": number, "store": hasattr(threepoint, "_PHI3"),
                     "paired": parent is not None},
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "layers": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15, help="rounds; the best one is kept (default 15)")
    parser.add_argument("--number", type=int, default=300, help="calls per layer per round (default 300)")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parents[1] / "BENCH_layers.json")
    parser.add_argument("--parent", type=Path, help="a second tree, timed in the same rounds (DIR/gausshyp or DIR/src)")
    args = parser.parse_args(argv)
    result = measure(args.rounds, args.number, args.parent and load_parent(args.parent))
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, rec in result["layers"].items():
        parent = rec.get("parent_time")
        beside = "" if parent is None else f"  parent {parent:10.3f} ({rec['time'] / parent - 1.0:+6.1%})"
        print(f"{name:45s} {rec['time']:10.3f} {rec['unit']:8s}{beside}  max rel err {rec['max_rel_err']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
