"""The auto accuracy sweep: 1,500 seeded points against mpmath, and what auto returns on each.

The points are the ones the ROADMAP baseline counts unconverged results on:
random.Random(1) draws b ~ U(0.1, 5), c = b + U(0.1, 5), a ~ U(-3, 5),
|z| log-uniform on [0.1, 31] and arg z ~ U(-pi, pi), in that order.
"""

import math
import random

import pytest

from gausshyp import ROUTES, HypParams, MethodId, evaluate
from gausshyp.buhring import DEFAULT_Z0
from gausshyp.select import AUTO_ORDER, MACLAURIN_RADIUS
from conftest import rel_err

mpmath = pytest.importorskip("mpmath")


def _points():
    rng = random.Random(1)
    for _ in range(1500):
        b = rng.uniform(0.1, 5.0)
        c = b + rng.uniform(0.1, 5.0)
        a = rng.uniform(-3.0, 5.0)
        r = math.exp(rng.uniform(math.log(0.1), math.log(31.0)))
        t = rng.uniform(-math.pi, math.pi)
        yield HypParams(a, b, c), complex(r * math.cos(t), r * math.sin(t))


def _first_accepting(params, z):
    """The route auto took before it asked any rate: the first of AUTO_ORDER that accepts the point."""
    if abs(z) <= MACLAURIN_RADIUS:
        return MethodId.MACLAURIN
    for method in AUTO_ORDER:
        route = ROUTES[method]
        if route.margin(z, None, DEFAULT_Z0) > 0.0 and route.refusal(params, z, None, DEFAULT_Z0) is None:
            return method
    raise AssertionError(f"no route accepts {params} at z = {z}")


def _bits(res):
    v = complex(res.value)
    return v.real.hex(), v.imag.hex(), res.terms_used, float(res.est_error).hex()


def test_auto_sweep():
    unconverged, worst = [], 0.0
    with mpmath.workdps(30):
        for params, z in _points():
            res, method = evaluate(params, z)
            first = _first_accepting(params, z)
            # the rates move a point only from one series to another: the oracle runs where it ran before
            assert (method is MethodId.EULER) == (first is MethodId.EULER), (params, z)
            if not res.converged:
                # the route auto names returns this very result, and the route auto took before the rates,
                # which runs where the gated route does not converge, did no better
                assert _bits(res) == _bits(evaluate(params, z, method)[0]), (params, z)
                assert res.est_error <= evaluate(params, z, first)[0].est_error, (params, z)
                unconverged.append(method)
                continue
            worst = max(worst, rel_err(res.value, complex(mpmath.hyp2f1(*params, z))))
    assert len(unconverged) <= 40  # 297 before auto asked the rates
    assert worst <= 1e-8


def test_default_stop_keeps_what_the_full_sum_gives():
    # where auto takes the continuation or the 1/z series, the default call stops at tol / 10 within 40 terms:
    # it keeps the 40-term result's converged flag and, to 1e-13, its value, and stays honest against mpmath
    rng = random.Random(38)
    seen, stopped = {MethodId.BUHRING: 0, MethodId.CONNECTION: 0}, 0
    with mpmath.workdps(30):
        for _ in range(700):
            b = rng.uniform(0.1, 5.0)
            c = b + rng.uniform(0.1, 5.0)
            a = b - rng.randint(1, 4) if rng.random() < 0.2 else rng.uniform(-3.0, 5.0)  # 1 in 5: integer b - a
            r, t = math.exp(rng.uniform(math.log(1.5), math.log(31.0))), rng.uniform(-math.pi, math.pi)
            params, z = HypParams(a, b, c), complex(r * math.cos(t), r * math.sin(t))
            res, method = evaluate(params, z)
            if method not in seen:
                continue
            seen[method] += 1
            full = evaluate(params, z, method, n_terms=40)[0]
            assert res.converged or not full.converged, (params, z)
            assert rel_err(res.value, full.value) <= 1e-13, (params, z)
            stopped += res.terms_used < 40
            if res.converged:
                err = rel_err(res.value, complex(mpmath.hyp2f1(*params, z)))
                assert err <= 1e-10 and err <= 10.0 * res.est_error, (params, z, err, res)
    assert seen[MethodId.BUHRING] >= 300 and seen[MethodId.CONNECTION] >= 60, seen
    assert stopped >= 0.8 * sum(seen.values()), stopped
