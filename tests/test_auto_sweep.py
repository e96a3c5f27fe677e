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
                # only where the route auto took before the rates returns this very result
                assert (method, _bits(res)) == (first, _bits(evaluate(params, z, first)[0])), (params, z)
                unconverged.append(method)
                continue
            worst = max(worst, rel_err(res.value, complex(mpmath.hyp2f1(*params, z))))
    assert len(unconverged) <= 40  # 297 before auto asked the rates
    assert worst <= 1e-8
