"""The integer b - a probe: the 1/z series (DLMF 15.8.8) against mpmath, and the route auto takes there.

random.Random(24) draws, per point, m in [-5, 5] and an offset delta from DELTAS, then the parameters:
on even points c > b > 0 (b ~ U(0.1, 5), c = b + U(0.1, 5), a = b - m - delta), on odd points
a, c ~ U(-5, 5) and b = a + m + delta (c at least 1e-3 from an integer); then |z| log-uniform on
[1/RATE_GATE, 31] and arg z ~ U(-pi, pi).  Past connection.INTEGER_BAND the offset is refused.
"""

import math
import random

import pytest

from gausshyp import HypParams, MethodId, NoMethodError, ParamDomainError, ROUTES, select_method
from gausshyp import select
from gausshyp.buhring import DEFAULT_Z0
from gausshyp.connection import INTEGER_BAND
from gausshyp.select import RATE_GATE
from conftest import rel_err

mpmath = pytest.importorskip("mpmath")

DELTAS = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)
CONNECTION = ROUTES[MethodId.CONNECTION]


def _points(count=1400):
    rng = random.Random(24)
    points = []
    for i in range(count):
        m, delta = rng.randint(-5, 5), rng.choice(DELTAS)
        if i % 2 == 0:
            b = rng.uniform(0.1, 5.0)
            c = b + rng.uniform(0.1, 5.0)
            a = b - m - delta
        else:
            a = rng.uniform(-5.0, 5.0)
            b = a + m + delta
            c = rng.uniform(-5.0, 5.0)
            if abs(c - round(c)) < 1e-3:
                continue
        r = math.exp(rng.uniform(math.log(1.0 / RATE_GATE), math.log(31.0)))
        t = rng.uniform(-math.pi, math.pi)
        points.append((HypParams(a, b, c), complex(r * math.cos(t), r * math.sin(t)), delta))
    return points


POINTS = _points()


def _choice(params, z):
    try:
        return select_method(params, z)
    except NoMethodError:
        return NoMethodError


def test_results_converge_and_agree_with_mpmath():
    results, refused = [], 0
    for params, z, delta in POINTS:
        refusal = CONNECTION.refusal(params, z, None, DEFAULT_Z0)
        if abs(delta) > INTEGER_BAND:
            assert isinstance(refusal, ParamDomainError), (params, z)
            refused += 1
            continue
        if refusal is None:
            (res,) = CONNECTION.sums(params, z, (40,))
            results.append((params, z, res))
    assert refused > 500 and len(results) > 500
    converged = [(params, z, res) for params, z, res in results if res.converged]
    assert len(converged) >= 0.95 * len(results)
    with mpmath.workdps(30):
        for params, z, res in converged:
            err = rel_err(res.value, complex(mpmath.hyp2f1(*params, z)))
            assert err <= 1e-10 and err <= 10.0 * res.est_error, (params, z, res, err)


def test_auto_takes_the_series_exactly_where_it_accepts_within_the_gate(monkeypatch):
    new = [_choice(params, z) for params, z, _ in POINTS]
    routes = tuple((m, route) for m, route in select._AUTO_ROUTES if m is not MethodId.CONNECTION)
    monkeypatch.setattr(select, "_AUTO_ROUTES", routes)
    taken = 0
    for (params, z, _), got in zip(POINTS, new):
        today = _choice(params, z)
        accepts = CONNECTION.refusal(params, z, None, DEFAULT_Z0) is None
        assert not accepts or CONNECTION.rate(z, DEFAULT_Z0) <= RATE_GATE  # |z| >= 1/RATE_GATE
        # today's pick stands where it came within the gate: the walk returned it before reaching the series
        rate = None if today is NoMethodError else ROUTES[today].rate
        within = rate is not None and rate(z, DEFAULT_Z0) <= RATE_GATE
        assert got is (MethodId.CONNECTION if accepts and not within else today), (params, z)
        taken += got is MethodId.CONNECTION
    assert taken > 300
