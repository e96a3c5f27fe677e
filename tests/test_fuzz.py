"""Seeded fuzz: every evaluate call returns a SeriesResult with a finite value or raises a GaussHypError.

auto and each of the seven methods run on every input, with w = 0.5+0.5i,
over two random float ranges, random Python ints and a fixed set of edge inputs.  A bare Python
exception (OverflowError, ZeroDivisionError, ...) fails the test with the
inputs that raised it.  Every call runs twice, and the second must return the
same result or raise the same error class and message, so no output depends
on what the process evaluated before (the three-point moments are kept
between calls).  Each test prints how many calls returned; run pytest with
-s or -rP to see the counts.
"""

import cmath
import math
import random

import pytest

from gausshyp import GaussHypError, HypParams, MethodId, SeriesResult, evaluate
from conftest import MACLAURIN_OVERFLOW, Z_EXC

METHODS = ("auto", *(str(m) for m in MethodId))
W = 0.5 + 0.5j

#: Random draws per range; each runs all eight methods.
DRAWS = 2000


def _draws(seed, param_decades, z_decades):
    """(a, b, c), z: each parameter +-10^U(-1, param_decades), |z| = 10^U(-1, z_decades) at a uniform phase."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        abc = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, param_decades) for _ in range(3))
        yield abc, cmath.rect(10.0 ** rng.uniform(-1.0, z_decades), rng.uniform(-math.pi, math.pi))


#: Python ints: small ones, ones whose exact products pass the double range, and ones past it.
INTS = (*range(-6, 7), 10**62, -(10**62), 10**300, -(10**300), 10**400, -(10**400))


def _int_draws(seed):
    """(a, b, c), z: each an int drawn from INTS."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        yield tuple(rng.choice(INTS) for _ in range(3)), rng.choice(INTS)


EDGE_PARAMS = [
    (1.2, 2.1, 0.0), (1.2, 2.1, -1.0), (1.2, 2.1, -2.0),  # c on a pole of every series
    (1.2, 2.2, 3.0), (1.0, 3.0, 4.0), (-2.0, 1.0, 3.5),  # integer b - a
    (5e-324, 2.1, 3.0), (1.2, 5e-324, 3.0), (1.2, 2.1, 5e-324),  # the smallest subnormal
]
EDGE_Z = [1.0, 2.0, 5e-324, 5e-324j, Z_EXC, -3.0, 3.0 + 1.0j]

CASES = {
    "moderate": lambda: _draws(20, 2.5, 3.0),
    "extreme": lambda: _draws(21, 300.0, 308.0),
    "ints": lambda: _int_draws(22),
    "edge": lambda: [
        (MACLAURIN_OVERFLOW[0], MACLAURIN_OVERFLOW[1]),
        (MACLAURIN_OVERFLOW[0], MACLAURIN_OVERFLOW[1].conjugate()),
        *((abc, z) for abc in EDGE_PARAMS for z in EDGE_Z),
    ],
}


def _call(abc, z, method):
    """evaluate's SeriesResult, or the (class, message) of the GaussHypError it raised; other exceptions propagate."""
    try:
        res, _ = evaluate(HypParams(*abc), z, method, w=W)
    except GaussHypError as exc:
        return type(exc), str(exc)
    assert isinstance(res, SeriesResult)
    return res


def _run(cases):
    """Per method, the number of calls that returned; each (inputs, exception) that was not a GaussHypError; and
    each (inputs, first, second) whose repeated call came out otherwise than the first."""
    returned = dict.fromkeys(METHODS, 0)
    bare, changed = [], []
    for abc, z in cases:
        for method in METHODS:
            try:
                first, again = _call(abc, z, method), _call(abc, z, method)
            except Exception as exc:  # a bare Python exception: the failure this test looks for
                bare.append((abc, z, method, repr(exc)))
                continue
            if repr(again) != repr(first):  # repr tells -0.0 from 0.0
                changed.append((abc, z, method, first, again))
            if isinstance(first, SeriesResult):
                assert cmath.isfinite(first.value), (abc, z, method, first)
                returned[method] += 1
    return returned, bare, changed


@pytest.mark.parametrize("name", list(CASES))
def test_evaluate_returns_or_raises_a_library_error(name):
    cases = list(CASES[name]())
    returned, bare, changed = _run(cases)
    calls = len(cases) * len(METHODS)
    print(f"\n{name}: {sum(returned.values())} of {calls} evaluate calls returned; by method {returned}")
    assert bare == []
    assert changed == []
    assert returned["auto"] > 0  # the inputs reach points that a route serves, not only refusals
