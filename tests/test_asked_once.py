"""An evaluate call walks the route table once and asks each route's refusal at most once.

Every margin and refusal name that select's walk and the routes' stops forms call is wrapped, in select
and in the route's own module, and so are each series route's rate, select_method, the walk behind it
and the four runner names in select that a series run reaches (and perfbench's tracer wraps).
"""

import cmath
import math
from collections import Counter

import pytest

from gausshyp import HypParams, MethodId, evaluate
from gausshyp import buhring, connection, onepoint, reference, select, threepoint, twopoint

#: Each route's refusal, by its module and name; onepoint-half and onepoint-w share one.
REFUSALS = {
    MethodId.THREEPOINT: (threepoint, "threepoint_refusal"),
    MethodId.TWOPOINT: (twopoint, "twopoint_refusal"),
    MethodId.ONEPOINT_HALF: (onepoint, "onepoint_refusal"),
    MethodId.ONEPOINT_W: (onepoint, "onepoint_refusal"),
    MethodId.BUHRING: (buhring, "buhring_refusal"),
    MethodId.EULER: (reference, "euler_refusal"),
    MethodId.MACLAURIN: (reference, "maclaurin_refusal"),
    MethodId.CONNECTION: (connection, "connection_refusal"),
}
MARGINS = (
    (threepoint, "threepoint_margin"),
    (twopoint, "twopoint_margin"),
    (onepoint, "onepoint_margin"),
    (buhring, "exclusion_margin"),
    (reference, "euler_margin"),
    (reference, "maclaurin_margin"),
    (connection, "connection_margin"),
)

#: (params, z, n_terms, the route evaluate returns) for auto
AUTO_POINTS = {
    "threepoint": (HypParams(1.2, 2.3, 3.5), 1.1 * cmath.exp(1j * math.pi / 3.0), 40, MethodId.THREEPOINT),
    "continuation": (HypParams(1.2, 2.1, 3.0), 3.0 + 0.5j, 40, MethodId.BUHRING),
    # one term does not converge, and the continuation was the first route to accept
    "continuation-n0": (HypParams(1.2, 2.1, 3.0), 3.0 + 0.5j, 0, MethodId.BUHRING),
    # the gate passes over threepoint (rate 0.49) to the continuation
    "deferred": (HypParams(1.2, 2.3, 3.5), 2.0 + 2.0j, 40, MethodId.BUHRING),
    # the continuation the gate picks stops short of tol, and threepoint runs after it
    "fallback": (HypParams(0.59, 1.66, 4.38), 1.544 - 0.879j, 40, MethodId.THREEPOINT),
    # c < b: every route within the gate refuses; past it onepoint-half refuses and the continuation
    # (rate 0.52) accepts but stops short of tol, and it was the first route to accept
    "c<b, past the gate": (HypParams(1.2, 3.0, 2.5), 1.1 * cmath.exp(1j * math.pi / 3.0), 40, MethodId.BUHRING),
    # integer b - a: the continuation refuses, and the 1/z series (rate 0.08) comes before the deferred oracle
    "integer b-a": (HypParams(1.2, 2.2, 3.0), 12.0 + 5.0j, 40, MethodId.CONNECTION),
}

#: The runner name in select that each series route's run reaches.
RUNNERS = {
    MethodId.THREEPOINT: "eval_threepoint",
    MethodId.TWOPOINT: "eval_twopoint",
    MethodId.ONEPOINT_HALF: "eval_onepoint",
    MethodId.ONEPOINT_W: "eval_onepoint",
    MethodId.BUHRING: "buhring_eval",
    MethodId.CONNECTION: "eval_connection",
}

PARAMS, W = HypParams(1.2, 2.1, 3.0), 0.5 + 0.5j
#: A point each route accepts at PARAMS (onepoint-w at w = W; connection at b - a = 1, as PARAMS_OF gives).
EXPLICIT_POINTS = {
    MethodId.MACLAURIN: 0.3 + 0.2j,
    MethodId.EULER: cmath.exp(1j * math.pi / 3.0),
    MethodId.BUHRING: 2.0 + 1.0j,
    MethodId.ONEPOINT_HALF: -1.0 + 1.0j,
    MethodId.ONEPOINT_W: cmath.exp(1j * math.pi / 3.0),
    MethodId.TWOPOINT: -1.0 + 0j,
    MethodId.THREEPOINT: cmath.exp(1j * math.pi / 3.0),
    MethodId.CONNECTION: 12.0 + 5.0j,
}
PARAMS_OF = {MethodId.CONNECTION: HypParams(1.2, 2.2, 3.0)}


@pytest.fixture
def asked(monkeypatch):
    """name -> calls: each refusal and margin, each series route's rate[method], select_method, the walk, runners."""
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for module, name in {*REFUSALS.values(), *MARGINS}:
        for mod in (select, module):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for name in ("select_method", *set(RUNNERS.values())):
        monkeypatch.setattr(select, name, counted(name, getattr(select, name)))
    monkeypatch.setattr(select, "_auto_choice", counted("walk", select._auto_choice))
    # the rates are closures in the route table: count them through copies of its entries
    for method, route in list(select.ROUTES.items()):
        if route.rate is not None:
            monkeypatch.setitem(select.ROUTES, method, route._replace(rate=counted(f"rate[{method}]", route.rate)))
    monkeypatch.setattr(select, "_AUTO_ROUTES", tuple((m, select.ROUTES[m]) for m in select.AUTO_ORDER))
    return counts


def _refusals(counts: Counter) -> dict:
    return {name: k for name, k in counts.items() if name.endswith("_refusal")}


@pytest.mark.parametrize("params, z, n, used", AUTO_POINTS.values(), ids=AUTO_POINTS)
def test_auto_walks_once_and_asks_each_refusal_at_most_once(asked, params, z, n, used):
    _, method = evaluate(params, z, n_terms=n)
    assert method is used
    assert (asked["select_method"], asked["walk"]) == (1, 1), dict(asked)
    assert max(_refusals(asked).values()) == 1, dict(asked)
    assert asked[RUNNERS[used]] >= 1, dict(asked)  # the series sum goes through the name the tracer wraps


@pytest.mark.parametrize("method", list(MethodId), ids=str)
def test_explicit_method_asks_its_refusal_once(asked, method):
    evaluate(PARAMS_OF.get(method, PARAMS), EXPLICIT_POINTS[method], method, w=W)
    assert asked["walk"] == 0
    assert _refusals(asked) == {REFUSALS[method][1]: 1}, dict(asked)
    if method in RUNNERS:
        assert asked[RUNNERS[method]] == 1, dict(asked)
