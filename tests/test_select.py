"""Method-selection policy and the evaluate() front end."""

import math
import random
import sys
import warnings

import pytest

from gausshyp import (
    BranchCutError,
    ConfigError,
    DomainError,
    GaussHypError,
    HypParams,
    MethodId,
    NoMethodError,
    NotConvergedWarning,
    OutsideDomain,
    ParamDomainError,
    ROUTES,
    SeriesResult,
    SingularityError,
    euler_integral,
    evaluate,
    hyp2f1,
    maclaurin,
    method_margin,
    select_method,
)
from gausshyp.buhring import DEFAULT_Z0, buhring_refusal
from gausshyp.onepoint import onepoint_margin
from gausshyp.reference import euler_margin, euler_refusal, maclaurin_margin, maclaurin_refusal
from gausshyp.select import AUTO_ORDER, MACLAURIN_RADIUS, RATE_GATE, _first_accepting
from gausshyp.select import buhring_eval, eval_connection, eval_onepoint, eval_threepoint, eval_twopoint
from gausshyp.threepoint import threepoint_margin
from gausshyp.twopoint import twopoint_margin
from conftest import Z_EXC, rel_err

PARAMS = HypParams(1.2, 2.1, 3.0)
#: b - a = 1, for the 1/z series, which refuses PARAMS.
INTEGER_PARAMS = HypParams(1.2, 2.2, 3.0)

#: Non-default arguments for the route-forwarding test.  No route reaches
#: the default tol at n = 8, so dropping tol, like dropping n, w or z0,
#: changes the result.
N, TOL, W, Z0 = 8, 0.5, complex(0.5, 0.5), complex(0.5, 0.1)

#: method -> (in-region z, the direct call evaluate must reproduce); a series route's is its stops form
DIRECT_CALLS = {
    MethodId.MACLAURIN: (0.3 + 0.2j, lambda z: maclaurin(PARAMS, z, tol=TOL)),
    MethodId.EULER: (Z_EXC, lambda z: euler_integral(PARAMS, z, tol=TOL)),
    MethodId.BUHRING: (2.0 + 1.0j, lambda z: next(ROUTES[MethodId.BUHRING].sums(PARAMS, z, (N,), TOL, z0=Z0))),
    MethodId.ONEPOINT_HALF: (-1.0 + 1.0j, lambda z: next(ROUTES[MethodId.ONEPOINT_HALF].sums(PARAMS, z, (N,), TOL))),
    MethodId.ONEPOINT_W: (Z_EXC, lambda z: next(ROUTES[MethodId.ONEPOINT_W].sums(PARAMS, z, (N,), TOL, W))),
    MethodId.TWOPOINT: (-1.0 + 0j, lambda z: next(ROUTES[MethodId.TWOPOINT].sums(PARAMS, z, (N,), TOL))),
    MethodId.THREEPOINT: (Z_EXC, lambda z: next(ROUTES[MethodId.THREEPOINT].sums(PARAMS, z, (N,), TOL))),
    MethodId.CONNECTION: (12.0 + 5.0j, lambda z: next(ROUTES[MethodId.CONNECTION].sums(INTEGER_PARAMS, z, (N,), TOL))),
}

#: method -> its direct call with every default taken, which evaluate's defaults must reproduce;
#: a series route's is select's one-stop runner, which has no default w
DEFAULT_CALLS = {
    MethodId.MACLAURIN: lambda z: maclaurin(PARAMS, z),
    MethodId.EULER: lambda z: euler_integral(PARAMS, z),
    MethodId.BUHRING: lambda z: buhring_eval(PARAMS, z),
    MethodId.ONEPOINT_HALF: lambda z: eval_onepoint(PARAMS, z, w=0.5),
    MethodId.ONEPOINT_W: lambda z: eval_onepoint(PARAMS, z, w=W),
    MethodId.TWOPOINT: lambda z: eval_twopoint(PARAMS, z),
    MethodId.THREEPOINT: lambda z: eval_threepoint(PARAMS, z),
    MethodId.CONNECTION: lambda z: eval_connection(INTEGER_PARAMS, z),
}


def _params(method):
    """The triple each route's direct call above takes."""
    return INTEGER_PARAMS if method is MethodId.CONNECTION else PARAMS


def _bits(res):
    v = complex(res.value)
    return v.real.hex(), v.imag.hex(), res.terms_used, float(res.est_error).hex(), res.converged


class TestSelectMethod:
    def test_safe_disk(self):
        assert select_method(PARAMS, 0.1 + 0j) is MethodId.MACLAURIN
        assert select_method(PARAMS, -0.3 + 0.3j) is MethodId.MACLAURIN

    def test_exceptional_point_routes_to_threepoint(self):
        assert select_method(PARAMS, Z_EXC) is MethodId.THREEPOINT

    def test_far_field_integer_difference(self):
        # three- and two-point regions exclude z = -50; Re z < 1 catches it at rate 0.96, past the gate,
        # and the 1/z series takes it at rate 0.02
        p = HypParams(1.2, 2.2, 3.0)
        assert ROUTES[MethodId.ONEPOINT_HALF].rate(-50.0 + 0j, DEFAULT_Z0) > RATE_GATE
        assert select_method(p, -50.0 + 0j) is MethodId.CONNECTION

    def test_buhring_branch(self):
        # right of Re z = 1, outside both Cassini regions, b - a non-integer
        z = 1.5 + 0.01j
        assert select_method(PARAMS, z) is MethodId.BUHRING

    def test_euler_fallback(self):
        # same z but integer b - a disables the continuation
        z = 1.5 + 0.01j
        p = HypParams(1.2, 2.2, 3.0)
        assert select_method(p, z) is MethodId.EULER

    def test_rate_gate_defers_a_slow_route(self):
        # twopoint accepts z at rate 0.97, and the continuation takes it at rate 0.35
        z = 1.9 + 0.3j
        assert twopoint_margin(z) > 0.0 and ROUTES[MethodId.TWOPOINT].rate(z, DEFAULT_Z0) > RATE_GATE
        assert select_method(PARAMS, z) is MethodId.BUHRING
        # with an integer b - a the continuation refuses, and the deferred route stands
        assert select_method(HypParams(1.2, 2.2, 3.0), z) is MethodId.TWOPOINT

    def test_no_method(self):
        p = HypParams(1.2, 2.2, 2.0)  # integer b - a and c < b
        # on |z| = 1 neither the power series nor the 1/z series converges
        with pytest.raises(NoMethodError):
            select_method(p, 1j)
        # past the gate, the 1/z series is the one route that accepts 1.5 + 0.01j
        assert select_method(p, 1.5 + 0.01j) is MethodId.CONNECTION

    @pytest.mark.parametrize(
        "params, z, method, converges",
        [
            # c < b: the rational expansions and the oracle refuse, the continuation does not
            (HypParams(1.2, 2.1, 1.5), Z_EXC, MethodId.BUHRING, False),
            # c < b and integer b - a: only the power series is left, at |z| = 0.76
            (HypParams(1.2, 2.2, 2.0), 0.7 + 0.3j, MethodId.MACLAURIN, True),
        ],
        ids=["buhring", "maclaurin"],
    )
    def test_c_not_above_b_takes_a_route_that_accepts_it(self, params, z, method, converges):
        mpmath = pytest.importorskip("mpmath")
        assert select_method(params, z) is method
        res, used = evaluate(params, z)
        assert used is method and res.converged is converges
        ref = complex(mpmath.hyp2f1(*params, z))
        assert rel_err(res.value, ref) <= 10.0 * res.est_error

    def test_no_method_names_each_refusal(self):
        # on the real ray z >= 1 every route refuses, the oracle at its cut
        with pytest.raises(NoMethodError) as info:
            evaluate(PARAMS, 3.0)
        message = str(info.value)
        assert message.startswith("no evaluation method applies at z = (3+0j) for HypParams(a=1.2, b=2.1, c=3.0): ")
        reasons = message.split(": ", 1)[1].split("; ")
        assert [r.split(": ")[0] for r in reasons] == [str(m) for m in AUTO_ORDER]
        assert "euler-oracle: BranchCutError: z = (3+0j) lies on the branch cut [1, inf)" in reasons
        assert "maclaurin: OutsideDomain: |z| = 3.0 >= 1: power series diverges" in reasons

    def test_grid_coverage_and_predicate_consistency(self):
        # on a 101x101 grid over [-3,3]^2 some method applies off the real ray
        # [1, inf), where every route refuses, and the returned method's own
        # predicate holds at z
        for i in range(101):
            for j in range(101):
                z = complex(-3.0 + 0.06 * i, -3.0 + 0.06 * j)
                if z.imag == 0.0 and z.real >= 1.0:
                    with pytest.raises(NoMethodError):
                        select_method(PARAMS, z)
                    continue
                method = select_method(PARAMS, z)
                if method is MethodId.MACLAURIN:
                    assert abs(z) <= 0.5
                elif method is MethodId.THREEPOINT:
                    assert threepoint_margin(z) > 0.0
                elif method is MethodId.TWOPOINT:
                    assert twopoint_margin(z) > 0.0
                elif method is MethodId.ONEPOINT_HALF:
                    assert onepoint_margin(z, 0.5) > 0.0
                elif method is MethodId.BUHRING:
                    assert abs(z - 0.5) > 0.5
                    assert buhring_refusal(PARAMS, z, 0.5) is None
                else:
                    assert method is MethodId.EULER and PARAMS.param_refusal("Euler integral needs") is None

    @pytest.mark.parametrize(
        "params, z0", [(PARAMS, math.nan), (HypParams(1.2, 2.1, 1.5), math.inf)], ids=["nan", "inf"]
    )
    def test_non_finite_z0_is_a_domain_error(self, params, z0):
        # nan failed only buhring's margin, so auto chose euler-oracle; with c = 1.5 inf raised NoMethodError
        with pytest.raises(DomainError, match="z0 must have finite components and modulus"):
            select_method(params, 3 + 0.5j, z0)


class TestAutoRouteAcceptsThePoint:
    """The route auto picks must accept the point: evaluate(params, z) raises
    no OutsideDomain, and BranchCutError only on the real ray [1, inf)."""

    #: (params, z, z0, the route auto takes there, whether that route converges)
    PINNED = [
        # Re z < 1 by one part in 3e11, but the half-point margin is not positive
        (PARAMS, 0.9999999999686903 - 4179567.8265270633j, DEFAULT_Z0, MethodId.BUHRING, True),
        # outside the z0 = 0.5+0.5i disk, on that continuation's cut
        (PARAMS, 10.0 + 0.5j, 0.5 + 0.5j, MethodId.EULER, True),
        # the continuation stalls (est_error 6.5) where the oracle converges;
        # reaching the oracle there is a route-ranking question, not a gate one
        (PARAMS, 0.9999999999999999 + 0.0010101007275111766j, DEFAULT_Z0, MethodId.BUHRING, None),
        # integer b - a: the continuation refuses, and the 1/z series (rate 0.08) comes before the deferred oracle
        (INTEGER_PARAMS, 12.0 + 5.0j, DEFAULT_Z0, MethodId.CONNECTION, True),
    ]

    @staticmethod
    def _triples(rng):
        # the main triple, an integer b - a, and three seeded Euler-valid triples
        triples = [PARAMS, HypParams(1.2, 2.2, 3.0)]
        for _ in range(3):
            b = rng.uniform(0.2, 3.0)
            triples.append(HypParams(rng.uniform(-2.0, 3.0), b, b + rng.uniform(0.1, 3.0)))
        return triples

    @staticmethod
    def _assert_accepted(params, z, z0=DEFAULT_Z0):
        try:
            evaluate(params, z, z0=z0)
            if abs(z) > MACLAURIN_RADIUS:  # auto's route and the one evaluate falls back to accept z too
                method = select_method(params, z, z0)
                routes = method, _first_accepting(params, complex(z), complex(z0), method)
                assert [ROUTES[m].refusal(params, z, None, z0) for m in routes] == [None] * 2
        except OutsideDomain as exc:
            pytest.fail(f"auto chose a route that refuses {params}, z = {z!r}, z0 = {z0!r}: {exc}")
        except BranchCutError:
            assert z.imag == 0.0 and z.real >= 1.0, (params, z, z0)

    @pytest.mark.parametrize(
        "params, z, z0, method, converges", PINNED, ids=["half-point-edge", "z0-cut", "re-z-1", "integer-b-a"]
    )
    def test_pinned_points(self, params, z, z0, method, converges):
        assert select_method(params, z, z0) is method
        self._assert_accepted(params, z, z0)
        res, used = evaluate(params, z, z0=z0)
        assert used is method
        if converges:
            assert res.converged

    @pytest.mark.parametrize(
        "params, z",
        [
            # the continuation returns est_error 9.5e-12, converged=False
            (HypParams(0.59, 1.66, 4.38), 1.544 - 0.879j),
            # the continuation raises RecurrenceBreakdown: gamma(175.24) overflows
            (HypParams(-9.78, 155.5, 175.24), 3.27 + 4.25j),
        ],
        ids=["unconverged", "breakdown"],
    )
    def test_fallback_runs_the_first_accepting_route(self, params, z):
        # the gate sends z past a slow threepoint to the continuation; where that fails, threepoint runs
        assert select_method(params, z) is MethodId.BUHRING
        self._assert_accepted(params, z)
        res, used = evaluate(params, z)
        assert used is MethodId.THREEPOINT and res.converged
        assert _bits(res) == _bits(evaluate(params, z, MethodId.THREEPOINT)[0])

    def test_unconverged_connection_falls_back_to_the_oracle(self):
        # a large a: the 1/z series, within the gate at 1/|z| = 0.42, stops at est_error 2.5e-11; the oracle,
        # rate-less and so deferred, is the first route before it to accept
        params, z = HypParams(5.2, 2.2, 2.9), 2.35 + 0.35j
        assert select_method(params, z) is MethodId.CONNECTION
        assert not evaluate(params, z, MethodId.CONNECTION)[0].converged
        self._assert_accepted(params, z)
        res, used = evaluate(params, z)
        assert used is MethodId.EULER and res.converged
        assert _bits(res) == _bits(evaluate(params, z, MethodId.EULER)[0])

    def test_fallback_keeps_the_better_result(self):
        # a large a: the 1/z series, within the gate at 1/|z| = 0.42, stops at est_error 1.0e-7; the deferred
        # threepoint, the first route before it to accept, is worse (est_error 2.0), so auto keeps the 1/z result
        params, z = HypParams(9.3, 4.3, 5.8), 2.1061981485368944 + 1.1506212926500872j  # 2.4 exp(0.5i)
        assert select_method(params, z) is MethodId.CONNECTION
        first = evaluate(params, z, MethodId.THREEPOINT)[0]
        res, used = evaluate(params, z)
        assert used is MethodId.CONNECTION and not res.converged and res.est_error < 1e-6
        assert not first.converged and first.est_error > 1.0
        assert _bits(res) == _bits(evaluate(params, z, MethodId.CONNECTION)[0])

    def test_integer_difference_far_field(self):
        # b - a = m, inside and outside c > b > 0, at 1 < |z| < 1e6, on and beside the cut [1, inf) too
        rng = random.Random(18)
        for _ in range(400):
            a, m = rng.uniform(-4.0, 4.0), rng.randint(-4, 4)
            c = rng.uniform(a + m, a + m + 4.0) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)
            t = rng.choice((0.0, 1e-9, -1e-9, math.pi, rng.uniform(-math.pi, math.pi)))
            z = 10.0 ** rng.uniform(0.01, 6.0) * complex(math.cos(t), math.sin(t))
            if t == 0.0:  # the real ray [1, inf), where every route refuses
                with pytest.raises(NoMethodError):
                    evaluate(HypParams(a, a + m, c), z)
            else:
                self._assert_accepted(HypParams(a, a + m, c), z)

    def test_near_re_z_one(self):
        rng = random.Random(15)
        offsets = (0.0, 1.1e-16, 2.2e-16, 1e-13, 1e-10, 1e-8, 1e-5)
        for params in self._triples(rng):
            for _ in range(200):
                re = 1.0 + rng.choice((-1.0, 1.0)) * rng.choice(offsets)
                im = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 7.0)
                self._assert_accepted(params, complex(re, im))

    @pytest.mark.parametrize("z0", [0.5 + 0.5j, 0.3 - 0.8j], ids=str)
    def test_on_the_continuation_cut(self, z0):
        # z0 + t for t > 0 beyond the excluded disk: ph(z0 - z) = pi exactly
        rng = random.Random(16)
        radius = max(abs(z0), abs(z0 - 1.0))
        for params in self._triples(rng):
            for _ in range(40):
                self._assert_accepted(params, z0 + radius * 10.0 ** rng.uniform(1e-3, 3.0), z0)


class TestMethodMargin:
    def test_margins(self):
        assert method_margin(MethodId.MACLAURIN, 0.25 + 0j) == 0.75
        assert method_margin(MethodId.BUHRING, 2.0 + 0j) == 1.0
        assert method_margin(MethodId.TWOPOINT, 0j) == 4.0
        assert method_margin(MethodId.EULER, 1.5 + 2.0j) == 2.0
        assert method_margin(MethodId.EULER, -1.0 + 0j) == 2.0

    def test_onepoint_w_needs_w(self):
        with pytest.raises(ConfigError):
            method_margin(MethodId.ONEPOINT_W, 0.5 + 0j)
        assert method_margin(MethodId.ONEPOINT_W, 0j, w=1j) == 1.0
        with pytest.raises(DomainError, match="nonzero"):
            method_margin(MethodId.ONEPOINT_W, -0.5, w=0)

    def test_route_names(self):
        for method in MethodId:
            assert method_margin(method.value, 0.3, w=W) == method_margin(method, 0.3, w=W)
        assert method_margin("threepoint", 0.3) > 0.0
        with pytest.raises(ConfigError, match="unknown method 'pade'"):
            method_margin("pade", 0.3)

    def test_auto_names_no_region(self):
        with pytest.raises(ConfigError, match="'auto'"):
            method_margin("auto", 0.3)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(0.5, math.nan)], ids=repr)
    def test_non_finite_input_raises(self, bad):
        # a NaN margin is neither inside nor outside; evaluate rejects the same input
        with pytest.raises(DomainError):
            method_margin(MethodId.ONEPOINT_W, 0.5j, w=bad)
        with pytest.raises(DomainError):
            method_margin(MethodId.BUHRING, 2.0, z0=bad)
        with pytest.raises(DomainError):
            method_margin(MethodId.TWOPOINT, bad)


#: The routes with a rate: the series routes auto asks.
RATED = [MethodId.BUHRING, MethodId.ONEPOINT_HALF, MethodId.TWOPOINT, MethodId.THREEPOINT, MethodId.CONNECTION]

#: z where a rate's formula overflows, where |z| itself does, and the poles z = 1, 2; each rate there.
RATE_EDGES = (1e200, complex(1e308, 1e308), complex(1.5e308, 1.5e308), 1.0, 2.0)
RATES_AT_EDGES = {
    MethodId.BUHRING: (0.5 / (1e200 - 0.5), 0.5 / abs(complex(1e308 - 0.5, 1e308)), math.inf, 1.0, 1.0 / 3.0),
    MethodId.ONEPOINT_HALF: (1.0, 1.0, math.inf, 1.0, math.inf),
    MethodId.TWOPOINT: (math.inf, math.inf, math.inf, math.inf, 1.0),
    MethodId.THREEPOINT: (math.inf,) * 5,
    MethodId.CONNECTION: (1e-200, 1.0 / abs(complex(1e308, 1e308)), math.inf, 1.0, 0.5),
}


class TestRate:
    def test_the_series_routes_of_auto_have_a_rate(self):
        assert [m for m in MethodId if ROUTES[m].rate is not None] == RATED
        assert set(RATED) < set(AUTO_ORDER)

    @pytest.mark.parametrize("method", RATED, ids=str)
    def test_overflow_and_poles(self, method):
        # inf where the margin reads -inf or the formula divides by zero, as no raise; rate < 1 iff margin > 0
        for z, expected in zip(map(complex, RATE_EDGES), RATES_AT_EDGES[method]):
            rate = ROUTES[method].rate(z, DEFAULT_Z0)
            assert rate == pytest.approx(expected, rel=1e-15), z
            if math.isfinite(math.hypot(z.real, z.imag)):  # a margin takes only what evaluate lets through
                assert (rate < 1.0) == (ROUTES[method].margin(z, None, DEFAULT_Z0) > 0.0), z

    @pytest.mark.parametrize("method", RATED, ids=str)
    def test_rate_below_one_exactly_where_the_margin_is_positive(self, method):
        rng = random.Random(23)
        inside = 0
        for _ in range(2000):
            t = rng.uniform(-math.pi, math.pi)
            z = 10.0 ** rng.uniform(-1.0, 2.0) * complex(math.cos(t), math.sin(t))
            z0 = rng.choice((DEFAULT_Z0, 0.5 + 0.5j, 0.3 - 0.8j))
            rate = ROUTES[method].rate(z, z0)
            if abs(rate - 1.0) < 1e-9:  # away from the boundary only
                continue
            assert (rate < 1.0) == (ROUTES[method].margin(z, None, z0) > 0.0), (z, z0, rate)
            inside += rate < 1.0
        assert 200 <= inside <= 1800

    @pytest.mark.parametrize("method", RATED, ids=str)
    def test_rate_and_margin_agree_on_both_sides_of_the_boundary(self, method):
        # each seeded ray from 0 (from z0 for the continuation) is bisected to the two adjacent doubles t whose
        # points lie either side of the boundary, and both points are checked, with no band.  twopoint's rate
        # once read |z|**2 where its margin reads |z| * |z|, and disagreed at 14 of these points.
        route, rng = ROUTES[method], random.Random(33)
        checked = 0
        for _ in range(10_000):
            d = complex(math.cos(phi := rng.uniform(-math.pi, math.pi)), math.sin(phi))
            z0 = rng.choice((DEFAULT_Z0, 0.5 + 0.5j, 0.3 - 0.8j))
            center = z0 if method is MethodId.BUHRING else 0j
            inside = lambda t: route.margin(center + t * d, None, z0) > 0.0
            lo, hi, lo_inside = 1e-3, 1e3, inside(1e-3)
            if inside(hi) == lo_inside:
                continue
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if inside(mid) == lo_inside:
                    lo = mid
                else:
                    hi = mid
            for z in (center + lo * d, center + hi * d):
                assert (route.rate(z, z0) < 1.0) == (route.margin(z, None, z0) > 0.0), (z, z0)
            checked += 2
        assert checked >= 9_000


#: Finite z whose |z|^3 overflows double precision, then one whose |z| does.
HUGE_Z = (1e200, 1e103j, complex(-1e150, 1.0), complex(1e308, 1e308), complex(1.5e308, 1.5e308))


class TestHugeArgument:
    @pytest.mark.parametrize("z", HUGE_Z, ids=repr)
    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_only_library_errors(self, method, z):
        try:
            evaluate(PARAMS, z, method, w=W)
        except GaussHypError:
            pass

    def test_margins_refuse_instead_of_raising(self):
        assert method_margin(MethodId.THREEPOINT, 1e200) == -math.inf
        assert method_margin(MethodId.ONEPOINT_W, 1e308, w=1.5 + 1.5j) == -math.inf  # |wz| overflows
        assert not threepoint_margin(complex(-1e150, 1.0)) > 0.0
        with pytest.raises(DomainError, match="modulus"):
            method_margin(MethodId.TWOPOINT, HUGE_Z[-1])
        with pytest.raises(DomainError, match="modulus"):
            select_method(PARAMS, HUGE_Z[-1])

    def test_continuation_refuses_where_z_minus_z0_overflows(self):
        # z and z0 are finite, but |z - z0| is past the largest double
        z, z0 = complex(1e308, 1e308), complex(-0.5e308, -0.5e308)
        assert method_margin(MethodId.BUHRING, z, z0=z0) == -math.inf
        assert isinstance(buhring_refusal(PARAMS, z, z0), OutsideDomain)
        with pytest.raises(OutsideDomain, match="margin -inf"):
            evaluate(PARAMS, z, MethodId.BUHRING, z0=z0)
        try:
            evaluate(PARAMS, z, z0=z0)
        except GaussHypError:
            pass

    @pytest.mark.parametrize(
        "method, z, w",
        [
            (MethodId.TWOPOINT, 1e308, None),
            (MethodId.TWOPOINT, complex(1e308, 1e307), None),
            (MethodId.ONEPOINT_W, 1e308, 2.0),
            (MethodId.ONEPOINT_W, 1e308j, 2.0),
        ],
        ids=repr,
    )
    def test_margins_are_minus_inf_where_both_sides_overflow(self, method, z, w):
        assert method_margin(method, z, w=w) == -math.inf
        with pytest.raises(OutsideDomain, match=r"\(margin -inf\)"):
            evaluate(PARAMS, z, method, w=w)

    def test_finite_margins_keep_their_bits(self):
        # |z|^3 is finite up to |z| ~ 5.64e102
        for z in (5.6e102, 5.6e102j, complex(-3e102, 4e102)):
            want = 6.0 * math.sqrt(3.0) * abs((1.0 - z) * (2.0 - z)) - abs(z) ** 3
            assert math.isfinite(want)
            assert method_margin(MethodId.THREEPOINT, z) == want


#: An int past the double range, which complex() and math.isfinite cannot convert.
PAST_DOUBLE = 10**400
PAST_DOUBLE_Z = "z must have finite components and modulus, got a number past the double range"


class TestIntPastTheDoubleRange:
    # each raised a bare OverflowError ("int too large to convert to float") from complex() or math.isfinite
    @pytest.mark.parametrize("z", [PAST_DOUBLE, -PAST_DOUBLE], ids=["plus", "minus"])
    def test_evaluate_with_a_method(self, z):
        with pytest.raises(DomainError, match=PAST_DOUBLE_Z):
            evaluate(PARAMS, z, "threepoint")

    def test_evaluate_auto(self):
        with pytest.raises(DomainError, match=PAST_DOUBLE_Z):
            evaluate(PARAMS, PAST_DOUBLE)

    def test_select_method(self):
        with pytest.raises(DomainError, match=PAST_DOUBLE_Z):
            select_method(PARAMS, PAST_DOUBLE)

    def test_method_margin(self):
        with pytest.raises(DomainError, match=PAST_DOUBLE_Z):
            method_margin("threepoint", PAST_DOUBLE)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_evaluate_z0(self, method):
        with pytest.raises(DomainError, match="z0 must have finite components and modulus, got a number past"):
            evaluate(PARAMS, Z_EXC, method, w=W, z0=PAST_DOUBLE)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_evaluate_w(self, method):
        with pytest.raises(DomainError, match="w must have finite components and modulus, got a number past"):
            evaluate(PARAMS, Z_EXC, method, w=PAST_DOUBLE)

    def test_evaluate_tol(self):
        # 0 < 10**400 < inf held, and the power series overflowed at its first term
        with pytest.raises(ConfigError, match="tol must be a finite number > 0, got an int of 1329 bits"):
            evaluate(PARAMS, 0.3, tol=PAST_DOUBLE)


#: An int past Python's int-to-str limit (4,300 digits), whose str() raises ValueError.
PAST_STR_LIMIT = 10**5000


class TestIntPastTheStrLimit:
    # each message called str() on the int, whose ValueError replaced the library error
    def test_negative_n_terms(self):
        with pytest.raises(ConfigError, match="n_terms must be >= 0, got a negative int of 16610 bits"):
            evaluate(PARAMS, Z_EXC, "threepoint", n_terms=-PAST_STR_LIMIT)

    def test_tol(self):
        with pytest.raises(ConfigError, match="tol must be a finite number > 0, got a negative int of 16610 bits"):
            evaluate(PARAMS, Z_EXC, tol=-PAST_STR_LIMIT)

    def test_method(self):
        with pytest.raises(ConfigError, match="unknown method an int of 16610 bits"):
            evaluate(PARAMS, Z_EXC, PAST_STR_LIMIT)


class TestRouteTable:
    @pytest.mark.parametrize("method", list(MethodId), ids=str)
    def test_defaults_agree(self, method):
        # buhring_eval summed indices 0 .. 20 by default where evaluate summed 0 .. 40
        z = DIRECT_CALLS[method][0]
        assert _bits(DEFAULT_CALLS[method](z)) == _bits(evaluate(_params(method), z, method, w=W)[0])

    @pytest.mark.parametrize("method", [m for m in MethodId if ROUTES[m].body is not None], ids=str)
    def test_run_is_the_one_stop_of_sums(self, method):
        # the series runs go through select's one-stop runner; it must forward n, tol, w and z0 unchanged
        z, w, z0 = DIRECT_CALLS[method][0], 0.3 + 0.4j, 0.3 + 0.1j
        for n in (0, 7, 40):
            (want,) = ROUTES[method].sums(_params(method), z, (n,), TOL, w, z0)
            assert _bits(ROUTES[method].run(_params(method), z, n, TOL, w, z0)) == _bits(want), n

    @pytest.mark.parametrize("method", list(MethodId), ids=str)
    def test_evaluate_forwards_every_argument(self, method):
        assert set(ROUTES) == set(MethodId) == set(DIRECT_CALLS)
        z, direct = DIRECT_CALLS[method]
        res, used = evaluate(_params(method), z, method, n_terms=N, tol=TOL, w=W, z0=Z0)
        assert used is method
        assert method_margin(method, z, w=W, z0=Z0) > 0
        assert res == direct(z)
        assert res.converged


class TestEvaluate:
    def test_auto_matches_oracle(self):
        for z in (0.3 + 0j, Z_EXC, -1.0 + 1j, 1.5 + 0.01j):
            res, method = evaluate(PARAMS, z, method="auto")
            ref = euler_integral(PARAMS, z).value
            assert rel_err(res.value, ref) <= 1e-5, (z, method)

    def test_explicit_method_string(self):
        res, method = evaluate(PARAMS, Z_EXC, method="twopoint", n_terms=25)
        assert method is MethodId.TWOPOINT
        ref = euler_integral(PARAMS, Z_EXC).value
        assert rel_err(res.value, ref) <= 1e-11

    def test_onepoint_w_requires_w(self):
        with pytest.raises(ConfigError):
            evaluate(PARAMS, Z_EXC, method="onepoint-w")
        res, _ = evaluate(PARAMS, Z_EXC, method="onepoint-w", w=complex(0.5, 0.5), n_terms=25)
        ref = euler_integral(PARAMS, Z_EXC).value
        assert rel_err(res.value, ref) <= 1e-6

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_negative_n_terms_rejected(self, method):
        with pytest.raises(ConfigError, match="n_terms"):
            evaluate(PARAMS, Z_EXC, method, n_terms=-1, w=W)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_non_integer_n_terms_rejected(self, method):
        with pytest.raises(ConfigError, match="n_terms must be an integer, got 2.5"):
            evaluate(PARAMS, Z_EXC, method, n_terms=2.5, w=W)
        with pytest.raises(ConfigError, match="n_terms must be an integer"):
            hyp2f1(1.2, 2.1, 3.0, Z_EXC, method=method, n_terms=2.5, w=W)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_bool_n_terms_rejected(self, method):
        with pytest.raises(ConfigError, match="n_terms must be an integer, got True"):
            evaluate(PARAMS, Z_EXC, method, n_terms=True, w=W)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0, -0.0, True, "1e-13", 1e-13j])
    def test_tol_must_be_a_finite_positive_number(self, method, tol):
        # inf let the oracle call est_error = inf converged, nan ran maclaurin to its budget,
        # and -1 ran the oracle through every level
        with pytest.raises(ConfigError, match="tol must be a finite number > 0"):
            evaluate(PARAMS, Z_EXC, method, tol=tol, w=W)
        with pytest.raises(ConfigError, match="tol must be a finite number > 0"):
            hyp2f1(1.2, 2.1, 3.0, Z_EXC, method=method, tol=tol, w=W)

    def test_tiny_tol_is_accepted(self):
        # the power series runs until its terms underflow, short of its 2,000-term budget
        res, _ = evaluate(PARAMS, 0.3 + 0j, "maclaurin", tol=5e-324)
        assert 0 < res.terms_used < 2000 and not res.converged

    def test_huge_n_terms_is_a_config_error(self):
        # sum_series reads n_terms + 1 terms through islice, whose bound is sys.maxsize
        for n_terms in (sys.maxsize, sys.maxsize + 1, 10**400):
            with pytest.raises(ConfigError, match=r"n_terms must be <= sys.maxsize - 1 = \d+, got a larger count"):
                evaluate(PARAMS, Z_EXC, "threepoint", n_terms=n_terms)

    @pytest.mark.parametrize("method", ["auto", *MethodId], ids=str)
    def test_invalid_z0_or_w_is_rejected_before_routing(self, method):
        # auto used to route past an unused bad z0 or w and return a result
        with pytest.raises(DomainError, match="z0 must have finite"):
            evaluate(PARAMS, 3 + 1j, method, z0=math.nan, w=W)
        with pytest.raises(DomainError, match="expansion point w must be nonzero"):
            evaluate(PARAMS, 0.3, method, w=0)
        with pytest.raises(DomainError, match="w must have finite"):
            evaluate(PARAMS, 0.3, method, w=complex(0.5, math.inf))

    def test_unknown_method_string(self):
        with pytest.raises(ConfigError):
            evaluate(PARAMS, Z_EXC, method="pade")

    def test_result_rejects_negative_est_error(self):
        with pytest.raises(ValueError, match="est_error must be non-negative"):
            SeriesResult(0j, 0, -1.0, False)

    @pytest.mark.parametrize("name", ["foo", "Threepoint", "MethodId.THREEPOINT", ""])
    def test_unknown_method_is_a_library_error(self, name):
        with pytest.raises(GaussHypError, match="unknown method"):
            evaluate(PARAMS, Z_EXC, name)
        with pytest.raises(ConfigError, match="unknown method"):
            hyp2f1(1.2, 2.1, 3.0, Z_EXC, method=name)

    def test_hyp2f1_wrapper(self):
        import math

        got = hyp2f1(1.0, 1.0, 2.0, 0.5 + 0j)
        assert abs(got - 2.0 * math.log(2.0)) <= 1e-12

    def test_hyp2f1_warns_when_not_converged(self):
        # c < b and integer b - a: only the 1/z series accepts, at rate 0.67, and it stops short of tol
        with pytest.warns(NotConvergedWarning, match=r"connection .*est_error = 2\.12e-07"):
            hyp2f1(1.2, 2.2, 2.0, 1.5 + 0.01j)

    def test_hyp2f1_silent_when_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hyp2f1(1.2, 2.1, 3.0, Z_EXC)


def _refusal_samples():
    """(params, z, w, z0) covering every refusal: c <= b, b <= 0, integer b - a, z in {1, 2},
    the real ray [1, inf) and the continuation's cut, non-finite z and z0, w = 0 and w = None."""
    rng = random.Random(19)
    triples = [PARAMS, HypParams(1.2, 2.2, 3.0), HypParams(1.2, 2.1, 1.5), HypParams(1.2, 2.1, 2.1)]
    triples += [HypParams(0.7, -0.4, 2.0), HypParams(1.0, 0.0, 2.5)]
    for _ in range(8):
        b = rng.uniform(-3.0, 5.0)
        a = b - rng.randint(-3, 3) if rng.random() < 0.3 else rng.uniform(-3.0, 5.0)
        triples.append(HypParams(a, b, b + rng.uniform(-3.0, 4.0)))
    zs = [0.3 + 0.2j, Z_EXC, -1.0 + 1.0j, -5.0, 0.7 + 0.3j, 1.0, 2.0, 3.0, 1.5 + 0.01j, 10.0 + 0.5j]
    zs += [complex(math.nan, 0.0), complex(1.0, math.inf)]
    zs += [complex(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)) for _ in range(6)]
    points = [(0.5, W), (0.5 + 0.5j, None), (complex(math.nan, 0.0), 0), (DEFAULT_Z0, 1j)]
    return [(p, z, w, z0) for p in triples for z in zs for z0, w in points]


REFUSAL_SAMPLES = _refusal_samples()


def _first_result(method, params, z, w, z0):
    route = ROUTES[method]
    if route.body is None:
        return route.run(params, z, 5, 1e-13, w, z0)
    return next(route.sums(params, z, (5,), 1e-13, w, z0))


#: The refusal classes each route gives on REFUSAL_SAMPLES.
REFUSED = {
    MethodId.MACLAURIN: {"DomainError", "OutsideDomain"},
    MethodId.EULER: {"ParamDomainError", "DomainError", "BranchCutError"},
    MethodId.BUHRING: {"IntegerDifferenceError", "DomainError", "OutsideDomain", "BranchCutError"},
    MethodId.ONEPOINT_HALF: {"DomainError", "ParamDomainError", "OutsideDomain"},
    MethodId.ONEPOINT_W: {"ConfigError", "DomainError", "ParamDomainError", "OutsideDomain"},
    MethodId.TWOPOINT: {"DomainError", "SingularityError", "ParamDomainError", "OutsideDomain"},
    MethodId.THREEPOINT: {"DomainError", "SingularityError", "ParamDomainError", "OutsideDomain"},
    MethodId.CONNECTION: {"ParamDomainError", "DomainError", "PoleError", "OutsideDomain", "BranchCutError"},
}


class TestRefusal:
    @pytest.mark.parametrize("method", list(MethodId), ids=str)
    def test_refusal_is_what_the_route_raises(self, method):
        # None exactly where the first result comes back, and only where the margin that
        # select_method asks first is positive; else the class and message raised
        refused, accepted = set(), 0
        for params, z, w, z0 in REFUSAL_SAMPLES:
            refusal = ROUTES[method].refusal(params, z, w, z0)
            try:
                _first_result(method, params, z, w, z0)
            except GaussHypError as exc:
                assert refusal is not None, (params, z, w, z0, exc)
                assert (type(exc), str(exc)) == (type(refusal), str(refusal)), (params, z, w, z0)
                refused.add(type(exc).__name__)
            else:
                assert refusal is None, (params, z, w, z0, refusal)
                assert ROUTES[method].margin(z, w, z0) > 0.0, (params, z, w, z0)
                accepted += 1
        assert refused == REFUSED[method]
        assert accepted >= 20

    def test_disk_and_cut_refusals_are_their_margins(self):
        # for finite z, each refusal is its region error exactly where its margin is not positive (under
        # c > b > 0 for the cut), and None elsewhere; the extra points lie on and beside [1, inf)
        edge = [1.0, 2.0, 1 + 1e-300j, 1 - 1e-300j, 1 - 1e-16]
        edge += [complex(x, -0.0) for x in (0.5, 1.0, 3.0)]
        for params, z in [(p, z) for p, z, _, _ in REFUSAL_SAMPLES] + [(PARAMS, z) for z in edge]:
            if not math.isfinite(abs(z)):
                continue
            outside = OutsideDomain if maclaurin_margin(z) <= 0.0 else type(None)
            assert type(maclaurin_refusal(z)) is outside, z
            if params.c > params.b > 0:
                on_cut = BranchCutError if euler_margin(z) <= 0.0 else type(None)
                assert type(euler_refusal(params, z)) is on_cut, (params, z)

    @pytest.mark.parametrize("method", [m for m in MethodId if ROUTES[m].body is not None], ids=str)
    def test_stops_form_refuses_when_called(self, method):
        # a refused point raises from the sums call itself, before any next()
        refused = 0
        for params, z, w, z0 in REFUSAL_SAMPLES:
            refusal = ROUTES[method].refusal(params, z, w, z0)
            if refusal is None:
                continue
            with pytest.raises(type(refusal)) as exc:
                ROUTES[method].sums(params, z, (5,), 1e-13, w, z0)
            assert str(exc.value) == str(refusal), (params, z, w, z0)
            refused += 1
        assert refused >= 20

    def test_auto_returns_what_its_route_returns(self):
        # a, b, c = +-10^U(-1, 1.2), |z| = 10^U(-1, 1.5), any sign and argument
        rng = random.Random(19)

        def draw():
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.2)

        def points():
            yield PARAMS, 1.9 + 0.3j  # buhring, past twopoint's rate
            yield HypParams(1.2, 2.2, 3.0), 1.9 + 0.3j  # twopoint: with an integer b - a no continuation takes it
            yield HypParams(1.2, 2.2, 3.0), -50.0 + 0j  # connection, ahead of onepoint-half past the gate
            yield HypParams(1.2, 2.2 + 1e-10, 3.0), -50.0 + 0j  # onepoint-half: b - a is past the 1/z series' band
            yield HypParams(1.2, 2.2, 3.0), 1.5 + 0.01j  # euler-oracle
            for _ in range(1500):
                try:
                    params = HypParams(draw(), draw(), draw())
                except GaussHypError:
                    continue
                t = rng.uniform(-math.pi, math.pi)
                yield params, 10.0 ** rng.uniform(-1.0, 1.5) * complex(math.cos(t), math.sin(t))

        routes = set()
        for params, z in points():
            try:
                res, method = evaluate(params, z)
            except (DomainError, ConfigError, NoMethodError):
                continue
            routes.add(method)
            assert _bits(evaluate(params, z, method)[0]) == _bits(res), (params, z, method)
        assert routes == set(AUTO_ORDER)


C_BELOW_B = HypParams(1.2, 2.1, 1.5)
NAN_Z = complex(math.nan, 0.0)

#: (route, params, z, w, class, message start) at points that fail several checks; the first check in the
#: route's documented order decides.  z = -20 lies outside the two- and three-point regions, z = 5 outside
#: the one-point regions at w = 1/2 and w = W.
PRECEDENCE = [
    (MethodId.THREEPOINT, C_BELOW_B, NAN_Z, None, DomainError, "z must have finite"),
    (MethodId.THREEPOINT, C_BELOW_B, 1.0, None, SingularityError, "z = (1+0j): coefficient recursion is singular"),
    (MethodId.THREEPOINT, C_BELOW_B, 2.0, None, SingularityError, "z = (2+0j): coefficient recursion is singular"),
    (MethodId.THREEPOINT, C_BELOW_B, -20.0, None, ParamDomainError, "expansion derived under c > b > 0"),
    (MethodId.THREEPOINT, PARAMS, -20.0, None, OutsideDomain, "z = (-20+0j) outside |z|^3 < 6 sqrt(3)|(1-z)(2-z)|"),
    (MethodId.TWOPOINT, C_BELOW_B, NAN_Z, None, DomainError, "z must have finite"),
    (MethodId.TWOPOINT, C_BELOW_B, 1.0, None, SingularityError, "z = (1+0j): coefficient recursion is singular"),
    (MethodId.TWOPOINT, C_BELOW_B, -20.0, None, ParamDomainError, "expansion derived under c > b > 0"),
    (MethodId.TWOPOINT, PARAMS, -20.0, None, OutsideDomain, "z = (-20+0j) outside |z|^2 < 4|1-z|"),
    (MethodId.ONEPOINT_HALF, C_BELOW_B, NAN_Z, None, DomainError, "z must have finite"),
    (MethodId.ONEPOINT_HALF, C_BELOW_B, 5.0, None, ParamDomainError, "expansion derived under c > b > 0"),
    (MethodId.ONEPOINT_HALF, PARAMS, 5.0, None, OutsideDomain, "z = (5+0j) outside the w = (0.5+0j) expansion region"),
    (MethodId.ONEPOINT_W, C_BELOW_B, NAN_Z, None, ConfigError, "method onepoint-w needs the expansion point w"),
    (MethodId.ONEPOINT_W, C_BELOW_B, NAN_Z, 0, DomainError, "z must have finite"),
    (MethodId.ONEPOINT_W, C_BELOW_B, -20.0, 0, DomainError, "expansion point w must be nonzero"),
    (MethodId.ONEPOINT_W, C_BELOW_B, -20.0, NAN_Z, DomainError, "w must have finite"),
    (MethodId.ONEPOINT_W, C_BELOW_B, 5.0, W, ParamDomainError, "expansion derived under c > b > 0"),
    (MethodId.ONEPOINT_W, PARAMS, 5.0, W, OutsideDomain, "z = (5+0j) outside the w = (0.5+0.5j) expansion region"),
]


@pytest.mark.parametrize("method, params, z, w, error, message", PRECEDENCE)
def test_refusal_precedence(method, params, z, w, error, message):
    refusal = ROUTES[method].refusal(params, z, w, DEFAULT_Z0)
    assert type(refusal) is error and str(refusal).startswith(message), refusal
    with pytest.raises(error) as exc:
        ROUTES[method].sums(params, z, (5,), 1e-13, w, DEFAULT_Z0)
    assert str(exc.value) == str(refusal)


#: (route, z, n) where the series' est_error at PARAMS lies in (1e-13, 1e-12].
FLOOR_BAND = [
    (MethodId.THREEPOINT, Z_EXC, 10),
    (MethodId.TWOPOINT, Z_EXC, 20),
    (MethodId.ONEPOINT_HALF, Z_EXC, 48),
    (MethodId.ONEPOINT_W, Z_EXC, 40),
    (MethodId.BUHRING, -1.0 + 1.0j, 29),
]


@pytest.mark.parametrize("method, z, n", FLOOR_BAND, ids=str)
def test_routes_take_tol_as_given_and_evaluate_floors_it(method, z, n):
    route = ROUTES[method]
    run = route.run(PARAMS, z, n, 1e-13, W, DEFAULT_Z0)
    (stop,) = route.sums(PARAMS, z, (n,), 1e-13, W, DEFAULT_Z0)
    res, _ = evaluate(PARAMS, z, method, n_terms=n, tol=1e-13, w=W)
    assert 1e-13 < res.est_error <= 1e-12
    assert not run.converged and not stop.converged
    assert res == run._replace(converged=True) == stop._replace(converged=True)


@pytest.mark.parametrize("method", [MethodId.MACLAURIN, MethodId.EULER], ids=str)
def test_evaluate_passes_tol_unfloored_to_routes_without_stops(method):
    res, _ = evaluate(PARAMS, 0.3 + 0.2j, method, tol=1e-15)
    assert res == ROUTES[method].run(PARAMS, 0.3 + 0.2j, 40, 1e-15, None, DEFAULT_Z0)
    assert res.converged == (res.est_error <= 1e-15)
