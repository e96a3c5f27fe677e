"""Method-selection policy and the evaluate() front end."""

import math
import random
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
    ROUTES,
    SeriesResult,
    buhring_eval,
    euler_integral,
    eval_onepoint,
    eval_threepoint,
    eval_twopoint,
    evaluate,
    hyp2f1,
    in_region_onepoint,
    in_region_threepoint,
    in_region_twopoint,
    maclaurin,
    method_margin,
    select_method,
)
from gausshyp.buhring import DEFAULT_Z0, buhring_refusal
from conftest import Z_EXC, rel_err

PARAMS = HypParams(1.2, 2.1, 3.0)

#: Non-default arguments for the route-forwarding test.  No route reaches
#: the default tol at n = 8, so dropping tol, like dropping n, w or z0,
#: changes the result.
N, TOL, W, Z0 = 8, 0.5, complex(0.5, 0.5), complex(0.5, 0.1)

#: method -> (in-region z, the direct call evaluate must reproduce)
DIRECT_CALLS = {
    MethodId.MACLAURIN: (0.3 + 0.2j, lambda z: maclaurin(PARAMS, z, tol=TOL)),
    MethodId.EULER: (Z_EXC, lambda z: euler_integral(PARAMS, z, tol=TOL)),
    MethodId.BUHRING: (2.0 + 1.0j, lambda z: buhring_eval(PARAMS, z, z0=Z0, n_terms=N, tol=TOL)),
    MethodId.ONEPOINT_HALF: (-1.0 + 1.0j, lambda z: eval_onepoint(PARAMS, z, n_terms=N, tol=TOL)),
    MethodId.ONEPOINT_W: (Z_EXC, lambda z: eval_onepoint(PARAMS, z, w=W, n_terms=N, tol=TOL)),
    MethodId.TWOPOINT: (-1.0 + 0j, lambda z: eval_twopoint(PARAMS, z, n_terms=N, tol=TOL)),
    MethodId.THREEPOINT: (Z_EXC, lambda z: eval_threepoint(PARAMS, z, n_terms=N, tol=TOL)),
}


class TestSelectMethod:
    def test_safe_disk(self):
        assert select_method(PARAMS, 0.1 + 0j) is MethodId.MACLAURIN
        assert select_method(PARAMS, -0.3 + 0.3j) is MethodId.MACLAURIN

    def test_exceptional_point_routes_to_threepoint(self):
        assert select_method(PARAMS, Z_EXC) is MethodId.THREEPOINT

    def test_far_field_integer_difference(self):
        # three- and two-point regions exclude z = -50; Re z < 1 catches it
        p = HypParams(1.2, 2.2, 3.0)
        assert select_method(p, -50.0 + 0j) is MethodId.ONEPOINT_HALF

    def test_buhring_branch(self):
        # right of Re z = 1, outside both Cassini regions, b - a non-integer
        z = 1.5 + 0.01j
        assert select_method(PARAMS, z) is MethodId.BUHRING

    def test_euler_fallback(self):
        # same z but integer b - a disables the continuation
        z = 1.5 + 0.01j
        p = HypParams(1.2, 2.2, 3.0)
        assert select_method(p, z) is MethodId.EULER

    def test_no_method(self):
        z = 1.5 + 0.01j
        p = HypParams(1.2, 2.2, 2.0)  # integer b - a and c < b
        with pytest.raises(NoMethodError):
            select_method(p, z)

    def test_grid_coverage_and_predicate_consistency(self):
        # on a 101x101 grid over [-3,3]^2 some method always applies, and the
        # returned method's own predicate holds at z
        for i in range(101):
            for j in range(101):
                z = complex(-3.0 + 0.06 * i, -3.0 + 0.06 * j)
                method = select_method(PARAMS, z)
                if method is MethodId.MACLAURIN:
                    assert abs(z) <= 0.5
                elif method is MethodId.THREEPOINT:
                    assert in_region_threepoint(z).inside
                elif method is MethodId.TWOPOINT:
                    assert in_region_twopoint(z).inside
                elif method is MethodId.ONEPOINT_HALF:
                    assert in_region_onepoint(z, 0.5).inside
                elif method is MethodId.BUHRING:
                    assert abs(z - 0.5) > 0.5
                    assert buhring_refusal(PARAMS, z, 0.5) is None
                else:
                    assert method is MethodId.EULER and PARAMS.euler_valid


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
        except OutsideDomain as exc:
            pytest.fail(f"auto chose a route that refuses {params}, z = {z!r}, z0 = {z0!r}: {exc}")
        except BranchCutError:
            assert z.imag == 0.0 and z.real >= 1.0, (params, z, z0)

    @pytest.mark.parametrize(
        "params, z, z0, method, converges", PINNED, ids=["half-point-edge", "z0-cut", "re-z-1"]
    )
    def test_pinned_points(self, params, z, z0, method, converges):
        assert select_method(params, z, z0) is method
        self._assert_accepted(params, z, z0)
        res, used = evaluate(params, z, z0=z0)
        assert used is method
        if converges:
            assert res.converged

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


class TestRouteTable:
    @pytest.mark.parametrize("method", list(MethodId), ids=str)
    def test_evaluate_forwards_every_argument(self, method):
        assert set(ROUTES) == set(MethodId) == set(DIRECT_CALLS)
        z, direct = DIRECT_CALLS[method]
        res, used = evaluate(PARAMS, z, method, n_terms=N, tol=TOL, w=W, z0=Z0)
        assert used is method
        assert method_margin(method, z, w=W, z0=Z0) > 0
        assert res == direct(z)
        assert res.converged

    def test_evaluate_forwards_max_terms(self):
        res, _ = evaluate(PARAMS, 0.9 + 0j, MethodId.MACLAURIN, max_terms=5)
        assert res == maclaurin(PARAMS, 0.9 + 0j, max_terms=5)
        assert res.terms_used == 5


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
        # auto takes onepoint-half here, which returns 0.016629 against
        # mpmath's 0.016396 with converged=False
        with pytest.warns(NotConvergedWarning, match=r"onepoint-half .*est_error = 0\.03"):
            hyp2f1(1.2, 2.2, 3.0, -50.0)

    def test_hyp2f1_silent_when_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hyp2f1(1.2, 2.1, 3.0, Z_EXC)
