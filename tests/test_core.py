"""Scalar helper tests: principal powers, rising factorials, gamma, parameters."""

import cmath
import math
import random
import re
from itertools import count

import pytest

from gausshyp import ROUTES, DomainError, HypParams, MethodId, ParamDomainError, PoleError, RecurrenceBreakdown
from gausshyp import evaluate
from gausshyp.core import EPS, cpow_principal, digamma, gamma_real, json_value, pochhammer, recip_gamma_real
from gausshyp.core import stream_prefix, sum_series


class TestCpowPrincipal:
    def test_identity_base(self):
        for e in (-2.3, 0.0, 0.5, 7.0):
            assert cpow_principal(1.0, e) == 1.0 + 0j

    def test_real_positive_base(self):
        # independent scalar oracle: exp(-1.2 * ln 4)
        expected = math.exp(-1.2 * math.log(4.0))
        got = cpow_principal(4.0, -1.2)
        assert got.imag == 0.0
        assert abs(got.real - expected) <= 1e-15 * expected

    def test_negative_real_base_takes_plus_pi_side(self):
        got = cpow_principal(-1.0 + 0j, 0.5)
        assert abs(got - 1j) <= 1e-15
        # an explicit -0.0 imaginary part must not flip to the -pi side
        got_negzero = cpow_principal(complex(-1.0, -0.0), 0.5)
        assert abs(got_negzero - 1j) <= 1e-15

    def test_exponent_additivity(self):
        rng = random.Random(7)
        for _ in range(50):
            base = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2) * rng.choice([-1, 1]))
            e1, e2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            lhs = cpow_principal(base, e1) * cpow_principal(base, e2)
            rhs = cpow_principal(base, e1 + e2)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_conjugate_symmetry_off_cut(self):
        rng = random.Random(11)
        for _ in range(50):
            base = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2) * rng.choice([-1, 1]))
            e = rng.uniform(-3, 3)
            lhs = cpow_principal(base.conjugate(), e)
            rhs = cpow_principal(base, e).conjugate()
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_zero_base(self):
        assert cpow_principal(0j, 2.0) == 0j
        with pytest.raises(DomainError):
            cpow_principal(0j, -1.0)
        with pytest.raises(DomainError):
            cpow_principal(0.0, 0.0)

    def test_matches_cmath_exp_log(self):
        base, e = 0.3 - 1.7j, -2.6
        assert cpow_principal(base, e) == cmath.exp(e * cmath.log(base))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(-2.0, 0) == 1.0

    def test_direct_product(self):
        # 2.1 * 3.1 * 4.1
        assert abs(pochhammer(2.1, 3) - 26.691) <= 1e-12 * 26.691

    def test_factorial_case(self):
        assert pochhammer(1.0, 5) == 120.0

    def test_recurrence_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            x = rng.uniform(-5, 5)
            n = rng.randrange(0, 12)
            assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestGammaReal:
    def test_known_values(self):
        assert gamma_real(1.0) == 1.0
        assert abs(gamma_real(0.5) - math.sqrt(math.pi)) <= 1e-15 * math.sqrt(math.pi)
        assert gamma_real(5.0) == 24.0

    def test_functional_equation(self):
        rng = random.Random(19)
        for _ in range(50):
            x = rng.uniform(0.5, 20.0)
            lhs = gamma_real(x + 1.0)
            assert abs(lhs - x * gamma_real(x)) <= 1e-13 * abs(lhs)

    def test_negative_non_integer(self):
        # gamma(-1.5) = 4 sqrt(pi) / 3 by reflection
        expected = 4.0 * math.sqrt(math.pi) / 3.0
        assert abs(gamma_real(-1.5) - expected) <= 1e-13 * expected

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_real(x)


class TestDigamma:
    #: the positive root of digamma
    ROOT = 1.4616321449683623

    def test_against_mpmath(self):
        # the recurrence's and the reflection's sums cancel near the root and near -n + 1/2; the absolute
        # error stays within a few EPS of max(1, |psi|) on a seeded grid over [-10, 40] off the poles
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(29)
        xs = [rng.uniform(-10.0, 40.0) for _ in range(3000)]
        xs += [self.ROOT + rng.uniform(-1e-3, 1e-3) for _ in range(200)]
        xs += [-n + s * 10.0 ** rng.uniform(-12.0, -1.0) for n in range(10) for s in (-1.0, 1.0)]
        xs += [0.5, 1.0, 10.0, self.ROOT]
        for x in xs:
            if x == round(x) and x <= 0:
                continue
            want = float(mpmath.digamma(x))
            assert abs(digamma(x) - want) <= 8.0 * EPS * max(1.0, abs(want)), x

    def test_known_values(self):
        euler_gamma = 0.5772156649015329
        for x, want in [(1.0, -euler_gamma), (0.5, -euler_gamma - 2.0 * math.log(2.0)), (self.ROOT, 0.0)]:
            assert abs(digamma(x) - want) <= 8.0 * EPS * max(1.0, abs(want)), x

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -7.0, -1e17])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            digamma(x)


class TestOverflow:
    """Past double range the helpers raise RecurrenceBreakdown; every finite result keeps its bits."""

    @pytest.mark.parametrize("x", [171.7, 175.46, 1e300])
    def test_gamma_overflow(self, x):
        with pytest.raises(RecurrenceBreakdown, match=re.escape(f"gamma({x})")):
            gamma_real(x)

    @pytest.mark.parametrize("x", [171.7, 1e300, -200.5])
    def test_recip_gamma_out_of_range(self, x):
        # math.gamma overflows above 171.62 and underflows to -0.0 at -200.5
        with pytest.raises(RecurrenceBreakdown, match=re.escape(f"1/gamma({x})")):
            recip_gamma_real(x)

    def test_cpow_overflow(self):
        with pytest.raises(RecurrenceBreakdown, match=r"\*\*2\.41 overflows"):
            cpow_principal(-1e200 - 1j, 2.41)

    def test_finite_results_keep_their_bits(self):
        for x in (171.6, 0.5, -170.5, -1.5, 1e-300):
            assert gamma_real(x) == math.gamma(x)
            assert recip_gamma_real(x) == 1.0 / math.gamma(x)
        for base, e in ((1e200 + 1j, -2.41), (-1e150 - 1j, 2.0), (1e-300, -1.02)):
            assert cpow_principal(base, e) == cmath.exp(e * cmath.log(base))

    @pytest.mark.parametrize("b, c", [(10**62, 10**63), (10**155, 10**156), (1, 10**300)])
    def test_int_parameter_products_past_the_double_range(self, b, c):
        # an int pair forms the three-point moments' coefficients in exact integers, which float() could not
        # take: a bare OverflowError, where the float pair's NaN sum raises RecurrenceBreakdown
        with pytest.raises(RecurrenceBreakdown, match="overflowed double precision"):
            evaluate(HypParams(1, b, c), -1, "threepoint")
        with pytest.raises(RecurrenceBreakdown, match="overflowed double precision"):
            evaluate(HypParams(1.0, float(b), float(c)), -1.0, "threepoint")

    def test_continuation_prefactor_overflow(self):
        # Buhring's prefactor (z0 - z)^(-a) at |z| = 1e200, a < 0
        with pytest.raises(RecurrenceBreakdown, match="overflows double precision"):
            evaluate(HypParams(-2.41, 1.2, 3.0), 1e200 + 1j)

    def test_oracle_gamma_overflow(self):
        with pytest.raises(RecurrenceBreakdown, match=r"gamma\(175\.46\)"):
            evaluate(HypParams(-0.08, 0.77, 175.46), -0.83 - 0.18j, "euler-oracle")


class TestHypParams:
    def test_valid(self):
        p = HypParams(1.2, 2.1, 3.0)
        assert p.param_refusal("Euler integral needs") is None

    def test_euler_flag(self):
        assert isinstance(HypParams(1.0, 2.5, 2.0).param_refusal("Euler integral needs"), ParamDomainError)  # c < b
        assert isinstance(HypParams(1.0, -0.5, 2.0).param_refusal("Euler integral needs"), ParamDomainError)  # b <= 0
        assert HypParams(0.3, 0.2, 0.9).param_refusal("Euler integral needs") is None

    def test_c_pole_rejected(self):
        for c in (0.0, -1.0, -6.0):
            with pytest.raises(ParamDomainError):
                HypParams(1.0, 1.0, c)

    def test_non_finite_rejected(self):
        with pytest.raises(ParamDomainError):
            HypParams(math.inf, 1.0, 2.0)

    def test_int_past_the_double_range_rejected(self):
        # math.isfinite raised a bare OverflowError ("int too large to convert to float") here
        for args in ((1.2, 10**400, 3), (-(10**400), 2.1, 3), (1.2, 2.1, 10**400)):
            with pytest.raises(ParamDomainError, match="must be finite, got a number past the double range"):
                HypParams(*args)
        assert HypParams(1, 2, 10**300) == (1, 2, 10**300)  # an int inside the double range is kept as given

    def test_repr(self):
        assert repr(HypParams(1.2, 2.1, 3.0)) == "HypParams(a=1.2, b=2.1, c=3.0)"

    def test_fields_read_only(self):
        with pytest.raises(AttributeError):
            HypParams(1.2, 2.1, 3.0).a = 2.0

    def test_equal_triples_hash_alike(self):
        assert HypParams(1.2, 2.1, 3.0) == HypParams(1.2, 2.1, 3.0)
        assert hash(HypParams(1.2, 2.1, 3.0)) == hash(HypParams(1.2, 2.1, 3.0))

    def test_replace_runs_the_checks(self):
        assert HypParams(1.2, 2.1, 3.0)._replace(c=3.5) == HypParams(1.2, 2.1, 3.5)
        with pytest.raises(ParamDomainError):
            HypParams(1.2, 2.1, 3.0)._replace(c=-1.0)


class TestFiniteArgumentGuard:
    def test_every_evaluator_rejects_non_finite_z(self):
        from gausshyp import ROUTES, MethodId, euler_integral, maclaurin

        p = HypParams(1.2, 2.1, 3.0)
        evaluators = (
            lambda z: maclaurin(p, z),
            lambda z: euler_integral(p, z),
            lambda z: ROUTES[MethodId.BUHRING].sums(p, z, (5,)),
            lambda z: ROUTES[MethodId.ONEPOINT_HALF].sums(p, z, (5,)),
            lambda z: ROUTES[MethodId.TWOPOINT].sums(p, z, (5,)),
            lambda z: ROUTES[MethodId.THREEPOINT].sums(p, z, (5,)),
        )
        bad = (complex(math.nan, 0.0), complex(1.0, math.inf))
        for fn in evaluators:
            for z in bad:
                with pytest.raises(DomainError):
                    fn(z)


def test_json_value_writes_non_finite_floats_as_strings():
    assert [json_value(x) for x in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    for x in (1.5, -0.0, 0, "INTEGER_DIFF", True, None):
        assert json_value(x) is x


def test_stream_prefix_reads_indices_zero_to_n_max():
    assert stream_prefix(count(), 3) == [0, 1, 2, 3]
    assert stream_prefix(iter("ab"), 0) == ["a"]
    stream = count()
    with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
        stream_prefix(stream, -1)
    assert next(stream) == 0  # a refused prefix reads nothing


def _bits(res):
    return res.value.real.hex(), res.value.imag.hex(), res.terms_used, res.est_error.hex(), res.converged


def _geometric(rng, count=60):
    """Terms of a seeded series that shrinks at a random rate and phase, with a slow polynomial factor."""
    size, rate, turn, lead = rng.uniform(0.5, 20.0), rng.uniform(0.1, 0.7), rng.uniform(-3.0, 3.0), rng.uniform(-2, 2)
    return [size * rate**n * cmath.exp(1j * turn * n) * (n + 1.0) ** lead for n in range(count)]


def _first_stop(terms, weights, stop, inflation):
    """The first index whose combined size and the one before are each at most stop / inflation * |value|, formed
    as the rule reads: value = -0.0 + sum of weight * partial sum, size = 0.0 + sum of |weight| |term|."""
    sums, small = [0j] * len(terms), []
    for k, column in enumerate(zip(*terms)):
        value, last = complex(-0.0, -0.0), 0.0
        for i, (weight, term) in enumerate(zip(weights, column)):
            sums[i] += term
            value += weight * sums[i]
            last += abs(weight) * abs(term)
        small.append(last <= stop / inflation * abs(value))
        if k and small[-2] and small[-1]:
            return k
    return None


class TestSumSeriesStopOverTwoSeries:
    CAP = 40

    def _cases(self):
        rng = random.Random(38)
        for _ in range(150):
            terms = [_geometric(rng), _geometric(rng)]
            weights = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(-3, 3)]
            yield terms, weights, rng.choice((1e-14, 1e-10, 1e-6)), rng.choice((1.0, 3.7)), rng.choice((1e-12, 1e-3))

    @staticmethod
    def _sum(stops, tol, terms, weights, **kw):
        (res,) = sum_series(stops, tol, *((w, iter(t)) for w, t in zip(weights, terms)), **kw)
        return res

    def test_the_stop_index_keeps_the_bits_of_that_stop(self):
        fired = 0
        for terms, weights, stop, inflation, tol in self._cases():
            k = _first_stop(terms, weights, stop, inflation)
            res = self._sum((self.CAP,), tol, terms, weights, stop=stop, inflation=inflation)
            assert res.terms_used == (self.CAP if k is None else min(k, self.CAP)), (terms, weights, stop)
            want = self._sum((res.terms_used,), tol, terms, weights, inflation=inflation)
            if k is not None and k <= self.CAP or stop < tol:
                assert _bits(res) == _bits(want)
            else:  # a stop at or above tol that did not end the pass: the values, unconverged
                assert _bits(res) == _bits(want._replace(converged=False))
            fired += k is not None and k <= self.CAP
        assert 50 <= fired <= 140, fired

    def test_a_stop_that_never_fires_gives_the_cap_result_and_flag(self):
        converged = []
        for terms, weights, _, inflation, tol in self._cases():
            want = self._sum((self.CAP,), tol, terms, weights, inflation=inflation)
            assert _bits(self._sum((self.CAP,), tol, terms, weights, stop=1e-300, inflation=inflation)) == _bits(want)
            converged.append(want.converged)
        assert converged.count(True) >= 30 and converged.count(False) >= 30, converged.count(True)

    def test_a_stop_takes_one_series_or_two(self):
        series = [(1.0, iter([1.0, 0.5])) for _ in range(3)]
        with pytest.raises(ValueError):
            next(sum_series((1,), 1e-12, *series, stop=1e-14))
        with pytest.raises(ValueError):  # two series take one stop index, the cap
            next(sum_series((1, 5), 1e-12, *series[:2], stop=1e-14))

    @pytest.mark.parametrize(
        "method, params, z",
        [("buhring", HypParams(1.2, 2.1, 3.0), -1 + 1j), ("connection", HypParams(1.2, 2.2, 3.0), 12 + 5j)],
    )
    def test_a_default_route_call_is_the_stops_form_at_its_stop(self, method, params, z):
        res, _ = evaluate(params, z, method)
        assert res.converged and res.terms_used < 40
        (want,) = ROUTES[MethodId(method)].sums(params, z, (res.terms_used,), 1e-12)
        assert _bits(res) == _bits(want)
        full, _ = evaluate(params, z, method, n_terms=40)
        assert full.terms_used == 40 and abs(full.value - res.value) <= 1e-14 * abs(full.value)

    @pytest.mark.parametrize(
        "method, params, z",
        [("buhring", HypParams(1.2, 2.1, 3.0), -1 + 1j), ("connection", HypParams(1.2, 2.2, 3.0), 12 + 5j)],
    )
    def test_a_direct_runner_stops_below_its_tol(self, method, params, z):
        route = ROUTES[MethodId(method)]
        used = [route.run(params, z, None, tol, None, 0.5).terms_used for tol in (1e-12, 1e-13, 1e-15, 1e-16)]
        assert used[0] == used[1] < used[2] < used[3] <= 40, used  # the stop is min(tol, DEFAULT_TOL) / 10
        for tol in (1e-15, 1e-16):
            (want,) = route.body(params, z, (40,), tol, None, 0.5, tol / 10)
            assert _bits(route.run(params, z, None, tol, None, 0.5)) == _bits(want)

    def test_a_given_n_terms_is_a_count_without_a_stop(self):
        class Stopping(int):
            stop = 1e-3

        res, _ = evaluate(HypParams(1.2, 2.1, 3.0), -1 + 1j, "buhring", n_terms=Stopping(40))
        assert res.terms_used == 40
