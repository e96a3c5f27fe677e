"""Continuation-series tests: coefficients, convergence behavior, degeneracies."""

import math

import pytest

from gausshyp import (
    BranchCutError,
    DomainError,
    HypParams,
    IntegerDifferenceError,
    MethodId,
    NoMethodError,
    OutsideDomain,
    ParamDomainError,
    ROUTES,
    buhring_coeffs,
    euler_integral,
    evaluate,
)
from gausshyp.buhring import buhring_refusal
from gausshyp.select import buhring_eval
from conftest import Z_EXC, rel_err, within_factor

PARAMS = HypParams(1.2, 2.1, 3.0)

# reference errors for (1.2, 2.1, 3), z = exp(i pi/3), z0 = 1/2
REFERENCE_ERRORS = {0: 0.263e2, 5: 0.879e1, 10: 0.103e1, 15: 0.955e-1, 20: 0.803e-2}


class TestDCoeff:
    def test_starting_value(self):
        assert buhring_coeffs(1.2, 0.5, PARAMS, 0) == [1.0 + 0j]
        assert buhring_coeffs(2.1, 0.5, PARAMS, 0) == [1.0 + 0j]

    def test_first_step_s_equals_a(self):
        # at z0 = 1/2 the d_{n-1} bracket collapses to (a+b+1)/2 - c, and the
        # prefactor is s / (1 + 2a - a - b) = 1.2 / 0.1 = 12
        expected = 12.0 * ((1.2 + 2.1 + 1.0) / 2.0 - 3.0)
        got = buhring_coeffs(1.2, 0.5, PARAMS, 1)[1]
        assert abs(got - expected) <= 1e-12 * abs(expected)
        assert abs(got - (-10.2)) <= 1e-12 * 10.2

    def test_first_step_s_equals_b(self):
        expected = (2.1 / (1.0 + 2.1 - 1.2)) * ((1.2 + 2.1 + 1.0) / 2.0 - 3.0)
        got = buhring_coeffs(2.1, 0.5, PARAMS, 1)[1]
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_coeff_stream(self):
        d = buhring_coeffs(1.2, 0.5, PARAMS, 8)
        assert d[0] == 1.0 + 0j
        assert len(d) == 9
        assert d[:2] == buhring_coeffs(1.2, 0.5, PARAMS, 1)  # a longer stream keeps the prefix

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            buhring_coeffs(1.2, 0.5, PARAMS, -1)

    def test_vanishing_denominator(self):
        p = HypParams(1.2, 2.2, 3.0)  # b - a = 1: denominator dies at n = 1, s = a
        with pytest.raises(IntegerDifferenceError):
            buhring_coeffs(1.2, 0.5, p, 1)


class TestBuhringEval:
    def test_reference_error_column(self):
        ref = euler_integral(PARAMS, Z_EXC).value
        for n, expected in REFERENCE_ERRORS.items():
            err = rel_err(buhring_eval(PARAMS, Z_EXC, n_terms=n).value, ref)
            assert within_factor(err, expected), (n, err, expected)

    def test_far_field_row(self):
        p = HypParams(1.2, 2.1, 3.5)
        ref = euler_integral(p, -5.0 + 0j).value
        err10 = rel_err(buhring_eval(p, -5.0 + 0j, n_terms=10).value, ref)
        assert within_factor(err10, 0.619e-8)

    def test_error_monotone_beyond_five_terms(self):
        rows = [
            (HypParams(1.2, 2.1, 3.0), Z_EXC),
            (HypParams(1.2, 2.5, 3.0), Z_EXC),
            (HypParams(1.2, 2.1, 3.0), -1.0 + 0j),
            (HypParams(1.2, 2.1, 3.0), -1.0 + 1j),
            (HypParams(1.2, 2.1, 3.5), -5.0 + 0j),
        ]
        for params, z in rows:
            ref = euler_integral(params, z).value
            errs = [rel_err(buhring_eval(params, z, n_terms=n).value, ref) for n in (5, 10, 15, 20)]
            assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:])), (params, z, errs)

    def test_swap_a_b_invariance(self):
        swapped = HypParams(2.1, 1.2, 3.0)
        for z in (Z_EXC, -1.0 + 1j, -5.0 + 0j):
            v1 = buhring_eval(PARAMS, z, n_terms=15).value
            v2 = buhring_eval(swapped, z, n_terms=15).value
            assert abs(v1 - v2) <= 1e-12 * abs(v1)

    def test_true_error_within_estimate(self):
        rows = [
            (HypParams(1.2, 2.1, 3.0), Z_EXC),
            (HypParams(1.2, 2.5, 3.0), Z_EXC),
            (HypParams(1.2, 2.1, 3.0), -1.0 + 0j),
            (HypParams(1.2, 2.1, 3.0), -1.0 + 1j),
            (HypParams(1.2, 2.1, 3.5), -5.0 + 0j),
        ]
        for params, z in rows:
            ref = euler_integral(params, z).value
            res = buhring_eval(params, z, n_terms=20)
            assert rel_err(res.value, ref) <= 10.0 * res.est_error, (params, z)

    def test_integer_difference_rejected(self):
        for b in (1.2, 2.2, 3.2, 0.2):
            with pytest.raises(IntegerDifferenceError):
                ROUTES[MethodId.BUHRING].sums(HypParams(1.2, b, 3.0), -5.0 + 0j, (5,))

    def test_near_integer_inflates_estimate(self):
        near = HypParams(1.2, 2.2 + 1e-6, 3.0)
        res = buhring_eval(near, Z_EXC, n_terms=20)
        base = buhring_eval(PARAMS, Z_EXC, n_terms=20)
        assert res.est_error > 100.0 * base.est_error
        assert not res.converged

    def test_excluded_disk(self):
        with pytest.raises(OutsideDomain):
            ROUTES[MethodId.BUHRING].sums(PARAMS, 0.7 + 0.1j, (5,))  # |z - 1/2| < 1/2
        with pytest.raises(OutsideDomain):
            ROUTES[MethodId.BUHRING].sums(PARAMS, 1.0 + 0j, (5,))  # boundary |z - 1/2| = 1/2

    def test_branch_cut(self):
        with pytest.raises(BranchCutError):
            ROUTES[MethodId.BUHRING].sums(PARAMS, 3.0 + 0j, (5,))

    @pytest.mark.parametrize(
        "params, z, z0, error",
        [
            (HypParams(1.2, 2.2, 3.0), complex(math.nan, 0.0), 0.5, IntegerDifferenceError),
            (PARAMS, complex(1.0, math.inf), 0.5, DomainError),
            (PARAMS, 2.0, complex(math.nan, 0.0), DomainError),
            (PARAMS, 0.7 + 0.1j, 0.5, OutsideDomain),
            (PARAMS, 10.0 + 0.5j, 0.5 + 0.5j, BranchCutError),
            (HypParams(-1e308, 1e308, 2.0), complex(math.nan, 0.0), 0.5, ParamDomainError),
        ],
        ids=["integer-b-a-first", "inf-z", "nan-z0", "disk", "cut", "b-a-past-double-range-first"],
    )
    def test_refusal_is_what_the_sums_raise(self, params, z, z0, error):
        assert type(buhring_refusal(params, z, z0)) is error
        with pytest.raises(error):
            ROUTES[MethodId.BUHRING].sums(params, z, (5,), z0=z0)

    def test_b_minus_a_past_the_double_range_is_refused(self):
        # round(b - a) on inf raised a bare OverflowError, under auto and with the method named
        params = HypParams(-1e308, 1e308, 2.0)
        with pytest.raises(ParamDomainError, match="b - a = inf is past the double range"):
            evaluate(params, 10 + 1j, "buhring")
        with pytest.raises(NoMethodError, match="buhring: ParamDomainError: b - a = inf"):
            evaluate(params, 10 + 1j)

    def test_no_refusal_where_the_continuation_applies(self):
        assert buhring_refusal(PARAMS, Z_EXC, 0.5) is None
        assert buhring_refusal(PARAMS, -2.0, 1.0 + 1.0j) is None

    def test_custom_expansion_point(self):
        # z0 = 1 + i excludes a different disk; value must still match the oracle
        z = -2.0 + 0j
        ref = euler_integral(PARAMS, z).value
        res = buhring_eval(PARAMS, z, z0=1.0 + 1.0j, n_terms=30)
        assert rel_err(res.value, ref) <= 1e-6
