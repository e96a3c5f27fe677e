"""Two-point expansion tests: coefficient routes, moments, region, evaluation."""

import math
import random
from itertools import islice

import pytest

from gausshyp import (
    HypParams,
    MethodId,
    OutsideDomain,
    ParamDomainError,
    ROUTES,
    RecurrenceBreakdown,
    SingularityError,
    euler_integral,
)
from gausshyp.core import cpow_principal, pochhammer
from gausshyp.select import eval_twopoint
from gausshyp.twopoint import _twopoint_terms, twopoint_coeffs_recursive, twopoint_margin
from gausshyp.verify import twopoint_coeffs_explicit, twopoint_coeffs_mp
from conftest import Z_EXC, rel_err, sample_in_region, within_factor

PARAMS = HypParams(1.2, 2.1, 3.0)


class TestCoefficients:
    def test_initial_values(self):
        A, B = twopoint_coeffs_recursive(1.2, -1.0 + 0j, 0)
        assert A[0] == 1.0 + 0j
        want_b0 = math.exp(-1.2 * math.log(2.0)) - 1.0  # (1-z)^(-a) - 1 at z = -1
        assert abs(B[0] - want_b0) <= 1e-15

    def test_first_recursion_step(self):
        # A_1 = (-z a A_0 + B_0) / 1 = 1.2 + B_0 at z = -1
        A, _ = twopoint_coeffs_recursive(1.2, -1.0 + 0j, 1)
        want = 1.2 + (math.exp(-1.2 * math.log(2.0)) - 1.0)
        assert abs(A[1] - want) <= 1e-14

    def test_explicit_initial_pair(self):
        a0, b0 = twopoint_coeffs_explicit(1.2, -1.0 + 0j, 0)
        assert a0 == 1.0 + 0j
        assert abs(b0 - (math.exp(-1.2 * math.log(2.0)) - 1.0)) <= 1e-15

    def test_explicit_matches_recursive_small_n(self):
        A, B = twopoint_coeffs_recursive(1.2, -1.0 + 0j, 5)
        for n in range(1, 6):
            ae, be = twopoint_coeffs_explicit(1.2, -1.0 + 0j, n)
            assert abs(ae - A[n]) <= 1e-12 * max(1.0, abs(ae))
            assert abs(be - B[n]) <= 1e-12 * max(1.0, abs(be))

    def test_dual_route_at_matched_precision(self):
        # both routes in extended precision: validates the explicit formula
        # against the differential-equation recursion through n = 20
        for z in (Z_EXC, -1.0 + 0j, 0.4 + 0.3j):
            A, B = twopoint_coeffs_mp(1.2, z, 20, dps=60)
            for n in (5, 10, 20):
                ae, be = twopoint_coeffs_explicit(1.2, z, n, dps=60)
                assert abs(ae - A[n]) <= 1e-10 * abs(ae), (z, n)
                assert abs(be - B[n]) <= 1e-10 * abs(be), (z, n)

    def test_singular_point(self):
        with pytest.raises(SingularityError):
            twopoint_coeffs_recursive(1.2, 1.0 + 0j, 3)
        with pytest.raises(SingularityError):
            twopoint_coeffs_explicit(1.2, 1.0 + 0j, 3)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            twopoint_coeffs_recursive(1.2, Z_EXC, -1)
        with pytest.raises(ValueError, match="n_max"):
            twopoint_coeffs_mp(1.2, Z_EXC, -1, dps=30)

    def test_taylor_reconstruction(self):
        # partial sums of sum (A_n + B_n t)(t(t-1))^n converge to (1-zt)^(-a)
        for z in (Z_EXC, -1.0 + 0j, -0.8 + 1.1j):
            A, B = twopoint_coeffs_recursive(1.2, z, 60)
            for t in (0.25, 0.5, 0.75):
                s = sum(
                    (A[n] + B[n] * t) * (t * (t - 1.0)) ** n for n in range(61)
                )
                f = cpow_principal(1.0 - z * t, -1.2)
                assert abs(s - f) <= 1e-10, (z, t)


class TestMoments:
    """The running moment product of _twopoint_terms against its closed form.

    Term n is Phi_n A_n + Psi_n B_n with Phi_n = (-1)^n (b)_n (c-b)_n / (c)_{2n}
    and Psi_n = Phi_n (b+n) / (c+2n).
    """

    def test_order_zero(self):
        (A0,), (B0,) = twopoint_coeffs_recursive(1.2, Z_EXC, 0)
        (term,) = islice(_twopoint_terms(PARAMS, Z_EXC), 1)
        assert abs(term - (A0 + 2.1 / 3.0 * B0)) <= 1e-15 * abs(term)

    def test_closed_form_values(self):
        A, B = twopoint_coeffs_recursive(1.2, Z_EXC, 2)
        terms = list(islice(_twopoint_terms(PARAMS, Z_EXC), 3))
        phi1 = -(2.1 * 0.9) / (3.0 * 4.0)  # -0.1575
        phi2 = (2.1 * 3.1) * (0.9 * 1.9) / (3.0 * 4.0 * 5.0 * 6.0)  # 0.0309225
        for n, phi in ((1, phi1), (2, phi2)):
            psi = phi * (2.1 + n) / (3.0 + 2.0 * n)
            want = phi * A[n] + psi * B[n]
            assert abs(terms[n] - want) <= 1e-15 * (abs(phi * A[n]) + abs(psi * B[n])), n

    def test_beta_integral_definition(self):
        # (-1)^n (b)_n (c-b)_n / (c)_{2n+1} [(c+2n) A_n + (b+n) B_n], with the
        # moment from independent pochhammer products, through n = 30
        for b, c in ((2.1, 3.0), (2.5, 3.5), (0.7, 4.2)):
            params = HypParams(1.2, b, c)
            for z in (Z_EXC, -1.0 + 0j):
                A, B = twopoint_coeffs_recursive(1.2, z, 30)
                for n, term in enumerate(islice(_twopoint_terms(params, z), 31)):
                    moment = (-1) ** n * pochhammer(b, n) * pochhammer(c - b, n) / pochhammer(c, 2 * n + 1)
                    want = moment * ((c + 2 * n) * A[n] + (b + n) * B[n])
                    assert abs(term - want) <= 1e-13 * abs(want), (b, c, z, n)


class TestRegion:
    def test_origin(self):
        m = twopoint_margin(0j)
        assert m > 0.0 and m == 4.0

    def test_exceptional_point(self):
        m = twopoint_margin(Z_EXC)
        assert m > 0.0
        assert abs(m - 3.0) <= 1e-12  # 4|1-z| = 4, |z|^2 = 1

    def test_singular_points_excluded(self):
        assert not twopoint_margin(1.0 + 0j) > 0.0
        m2 = twopoint_margin(2.0 + 0j)
        assert not m2 > 0.0 and m2 == 0.0

    def test_cassini_identity(self):
        # |z|^2 < 4|1-z|  <=>  1/4 < |1/z (1/z - 1)|
        rng = random.Random(31)
        for _ in range(300):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) < 1e-6:
                continue
            lhs = twopoint_margin(z) > 0.0
            rhs = 0.25 < abs((1.0 / z) * (1.0 / z - 1.0))
            assert lhs == rhs, z


class TestEvalTwopoint:
    def test_at_origin_exact(self):
        for n in (0, 3, 12):
            res = eval_twopoint(PARAMS, 0j, n_terms=n)
            assert res.value == 1.0 + 0j

    def test_reference_errors(self):
        ref = euler_integral(PARAMS, Z_EXC).value
        err20 = rel_err(eval_twopoint(PARAMS, Z_EXC, n_terms=20).value, ref)
        assert within_factor(err20, 0.936e-13)
        ref_m1 = euler_integral(PARAMS, -1.0 + 0j).value
        err10 = rel_err(eval_twopoint(PARAMS, -1.0 + 0j, n_terms=10).value, ref_m1)
        assert within_factor(err10, 0.630e-10)

    def test_error_within_estimate(self):
        rows = [
            (HypParams(1.2, 2.1, 3.0), -1.0 + 0j),
            (HypParams(1.2, 2.5, 3.0), -2.0 + 0j),
            (HypParams(1.2, 2.1, 3.0), Z_EXC),
            (HypParams(1.2, 2.5, 3.0), Z_EXC),
        ]
        for params, z in rows:
            ref = euler_integral(params, z).value
            res = eval_twopoint(params, z, n_terms=20)
            assert rel_err(res.value, ref) <= 10.0 * res.est_error

    def test_matches_oracle_across_region(self):
        # contraction ratio |z|^2 / (4|1-z|) below 0.55 keeps n = 40 ample
        samples = sample_in_region(
            lambda z: abs(z) ** 2 < 0.55 * 4.0 * abs(1.0 - z)
            and not (abs(z.imag) < 1e-9 and z.real >= 1.0),
            8,
            seed=77,
        )
        for z in samples:
            ref = euler_integral(PARAMS, z).value
            res = eval_twopoint(PARAMS, z, n_terms=40)
            assert rel_err(res.value, ref) <= 1e-8, z

    def test_outside_region(self):
        with pytest.raises(OutsideDomain):
            ROUTES[MethodId.TWOPOINT].sums(PARAMS, 3.0 + 0j, (10,))

    def test_overflow_raises_instead_of_nan(self):
        # from n = 536 the coefficients overflow to inf and the moments
        # underflow to 0, so a term is inf * 0 = nan
        with pytest.raises(RecurrenceBreakdown):
            eval_twopoint(PARAMS, Z_EXC, n_terms=800)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            ROUTES[MethodId.TWOPOINT].sums(PARAMS, 1.0 + 0j, (10,))

    def test_param_domain(self):
        with pytest.raises(ParamDomainError):
            ROUTES[MethodId.TWOPOINT].sums(HypParams(1.0, 2.5, 2.0), -1.0 + 0j, (10,))
