"""Three-point expansion tests: coefficients, moment routes, region, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from gausshyp import (
    HypParams,
    OutsideDomain,
    ParamDomainError,
    RecurrenceBreakdown,
    SingularityError,
    euler_integral,
    eval_threepoint,
    in_region_threepoint,
)
from gausshyp.core import cpow_principal
from gausshyp.threepoint import _recurrence_in_n, phi3_sequence, threepoint_coeffs
from gausshyp.verify import phi3_direct_sequence
from conftest import Z_EXC, rel_err, sample_in_region

PARAMS = HypParams(1.2, 2.1, 3.0)


def phi1_closed(b: float, c: float) -> float:
    return -b * (b - c) * (2.0 * b - c) / (2.0 * c * (c + 1.0) * (c + 2.0))


class TestCoefficients:
    def test_constant_function_at_z_zero(self):
        A, B, C = threepoint_coeffs(1.2, 0j, 6)
        assert A[0] == 1.0 + 0j
        assert all(v == 0j for v in A[1:])
        assert all(v == 0j for v in B)
        assert all(v == 0j for v in C)

    def test_initial_values_scalar_oracle(self):
        # B_0 = 4 (3/2)^(-1.2) - 2^(-1.2) - 3 at z = -1, C_0 its complement
        _, B, C = threepoint_coeffs(1.2, -1.0 + 0j, 0)
        p_half = math.exp(-1.2 * math.log(1.5))
        p_one = math.exp(-1.2 * math.log(2.0))
        assert abs(B[0] - (4.0 * p_half - p_one - 3.0)) <= 1e-14
        assert abs(C[0] - (2.0 + 2.0 * p_one - 4.0 * p_half)) <= 1e-14

    @pytest.mark.parametrize("z", [Z_EXC, -1.0 + 0j, -0.6 + 0.9j])
    def test_leading_polynomial_interpolates(self, z):
        A, B, C = threepoint_coeffs(1.2, z, 0)
        for t in (0.0, 0.5, 1.0):
            poly = A[0] + B[0] * t + C[0] * t * t
            f = cpow_principal(1.0 - z * t, -1.2)
            assert abs(poly - f) <= 1e-13, (z, t)

    def test_taylor_reconstruction(self):
        for z in (Z_EXC, -1.0 + 0j):
            A, B, C = threepoint_coeffs(1.2, z, 40)
            for t in (0.2, 0.3, 0.5, 0.9):
                s = sum(
                    (A[n] + B[n] * t + C[n] * t * t)
                    * (t * (t - 1.0) * (t - 0.5)) ** n
                    for n in range(41)
                )
                f = cpow_principal(1.0 - z * t, -1.2)
                assert abs(s - f) <= 1e-8, (z, t)

    def test_singular_points(self):
        for z in (1.0 + 0j, 2.0 + 0j):
            with pytest.raises(SingularityError):
                threepoint_coeffs(1.2, z, 3)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            threepoint_coeffs(1.2, Z_EXC, -1)


class TestPhi3:
    def test_order_zero_both_modes(self):
        assert phi3_sequence(0, 2.1, 3.0) == [1.0]
        assert phi3_direct_sequence(0, 2.1, 3.0)[0] == 1.0

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            phi3_sequence(-3, 2.1, 3.0)

    def test_order_one_closed_form(self):
        want = phi1_closed(2.1, 3.0)
        assert abs(want - 0.0189) <= 1e-15  # -2.1 (-0.9)(1.2) / 120
        assert abs(phi3_direct_sequence(1, 2.1, 3.0)[1] - want) <= 1e-14
        assert abs(phi3_sequence(1, 2.1, 3.0)[1] - want) <= 1e-14

    @pytest.mark.parametrize("b,c", [(2.1, 3.0), (2.5, 3.0), (2.01, 3.0), (3.1, 4.0)])
    def test_dual_route_agreement(self, b, c):
        # recurrence in double vs the terminating closed form in extended
        # precision (the direct sum cancels in double beyond n ~ 12)
        rec = phi3_sequence(25, b, c)
        direct = phi3_direct_sequence(25, b, c, dps=50)
        for n in range(26):
            assert abs(rec[n] - direct[n]) <= 1e-9 * max(abs(direct[n]), 1e-300), (b, c, n)

    def test_direct_double_accurate_at_small_n(self):
        direct = phi3_direct_sequence(8, 2.1, 3.0)
        rec = phi3_sequence(8, 2.1, 3.0)
        for n in range(9):
            d = direct[n]
            r = rec[n]
            assert abs(d - r) <= 1e-10 * max(abs(r), 1e-300)

    def test_contiguous_relation(self):
        # Phi_{n+1}(b,c) = b(b+1)(c-b)/(c(c+1)(c+2)) Phi_n(b+2,c+3)
        #                - b(c-b)/(2c(c+1)) Phi_n(b+1,c+2)
        b, c = 2.1, 3.0
        base = phi3_sequence(16, b, c)
        s23 = phi3_sequence(16, b + 2.0, c + 3.0)
        s12 = phi3_sequence(16, b + 1.0, c + 2.0)
        w1 = b * (b + 1.0) * (c - b) / (c * (c + 1.0) * (c + 2.0))
        w2 = b * (c - b) / (2.0 * c * (c + 1.0))
        for n in range(16):
            lhs = base[n + 1]
            rhs = w1 * s23[n] - w2 * s12[n]
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-300), n

    def test_recurrence_breakdown_raises_and_direct_works(self):
        # Z_1 vanishes at b = 1, c = 4/5
        with pytest.raises(RecurrenceBreakdown):
            phi3_sequence(5, 1.0, 0.8)
        vals = phi3_direct_sequence(5, 1.0, 0.8)
        assert len(vals) == 6 and all(math.isfinite(v) for v in vals)


    def test_recurrence_cannot_break_down_when_c_above_b_above_zero(self):
        # eval_threepoint relies on this: for c > b > 0 and n >= 1 the last
        # factor of Z_n is -[(4b+5n-4)(c-b) + b(5n-4) + 2(3n-2)(n-1)] < 0
        rng = random.Random(2013)
        for _ in range(300):
            b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            c = b + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            n = rng.randint(1, 200)
            last = -((4 * b + 5 * n - 4) * (c - b) + b * (5 * n - 4) + 2 * (3 * n - 2) * (n - 1))
            assert last < 0
            z = 16 * (3 * n + c) * (3 * n + 1 + c) * (3 * n + 2 + c) * last
            assert _recurrence_in_n(b, c)(n)[2] == z, (b, c, n)
        # and in floating point no Z_n rounds to zero on the shifted pairs
        # that eval_threepoint passes
        for _ in range(150):
            b = 10.0 ** rng.uniform(-12.0, 12.0)
            c = b * (1.0 + 10.0 ** rng.uniform(-12.0, 3.0))
            assert c > b > 0.0
            for j in range(3):
                phi3_sequence(200, b + j, c + j)


class TestRegion:
    def test_origin(self):
        v = in_region_threepoint(0j)
        assert v.inside
        assert abs(v.margin - 12.0 * math.sqrt(3.0)) <= 1e-12

    def test_exceptional_point(self):
        # |1-z| = 1, |2-z| = sqrt(3), so margin = 18 - 1 = 17
        v = in_region_threepoint(Z_EXC)
        assert v.inside
        assert abs(v.margin - 17.0) <= 1e-9

    def test_singular_points_excluded(self):
        assert not in_region_threepoint(1.0 + 0j).inside
        assert not in_region_threepoint(2.0 + 0j).inside

    def test_region_wider_than_twopoint_on_ray(self):
        # z = -6 is outside |z|^2 < 4|1-z| but inside the three-point region
        from gausshyp import in_region_twopoint

        z = -6.0 + 0j
        assert not in_region_twopoint(z).inside
        assert in_region_threepoint(z).inside

    def test_oval_radius_matches_interval_maximum(self):
        # the region constant encodes the max of |t(t-1)(t-1/2)| over (0,1):
        # value 1/(12 sqrt(3)), attained at t = (3 +- sqrt(3))/6
        vals = [(abs(t * (t - 1.0) * (t - 0.5)), t) for t in (k / 100000.0 for k in range(1, 100000))]
        peak, argmax = max(vals)
        assert abs(peak - 1.0 / (12.0 * math.sqrt(3.0))) <= 1e-9
        t_stars = ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0)
        assert min(abs(argmax - t) for t in t_stars) <= 1e-4


class TestEvalThreepoint:
    def test_at_origin_exact(self):
        for n in (0, 5):
            assert eval_threepoint(PARAMS, 0j, n_terms=n).value == 1.0 + 0j

    def test_exceptional_point_accuracy(self):
        ref = euler_integral(PARAMS, Z_EXC).value
        assert rel_err(eval_threepoint(PARAMS, Z_EXC, n_terms=20).value, ref) <= 1e-12

    def test_near_integer_difference_case(self):
        p = HypParams(1.2, 2.01, 3.0)
        ref = euler_integral(p, -5.0 + 0j).value
        assert rel_err(eval_threepoint(p, -5.0 + 0j, n_terms=20).value, ref) <= 2e-5

    def test_exact_integer_difference_works(self):
        # b - a integer is fine here, unlike the continuation
        p = HypParams(1.2, 2.2, 3.0)
        ref = euler_integral(p, Z_EXC).value
        assert rel_err(eval_threepoint(p, Z_EXC, n_terms=20).value, ref) <= 1e-12

    def test_moment_bookkeeping_routes_agree(self):
        # external (-1)^n with recurrence moments vs the direct closed form
        # folded into positive weights: same sum, different sign bookkeeping
        for params, z in ((PARAMS, Z_EXC), (HypParams(1.2, 2.01, 3.0), -5.0 + 0j)):
            res = eval_threepoint(params, z, n_terms=20)
            b, c = params.b, params.c
            A, B, C = threepoint_coeffs(params.a, z, 20)
            d0, d1, d2 = (phi3_direct_sequence(20, b + j, c + j, dps=40) for j in range(3))
            alt = 0j
            for n in range(21):
                w0 = (-1.0) ** n * d0[n]
                w1 = (-1.0) ** n * d1[n]
                w2 = (-1.0) ** n * d2[n]
                alt += (
                    A[n] * w0
                    + (b / c) * B[n] * w1
                    + (b * (b + 1.0) / (c * (c + 1.0))) * C[n] * w2
                )
            assert abs(res.value - alt) <= 1e-12 * abs(res.value)

    def test_error_within_estimate(self):
        rows = [
            (HypParams(1.2, 2.1, 3.0), Z_EXC),
            (HypParams(1.2, 2.5, 3.0), Z_EXC),
            (HypParams(1.2, 2.1, 3.0), -5.0 + 0j),
            (HypParams(1.2, 2.01, 3.0), -5.0 + 0j),
        ]
        for params, z in rows:
            ref = euler_integral(params, z).value
            res = eval_threepoint(params, z, n_terms=20)
            assert rel_err(res.value, ref) <= 10.0 * res.est_error, (params, z)

    def test_matches_oracle_across_region(self):
        ratio = 6.0 * math.sqrt(3.0)
        samples = sample_in_region(
            lambda z: abs(z) ** 3 < 0.5 * ratio * abs((1.0 - z) * (2.0 - z))
            and not (abs(z.imag) < 1e-9 and z.real >= 1.0),
            8,
            seed=99,
            box=4.0,
        )
        for z in samples:
            ref = euler_integral(PARAMS, z).value
            res = eval_threepoint(PARAMS, z, n_terms=40)
            assert rel_err(res.value, ref) <= 1e-8, z

    def test_outside_region(self):
        with pytest.raises(OutsideDomain):
            eval_threepoint(PARAMS, 3.0 + 0j, n_terms=10)

    def test_overflow_raises_instead_of_nan(self):
        # from n = 244 the coefficients overflow to inf and the moments
        # underflow to 0, so a term is inf * 0 = nan
        with pytest.raises(RecurrenceBreakdown):
            eval_threepoint(PARAMS, Z_EXC, n_terms=250)

    def test_singularities(self):
        for z in (1.0 + 0j, 2.0 + 0j):
            with pytest.raises(SingularityError):
                eval_threepoint(PARAMS, z, n_terms=10)

    def test_param_domain(self):
        with pytest.raises(ParamDomainError):
            eval_threepoint(HypParams(1.0, 2.5, 2.0), -1.0 + 0j, n_terms=10)
