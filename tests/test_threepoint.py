"""Three-point expansion tests: coefficients, moment routes, region, evaluation."""

import cmath
import math
import random
import sys
import threading
from fractions import Fraction
from itertools import islice

import pytest

from gausshyp import (
    GaussHypError,
    HypParams,
    MethodId,
    OutsideDomain,
    ParamDomainError,
    PoleError,
    ROUTES,
    RecurrenceBreakdown,
    SingularityError,
    euler_integral,
    evaluate,
    threepoint,
)
from gausshyp.core import cpow_principal
from gausshyp.select import eval_threepoint
from gausshyp.threepoint import phi3_sequence, threepoint_coeffs, threepoint_margin
from gausshyp.verify import phi3_direct_sequence
from conftest import Z_EXC, phi3_xyz_ref, rel_err, sample_in_region

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
        # the three-point series relies on this: for c > b > 0 and n >= 1 the last
        # factor of Z_n is -[(4b+5n-4)(c-b) + b(5n-4) + 2(3n-2)(n-1)] < 0.
        # phi3_xyz_ref is the recurrence phi3_sequence runs: its Horner form
        # equals it exactly and the stream runs that form bit for bit
        # (test_recursions_exact.test_phi3_horner_matches_the_written_recurrence
        # and test_recurrence_xyz_float_and_fraction).
        rng = random.Random(2013)
        for _ in range(300):
            b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            c = b + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            n = rng.randint(1, 200)
            last = -((4 * b + 5 * n - 4) * (c - b) + b * (5 * n - 4) + 2 * (3 * n - 2) * (n - 1))
            assert last < 0
            z = 16 * (3 * n + c) * (3 * n + 1 + c) * (3 * n + 2 + c) * last
            assert phi3_xyz_ref(n, b, c)[2] == z, (b, c, n)
        # and in floating point no Z_n rounds to zero on the pair
        # the three-point series passes, or on the shifts its columns replace
        for _ in range(150):
            b = 10.0 ** rng.uniform(-12.0, 12.0)
            c = b * (1.0 + 10.0 ** rng.uniform(-12.0, 3.0))
            assert c > b > 0.0
            for j in range(3):
                phi3_sequence(200, b + j, c + j)


class TestRegion:
    def test_origin(self):
        m = threepoint_margin(0j)
        assert m > 0.0
        assert abs(m - 12.0 * math.sqrt(3.0)) <= 1e-12

    def test_exceptional_point(self):
        # |1-z| = 1, |2-z| = sqrt(3), so margin = 18 - 1 = 17
        m = threepoint_margin(Z_EXC)
        assert m > 0.0
        assert abs(m - 17.0) <= 1e-9

    def test_singular_points_excluded(self):
        assert not threepoint_margin(1.0 + 0j) > 0.0
        assert not threepoint_margin(2.0 + 0j) > 0.0

    def test_region_wider_than_twopoint_on_ray(self):
        # z = -6 is outside |z|^2 < 4|1-z| but inside the three-point region
        from gausshyp.twopoint import twopoint_margin

        z = -6.0 + 0j
        assert not twopoint_margin(z) > 0.0
        assert threepoint_margin(z) > 0.0

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
            ROUTES[MethodId.THREEPOINT].sums(PARAMS, 3.0 + 0j, (10,))

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
            ROUTES[MethodId.THREEPOINT].sums(HypParams(1.0, 2.5, 2.0), -1.0 + 0j, (10,))


@pytest.fixture
def cold_store():
    """The Phi_3 store, emptied, so the test starts cold."""
    threepoint._PHI3.clear()
    return threepoint._PHI3


def _psi_read(b, c, n):
    """Bits of up to n psi_n read off _phi3_stream, and the (class, message) of the error it raised, or None."""
    bits = []
    try:
        for psi in islice(threepoint._phi3_stream(b, c), n):
            bits.append(psi.hex())
    except GaussHypError as exc:
        return bits, (type(exc), str(exc))
    return bits, None


def _outcome(params, z, n_terms):
    """repr of the three-point SeriesResult at n_terms, or the (class name, message) of its error."""
    try:
        return repr(evaluate(params, z, "threepoint", n_terms=n_terms)[0])
    except GaussHypError as exc:
        return type(exc).__name__, str(exc)


class TestPhi3Store:
    """The psi_n prefixes kept between calls: no output depends on what the process read before."""

    def test_bounds(self):
        assert threepoint._PHI3_KEYS == 64
        assert threepoint._PHI3_LEN == threepoint.DEFAULT_TERMS + 2  # what a default call reads

    def test_a_pair_is_kept_in_full_from_its_second_call(self, cold_store):
        want = _psi_read(2.3, 3.5, 120)
        kept = lambda: [len(v) for v in cold_store.values()]
        cold_store.clear()
        assert _psi_read(2.3, 3.5, 42) == (want[0][:42], None) and kept() == [2]
        assert _psi_read(2.3, 3.5, 12) == (want[0][:12], None) and kept() == [12]
        assert _psi_read(2.3, 3.5, 42) == (want[0][:42], None) and kept() == [42]
        assert _psi_read(2.3, 3.5, 120) == want and kept() == [threepoint._PHI3_LEN]
        assert _psi_read(2.3, 3.5, 120) == want and kept() == [threepoint._PHI3_LEN]

    def test_evaluate_does_not_depend_on_the_store(self, cold_store):
        rng = random.Random(26)
        for _ in range(200):
            b = rng.uniform(0.1, 5.0)
            params = HypParams(rng.uniform(-3.0, 5.0), b, b + rng.uniform(0.1, 5.0))
            z = cmath.rect(1.0, rng.choice((1.0, -1.0)) * math.pi / 3.0)
            z += cmath.rect(0.3 * rng.random(), rng.uniform(-math.pi, math.pi))
            cold_store.clear()
            cold = _outcome(params, z, 40)
            assert _outcome(params, z, 40) == cold  # resumed from psi_0, psi_1
            assert _outcome(params, z, 40) == cold  # the kept prefix
            cold_store.clear()
            cold_long = _outcome(params, z, 200)  # past the cap, from a cold store
            cold_store.clear()
            _outcome(params, z, 10)
            _outcome(params, z, 10)
            assert _outcome(params, z, 40) == cold  # resumed from a shorter prefix
            assert _outcome(params, z, 200) == cold_long  # resumed to the cap and past it
            assert _outcome(params, z, 200) == cold_long  # the full prefix, then past it
            assert _outcome(params, z, 40) == cold  # a shorter n off the full prefix
            assert isinstance(cold, str) and len(cold_store) == 1, (params, z, cold)

    def test_int_and_float_pairs_keep_apart(self, cold_store):
        # an int pair runs its n-free coefficients in exact integers, so its prefix can differ from the float pair's
        rng = random.Random(27)
        differ = 0
        for _ in range(100):
            b = rng.randint(10**6, 2 * 10**6)
            ints = b, b + rng.randint(1, 10**6)
            floats = float(ints[0]), float(ints[1])
            for pair, other in ((ints, floats), (floats, ints)):
                cold_store.clear()
                want = _psi_read(*pair, 42)
                cold_store.clear()
                for _ in range(2):  # the second call keeps the full prefix
                    differ += _psi_read(*other, 42) != want
                assert _psi_read(*pair, 42) == want, pair
            assert len(cold_store) == 2
        assert differ > 0  # so a shared prefix would show

    @pytest.mark.parametrize("c", [3.5, 0.7, 12.0])
    def test_signed_zero_b_keeps_apart(self, cold_store, c):
        want = {}
        for b in (0.0, -0.0):
            cold_store.clear()
            want[b.hex()] = _psi_read(b, c, 42)
        assert want["0x0.0p+0"] != want["-0x0.0p+0"]
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            cold_store.clear()
            for _ in range(2):
                assert _psi_read(first, c, 42) == want[first.hex()]
            assert _psi_read(second, c, 42) == want[second.hex()]
            assert len(cold_store) == 2

    @pytest.mark.parametrize(
        "b, c, n_read, error, message",
        [
            (1.2, -1.0, 1, PoleError, "c = -1.0: pole of Phi_1"),
            (1.0, 0.8, 2, RecurrenceBreakdown, "Z_1 = 0 for b=1.0, c=0.8"),
            (1.0, -15.0, 6, RecurrenceBreakdown, "Z_5 = 0 for b=1.0, c=-15.0"),
        ],
    )
    def test_a_stream_that_raises_raises_alike_when_warm(self, cold_store, b, c, n_read, error, message):
        cold = _psi_read(b, c, 50)
        assert len(cold[0]) == n_read and cold[1] == (error, message)
        for k in range(n_read + 1):  # from every shorter kept prefix, then from the longest
            cold_store.clear()
            _psi_read(b, c, k)
            _psi_read(b, c, k)
            assert _psi_read(b, c, 50) == cold, k
            assert _psi_read(b, c, 50) == cold, k

    def test_store_stays_within_its_bounds(self, cold_store):
        rng = random.Random(28)
        longest = 0
        for _ in range(10_000):
            b = rng.uniform(0.1, 5.0)
            c = b + rng.uniform(0.1, 5.0)
            for _ in range(2):  # a first call keeps two values, a second the values it reads, up to the cap
                for _ in islice(threepoint._phi3_stream(b, c), rng.randint(0, 120)):
                    pass
            assert len(cold_store) <= threepoint._PHI3_KEYS
            assert all(type(v) is tuple and 2 <= len(v) <= threepoint._PHI3_LEN for v in cold_store.values())
            longest = max(longest, *map(len, cold_store.values()), 0)
        assert longest == threepoint._PHI3_LEN

    def test_threads_racing_on_one_pair_agree(self, cold_store):
        # four threads read one (b, c) to different lengths, and other pairs in between, so the store
        # fills and is emptied while they race; the switch interval makes them switch often
        params, b, c = HypParams(1.2, 2.3, 3.5), 2.3, 3.5
        lengths = (1, 2, 12, 42, 82, 120)
        want = {}
        for n in lengths:
            cold_store.clear()
            want[n] = _psi_read(b, c, n), _outcome(params, Z_EXC, max(n - 2, 0))
        cold_store.clear()
        results = [None] * 4

        def run(i):
            rng = random.Random(i)
            same = []
            for k in range(60):
                n = lengths[(i + k) % len(lengths)]
                same.append((_psi_read(b, c, n), _outcome(params, Z_EXC, max(n - 2, 0))) == want[n])
                for _ in range(4):
                    _psi_read(rng.uniform(0.1, 5.0), 6.0, 5)
            results[i] = same

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[True] * 60] * 4
        assert len(cold_store) <= threepoint._PHI3_KEYS
