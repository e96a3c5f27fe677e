"""Single-point expansion tests: moment recurrences, region, evaluation."""

import math
import random

import pytest

from gausshyp import (
    DomainError,
    HypParams,
    OutsideDomain,
    ParamDomainError,
    euler_integral,
    eval_onepoint,
    in_region_onepoint,
)
from gausshyp.core import pochhammer
from gausshyp.onepoint import _phi_w_stream, phi_half_sequence, phi_w_sequence
from gausshyp.verify import phi_brute
from conftest import Z_EXC, rel_err, within_factor

PARAMS = HypParams(1.2, 2.1, 3.0)
W_GEN = complex(0.5, 0.5)


def brute_terminating(n: int, b: float, c: float, x: complex) -> complex:
    """In-test oracle: sum_{k<=n} (-n)_k (b)_k x^k / ((c)_k k!)."""
    return sum(
        pochhammer(-n, k) * pochhammer(b, k) * x**k / (pochhammer(c, k) * math.factorial(k))
        for k in range(n + 1)
    )


class TestPhiHalf:
    def test_order_zero(self):
        assert phi_half_sequence(0, 2.1, 3.0) == [1.0]

    def test_order_one(self):
        phi1 = phi_half_sequence(1, 2.1, 3.0)[1]
        assert abs(phi1 - (1.0 - 2.0 * 2.1 / 3.0)) <= 1e-15
        assert abs(phi1 - (-0.4)) <= 1e-15

    def test_small_order_vs_brute_double(self):
        got = phi_half_sequence(5, 2.1, 3.0)[5]
        want = brute_terminating(5, 2.1, 3.0, 2.0 + 0j).real
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("b,c", [(2.1, 3.0), (2.5, 3.0), (2.1, 3.5), (2.01, 3.0)])
    def test_matches_definition_up_to_30(self, b, c):
        # the brute-force sum cancels in double beyond n ~ 15; evaluate the
        # oracle in extended precision so the comparison tests the recurrence
        seq = phi_half_sequence(30, b, c)
        for n in range(31):
            want = phi_brute(n, b, c, 0.5, dps=50).real
            assert abs(seq[n] - want) <= 1e-10 * max(abs(want), 1e-300), (n, b, c)

    def test_pole_in_c(self):
        from gausshyp import PoleError

        with pytest.raises(PoleError):
            phi_half_sequence(3, 1.0, 0.0)
        with pytest.raises(PoleError):
            phi_half_sequence(3, 1.0, -2.0)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            phi_half_sequence(-1, 2.1, 3.0)


class TestPhiW:
    def test_order_zero_and_one(self):
        phi0, phi1 = phi_w_sequence(1, 2.1, 3.0, W_GEN)
        assert phi0 == 1.0 + 0j
        want = 1.0 - 2.1 / (3.0 * W_GEN)
        assert abs(phi1 - want) <= 1e-15

    def test_specializes_to_half(self):
        half = phi_half_sequence(30, 2.1, 3.0)
        gen = phi_w_sequence(30, 2.1, 3.0, 0.5 + 0j)
        for n in range(31):
            assert abs(gen[n] - half[n]) <= 1e-12 * max(1.0, abs(half[n]))

    def test_small_order_vs_brute(self):
        got = phi_w_sequence(3, 2.1, 3.0, W_GEN)[3]
        want = brute_terminating(3, 2.1, 3.0, 1.0 / W_GEN)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_matches_definition_up_to_30(self):
        seq = phi_w_sequence(30, 2.1, 3.0, W_GEN)
        for n in range(31):
            want = phi_brute(n, 2.1, 3.0, W_GEN, dps=50)
            assert abs(seq[n] - want) <= 1e-10 * max(abs(want), 1e-300)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            phi_w_sequence(-1, 2.1, 3.0, W_GEN)

    def test_w_zero_rejected(self):
        with pytest.raises(DomainError):
            phi_w_sequence(2, 2.1, 3.0, 0j)
        with pytest.raises(DomainError, match="finite"):
            phi_w_sequence(2, 2.1, 3.0, complex(0.5, math.nan))

    @pytest.mark.parametrize("w", [0.5 + 0j, W_GEN, 1j])
    def test_contiguous_relation(self, w):
        # Phi_n(b,c,w) = Phi_{n-1}(b,c,w) - b/(cw) Phi_{n-1}(b+1,c+1,w)
        b, c = 2.1, 3.0
        base = phi_w_sequence(20, b, c, w)
        shifted = phi_w_sequence(20, b + 1.0, c + 1.0, w)
        for n in range(1, 21):
            lhs = base[n]
            rhs = base[n - 1] - (b / (c * w)) * shifted[n - 1]
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), (w, n)


class TestRegion:
    def test_origin(self):
        v = in_region_onepoint(0j, 0.5)
        assert v.inside and abs(v.margin - 1.0) <= 1e-15

    def test_exceptional_point_inside_half(self):
        v = in_region_onepoint(Z_EXC, 0.5)
        assert v.inside and v.margin > 0.3

    def test_half_plane_boundary(self):
        v = in_region_onepoint(1.0 + 0j, 0.5)
        assert not v.inside
        assert abs(v.margin) <= 1e-15

    def test_half_region_is_half_plane(self):
        rng = random.Random(5)
        for _ in range(200):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z.real - 1.0) < 1e-9:
                continue
            assert in_region_onepoint(z, 0.5).inside == (z.real < 1.0)

    def test_geometric_ratio_contracts_inside(self):
        rng = random.Random(23)
        for w in (0.5 + 0j, W_GEN, 1j):
            count = 0
            while count < 100:
                z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                if not in_region_onepoint(z, w).inside:
                    continue
                count += 1
                assert abs(w * z / (w * z - 1.0)) < 1.0

    def test_disk_shape_for_small_re_w(self):
        # for w = i the region is the disk |z - i| < sqrt(2)
        for z, inside in ((1j, True), (-1j, False), (0j, True), (2.2j, True), (2.5j, False)):
            assert in_region_onepoint(z, 1j).inside == inside, z


class TestEvalOnepoint:
    def test_at_origin(self):
        res = eval_onepoint(PARAMS, 0j, w=0.5, n_terms=10)
        assert res.value == 1.0 + 0j

    def test_reference_half_error(self):
        ref = euler_integral(PARAMS, Z_EXC).value
        err = rel_err(eval_onepoint(PARAMS, Z_EXC, w=0.5, n_terms=20).value, ref)
        assert within_factor(err, 0.118e-5)

    def test_reference_generic_w_error(self):
        ref = euler_integral(PARAMS, Z_EXC).value
        err = rel_err(eval_onepoint(PARAMS, Z_EXC, w=W_GEN, n_terms=20).value, ref)
        assert within_factor(err, 0.150e-6)

    def test_half_path_equals_generic_path(self, monkeypatch):
        zs = (Z_EXC, -1.0 + 1j, -3.0 + 0j)
        direct = [eval_onepoint(PARAMS, z, w=0.5, n_terms=25).value for z in zs]
        # route w = 1/2 through the generic complex moments instead
        monkeypatch.setattr(
            "gausshyp.onepoint._phi_half_stream", lambda b, c: _phi_w_stream(b, c, 0.5)
        )
        for z, want in zip(zs, direct):
            generic = eval_onepoint(PARAMS, z, w=0.5, n_terms=25).value
            assert abs(want - generic) <= 1e-14 * abs(want)

    def test_error_within_estimate(self):
        for z in (Z_EXC, -1.0 + 0j, -1.0 + 1j):
            ref = euler_integral(PARAMS, z).value
            res = eval_onepoint(PARAMS, z, w=0.5, n_terms=20)
            assert rel_err(res.value, ref) <= 10.0 * res.est_error

    def test_outside_region(self):
        with pytest.raises(OutsideDomain):
            eval_onepoint(PARAMS, 2.0 + 0j, w=0.5, n_terms=10)

    def test_param_domain(self):
        with pytest.raises(ParamDomainError):
            eval_onepoint(HypParams(1.0, 2.5, 2.0), -1.0 + 0j, w=0.5, n_terms=10)

    def test_invalid_w(self):
        with pytest.raises(DomainError):
            eval_onepoint(PARAMS, -1.0 + 0j, w=0j, n_terms=10)
