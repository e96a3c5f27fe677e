"""Scalar helper tests: principal powers, rising factorials, gamma, parameters."""

import cmath
import math
import random

import pytest

from gausshyp import DomainError, HypParams, ParamDomainError, PoleError
from gausshyp.core import cpow_principal, gamma_real, pochhammer


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


class TestHypParams:
    def test_valid(self):
        p = HypParams(1.2, 2.1, 3.0)
        assert p.euler_valid

    def test_euler_flag(self):
        assert not HypParams(1.0, 2.5, 2.0).euler_valid  # c < b
        assert not HypParams(1.0, -0.5, 2.0).euler_valid  # b <= 0
        assert HypParams(0.3, 0.2, 0.9).euler_valid

    def test_c_pole_rejected(self):
        for c in (0.0, -1.0, -6.0):
            with pytest.raises(ParamDomainError):
                HypParams(1.0, 1.0, c)

    def test_non_finite_rejected(self):
        with pytest.raises(ParamDomainError):
            HypParams(math.inf, 1.0, 2.0)

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
        from gausshyp import (
            buhring_eval,
            euler_integral,
            eval_onepoint,
            eval_threepoint,
            eval_twopoint,
            maclaurin,
        )

        p = HypParams(1.2, 2.1, 3.0)
        evaluators = (
            lambda z: maclaurin(p, z),
            lambda z: euler_integral(p, z),
            lambda z: buhring_eval(p, z, n_terms=5),
            lambda z: eval_onepoint(p, z, n_terms=5),
            lambda z: eval_twopoint(p, z, n_terms=5),
            lambda z: eval_threepoint(p, z, n_terms=5),
        )
        bad = (complex(math.nan, 0.0), complex(1.0, math.inf))
        for fn in evaluators:
            for z in bad:
                with pytest.raises(DomainError):
                    fn(z)
