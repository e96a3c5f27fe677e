"""Tests for the two baselines and the classical region classification."""

import math
import random

import mpmath
import pytest

from gausshyp import (
    BranchCutError,
    DomainError,
    HypParams,
    OutsideDomain,
    ParamDomainError,
    RecurrenceBreakdown,
    TABLES,
    classify_region,
    euler_integral,
    maclaurin,
)
from gausshyp.reference import region_moduli
from conftest import TABLE_PARAM_SETS, Z_EXC, rel_err

LOG_IDENTITY = 2.0 * math.log(2.0)  # 2F1(1,1;2;1/2) = -ln(1-z)/z at z = 1/2


class TestMaclaurin:
    def test_at_origin(self, params_main):
        res = maclaurin(params_main, 0j)
        assert res.value == 1.0 + 0j
        assert res.converged

    def test_log_identity(self):
        res = maclaurin(HypParams(1.0, 1.0, 2.0), 0.5 + 0j)
        assert rel_err(res.value, LOG_IDENTITY) <= 1e-13
        assert res.converged and res.est_error <= 1e-13

    def test_outside_unit_disk(self, params_main):
        with pytest.raises(OutsideDomain):
            maclaurin(params_main, 1.0 + 0.5j)
        with pytest.raises(OutsideDomain):
            maclaurin(params_main, -1.0 + 0j)

    def test_cross_oracle_agreement(self, params_main):
        m = maclaurin(params_main, 0.3 + 0j)
        e = euler_integral(params_main, 0.3 + 0j)
        assert rel_err(m.value, e.value) <= 1e-12

    def test_conjugate_symmetry(self, params_main):
        z = 0.4 + 0.55j
        assert abs(maclaurin(params_main, z.conjugate()).value
                   - maclaurin(params_main, z).value.conjugate()) <= 1e-13

    def test_near_radius(self, params_main):
        # slow but convergent at |z| = 0.95
        z = 0.95 * complex(math.cos(2.0), math.sin(2.0))
        res = maclaurin(params_main, z)
        ref = euler_integral(params_main, z)
        assert rel_err(res.value, ref.value) <= 1e-11
        assert res.terms_used > 300


class TestEulerIntegral:
    def test_at_origin(self, params_main):
        res = euler_integral(params_main, 0j)
        assert rel_err(res.value, 1.0) <= 1e-13

    def test_log_identity(self):
        res = euler_integral(HypParams(1.0, 1.0, 2.0), 0.5 + 0j)
        assert rel_err(res.value, LOG_IDENTITY) <= 1e-13
        assert res.converged

    def test_param_domain(self):
        with pytest.raises(ParamDomainError):
            euler_integral(HypParams(1.0, 2.5, 2.0), 0.2 + 0j)  # c < b
        with pytest.raises(ParamDomainError):
            euler_integral(HypParams(1.0, -0.5, 2.0), 0.2 + 0j)  # b < 0

    def test_branch_cut(self, params_main):
        for z in (1.0 + 0j, 1.5 + 0j, 40.0 + 0j):
            with pytest.raises(BranchCutError):
                euler_integral(params_main, z)

    def test_conjugate_symmetry(self, params_main):
        z = Z_EXC
        v = euler_integral(params_main, z).value
        vc = euler_integral(params_main, z.conjugate()).value
        assert abs(vc - v.conjugate()) <= 1e-13 * abs(v)

    def test_endpoint_singular_exponents(self):
        # b < 1 and c-b < 1: both endpoints singular; cross-check vs series
        p = HypParams(0.7, 0.4, 0.9)
        z = 0.35 + 0.2j
        m = maclaurin(p, z, tol=1e-14, max_terms=5000)
        e = euler_integral(p, z)
        assert rel_err(e.value, m.value) <= 1e-12

    def test_integrand_overflow_raises(self):
        # (1 - zt)^(-a) reaches ~1e800 next to the cut at 1/z
        with pytest.raises(RecurrenceBreakdown):
            euler_integral(HypParams(4.0, 2.1, 3.0), 1.5 + 1e-200j)

    def test_complex_argument_off_disk(self, params_main):
        # the integral reaches z the series cannot
        res = euler_integral(params_main, -7.0 + 2.0j)
        assert res.converged
        assert res.est_error <= 1e-12


class TestClassifyRegion:
    def test_origin(self):
        assert classify_region(0j, 0.9) == {"z", "z/(1-z)"}

    def test_exceptional_point_excluded(self):
        for rho in (0.9, 0.95, 0.99):
            assert classify_region(Z_EXC, rho) == set()
            assert classify_region(Z_EXC.conjugate(), rho) == set()

    def test_far_point_direct(self):
        # independent evaluation of the six moduli at z = 10
        z = 10.0 + 0j
        expected = set()
        for label, val in {
            "z": abs(z),
            "1/z": 1 / abs(z),
            "1-z": abs(1 - z),
            "1/(1-z)": 1 / abs(1 - z),
            "z/(1-z)": abs(z) / abs(1 - z),
            "(z-1)/z": abs(z - 1) / abs(z),
        }.items():
            if val <= 0.5:
                expected.add(label)
        assert classify_region(z, 0.5) == expected == {"1/z", "1/(1-z)"}

    def test_singular_points_have_inf_moduli(self):
        m0 = region_moduli(0j)
        assert m0["1/z"] == math.inf and m0["(z-1)/z"] == math.inf
        m1 = region_moduli(1.0 + 0j)
        assert m1["1/(1-z)"] == math.inf and m1["z/(1-z)"] == math.inf

    def test_rho_validation(self):
        for rho in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                classify_region(0.5 + 0j, rho)

    def test_union_converges_to_plane_minus_exceptional(self):
        # a point near exp(i pi/3) is uncovered at moderate rho but captured
        # (via |1/z| <= rho) once rho approaches 1
        near = Z_EXC * 1.01
        assert classify_region(near, 0.9) == set()
        assert classify_region(near, 0.999) == {"1/z", "1/(1-z)", "(z-1)/z"}


class TestOracleConsistency:
    def test_small_grid(self):
        rng = random.Random(42)
        for params in TABLE_PARAM_SETS:
            for _ in range(10):
                r = rng.uniform(0.05, 0.8)
                th = rng.uniform(0.0, 2.0 * math.pi)
                z = complex(r * math.cos(th), r * math.sin(th))
                m = maclaurin(params, z)
                e = euler_integral(params, z)
                assert rel_err(m.value, e.value) <= 1e-11


#: euler_integral converges on 375 of the 400 sweep points; the floor leaves
#: room for a few points to move with the platform's libm.
CONVERGED_FLOOR = 370


def _mp_hyp2f1(a, b, c, z):
    """mpmath.hyp2f1 at 30 digits, the independent reference for the oracle."""
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, z.imag)))


def _dishonest(a, b, c, z):
    """True when euler_integral reports converged but misses by more than 100x its estimate."""
    res = euler_integral(HypParams(a, b, c), z)
    return res.converged and rel_err(res.value, _mp_hyp2f1(a, b, c, z)) > 100.0 * res.est_error


def _oracle_sweep():
    """300 points with |z| log-uniform on [0.1, 31], then 100 near the cut, |z| in [1, 31]."""
    rng = random.Random(2024)
    pts = []
    for k in range(400):
        b = rng.uniform(0.01, 5.0)
        c = b + rng.uniform(0.01, 5.0)
        a = rng.uniform(-3.0, 5.0)
        if k < 300:
            r, arg = math.exp(rng.uniform(math.log(0.1), math.log(31.0))), rng.uniform(-math.pi, math.pi)
        else:  # arg z up to about 0.3 either side of the cut
            r, arg = math.exp(rng.uniform(0.0, math.log(31.0))), rng.choice((-1, 1)) * 10 ** rng.uniform(-6, -0.5)
        pts.append((a, b, c, complex(r * math.cos(arg), r * math.sin(arg))))
    return pts


class TestOracleAgainstMpmath:
    def test_table_rows(self):
        rows = [row for spec in TABLES.values() for row in spec.rows]
        assert len(rows) == 18
        for row in rows:
            res = euler_integral(row.params, row.z)
            assert res.converged
            assert rel_err(res.value, _mp_hyp2f1(row.a, row.b, row.c, row.z)) <= 1e-15, row.caption

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (1.2, 0.01, 3.0, -1.0 + 1.0j),  # b = 0.01
            (1.2, 2.99, 3.0, -1.0 + 1.0j),  # c - b = 0.01
            (1.2, 0.01, 0.02, 0.5 + 0.5j),  # both endpoint exponents 0.01
            (1.2, 2.1, 3.0, 1e-12 + 0j),
            (1.2, 2.1, 3.0, -1e6 + 0j),
            (1.2, 2.1, 3.0, 1000.0 + 1.0j),
            (1.2, 2.1, 3.0, 1.0 + 1e-8j),  # just off the cut
            (1.2, 2.1, 3.0, 1.5 + 1e-6j),
            (2.5, 0.3, 3.0, 1.5 + 1e-6j),  # does not converge: the two pieces cancel
        ],
    )
    def test_edge_points_honest(self, a, b, c, z):
        assert not _dishonest(a, b, c, z)

    def test_seeded_sweep_honest(self):
        pts = _oracle_sweep()
        assert sum(z.real >= 1.0 for *_, z in pts) >= 100
        converged = dishonest = 0
        for a, b, c, z in pts:
            res = euler_integral(HypParams(a, b, c), z)
            if res.converged:
                converged += 1
                dishonest += rel_err(res.value, _mp_hyp2f1(a, b, c, z)) > 100.0 * res.est_error
        assert dishonest == 0
        assert converged >= CONVERGED_FLOOR
