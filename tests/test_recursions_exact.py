"""The recursions evaluate each step in one fixed association order.

Each production recursion computes the factors that do not depend on n
once, before its loop.  The references below are the same recursions
written with every factor inside the loop body, as the step formulas read.
Floating-point arithmetic is not associative, so regrouping any product or
sum changes the last bits of the streams; these tests compare the bits,
with no tolerance.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from gausshyp import HypParams, in_region_threepoint, in_region_twopoint
from gausshyp.buhring import buhring_coeffs
from gausshyp.core import cpow_principal
from gausshyp.onepoint import phi_half_sequence, phi_w_sequence
from gausshyp.threepoint import _recurrence_xyz, phi3_sequence, threepoint_coeffs
from gausshyp.twopoint import _recursion, twopoint_coeffs_recursive
from conftest import Z_EXC, sample_in_region

N_MAX = (0, 1, 5, 40, 120)


def _bits(values) -> list[tuple[str, str]]:
    """Exact bit patterns; unlike ==, equal for NaN and unequal for -0.0 vs 0.0."""
    out = []
    for v in values:
        v = complex(v)
        out.append((v.real.hex(), v.imag.hex()))
    return out


# --- references: every factor evaluated inside the step -------------------


def _threepoint_ref(a, z, n_max):
    z = complex(z)
    A = [1.0 + 0j]
    pow_half = cpow_principal(1.0 - z / 2.0, -a)
    pow_one = cpow_principal(1.0 - z, -a)
    B = [4.0 * pow_half - pow_one - 3.0]
    C = [2.0 + 2.0 * pow_one - 4.0 * pow_half]
    q = z * z - 3.0 * z + 2.0
    z2 = z * z
    z3 = z2 * z
    for n in range(n_max):
        An, Bn, Cn = A[-1], B[-1], C[-1]
        A.append(
            (
                2.0 * (3.0 * n * (z - 2.0) - 2.0) * Bn
                + 4.0 * z * (3.0 * n + a) * An
                + n * (5.0 * z - 6.0) * Cn
            )
            / (2.0 * (n + 1.0))
        )
        B.append(
            (
                4.0 * z * (3.0 * n + a) * (26.0 * z - 3.0 * z2 - 24.0) * An
                + 2.0
                * (
                    48.0
                    - 4.0 * z * (18.0 + 5.0 * a)
                    + 6.0 * z2 * (4.0 + 3.0 * a)
                    + 3.0 * n * (48.0 - 96.0 * z + 50.0 * z2 - 3.0 * z3)
                )
                * Bn
                + (
                    4.0 * (20.0 - 6.0 * z * (5.0 + a) + 5.0 * z2 * (2.0 + a))
                    + n * (264.0 - 516.0 * z + 262.0 * z2 - 15.0 * z3)
                )
                * Cn
            )
            / (2.0 * (n + 1.0) * q)
        )
        C.append(
            (
                4.0 * z * (3.0 * n + a) * (12.0 - 12.0 * z + z2) * An
                + 2.0
                * (
                    2.0 * (6.0 * (3.0 + a) * z - (6.0 + 5.0 * a) * z2 - 12.0)
                    + 3.0 * n * (z3 - 24.0 * z2 + 48.0 * z - 24.0)
                )
                * Bn
                + (
                    4.0 * (2.0 * z * (9.0 + 2.0 * a) - 3.0 * z2 * (2.0 + a) - 12.0)
                    + n * (5.0 * z3 - 132.0 * z2 + 276.0 * z - 144.0)
                )
                * Cn
            )
            / ((n + 1.0) * q)
        )
    return A, B, C


def _xyz_ref(n, b, c):
    x = n * (-c - 2 * n - 5 * n * c - 6 * n * n - 4 * b * c + 4 * b * b) * (-n + b - c + 1) * (n + b - 1)
    p0 = 16 * b * (b - 1) * (b - c + 1) * (b - c)
    p1 = -4 + 21 * c + 40 * b * b - 17 * c * c - 32 * b * b * c + 32 * b * c * c - 40 * b * c
    p2 = 24 * b * c + 24 - 24 * b * b + 15 * c * c - 57 * c
    p3 = 18 * (c - 2)
    y = 2 * (2 * b - c) * (p0 + p1 * n + p2 * n * n + p3 * n**3)
    z = (
        16
        * (3 * n + c)
        * (3 * n + 1 + c)
        * (3 * n + 2 + c)
        * (-5 * n * c - 6 * n * n + 10 * n + 4 * b * b - 4 * b * c + 4 * c - 4)
    )
    return x, y, z


def _phi3_ref(n_max, b, c):
    vals = [1.0]
    if n_max >= 1:
        vals.append(-b * (b - c) * (2 * b - c) / (2 * c * (c + 1) * (c + 2)))
    for n in range(1, n_max):
        x, y, z = _xyz_ref(n, b, c)
        vals.append(-(x * vals[n - 1] + y * vals[n]) / z)
    return vals


def _twopoint_ref(a, z, A0, B0, n_max):
    A = [A0]
    B = [B0]
    for n in range(n_max):
        An, Bn = A[-1], B[-1]
        A.append((-z * (a + 2.0 * n) * An + (1.0 + n * (2.0 - z)) * Bn) / (n + 1.0))
        B.append(
            (
                z * (2.0 - z) * (a + 2.0 * n) * An
                + (z * (a + 2.0) + n * (6.0 * z - z * z - 4.0) - 2.0) * Bn
            )
            / ((n + 1.0) * (1.0 - z))
        )
    return A, B


def _d_ref(s, z0, a, b, c, n_max):
    z0 = complex(z0)
    d = [1.0 + 0j]
    d_prev2 = 0j
    for n in range(1, n_max + 1):
        den = n * (n + 2.0 * s - a - b)
        d_new = (n + s - 1.0) / den * (
            z0 * (1.0 - z0) * (n + s - 2.0) * d_prev2
            + ((n + s) * (1.0 - 2.0 * z0) + (a + b + 1.0) * z0 - c) * d[-1]
        )
        d_prev2 = d[-1]
        d.append(d_new)
    return d


def _phi_half_ref(n_max, b, c):
    vals = [1.0]
    if n_max >= 1:
        vals.append(1.0 - 2.0 * b / c)
    for n in range(1, n_max):
        vals.append((n * vals[n - 1] - (2.0 * b - c) * vals[n]) / (c + n))
    return vals


def _phi_w_ref(n_max, b, c, w):
    w = complex(w)
    vals = [1.0 + 0j]
    if n_max >= 1:
        vals.append(1.0 - b / (c * w))
    for n in range(1, n_max):
        vals.append(
            -(((b + n) / w - 2.0 * n - c) * vals[n] + n * (1.0 - 1.0 / w) * vals[n - 1])
            / (c + n)
        )
    return vals


# --- the seeded input set ---------------------------------------------------


def _cases():
    """(a, b, c, z): a in [-3, 5], c > b > 0; every fourth a and (b, c) are ints."""
    three = sample_in_region(lambda z: in_region_threepoint(z).inside, 10, seed=606)
    two = sample_in_region(
        lambda z: in_region_twopoint(z).inside and not in_region_threepoint(z).inside, 6, seed=607
    )
    rng = random.Random(608)
    cases = []
    for i, z in enumerate([Z_EXC, Z_EXC.conjugate()] + three + two):
        if i % 4 == 0:
            a, b = rng.randint(-3, 5), rng.randint(1, 4)
            c = b + rng.randint(1, 3)
        else:
            a = rng.uniform(-3.0, 5.0)
            b = rng.uniform(0.1, 5.0)
            c = b + rng.uniform(0.1, 5.0)
        cases.append((a, b, c, z))
    return cases


CASES = _cases()


def test_case_set_covers_the_regions_and_int_parameters():
    zs = [z for _, _, _, z in CASES]
    assert Z_EXC in zs and Z_EXC.conjugate() in zs
    assert sum(in_region_threepoint(z).inside for z in zs) >= 10
    assert sum(not in_region_threepoint(z).inside and in_region_twopoint(z).inside for z in zs) >= 4
    assert any(isinstance(b, int) and isinstance(c, int) for _, b, c, _ in CASES)
    assert all(c > b > 0 for _, b, c, _ in CASES)


@pytest.mark.parametrize("n_max", N_MAX)
def test_threepoint_coeffs(n_max):
    for a, _, _, z in CASES:
        co = threepoint_coeffs(a, z, n_max)
        A, B, C = _threepoint_ref(a, z, n_max)
        assert _bits(co.A) == _bits(A), (a, z, n_max)
        assert _bits(co.B) == _bits(B), (a, z, n_max)
        assert _bits(co.C) == _bits(C), (a, z, n_max)


@pytest.mark.parametrize("n_max", N_MAX)
def test_phi3_sequence(n_max):
    for _, b, c, _ in CASES:
        for j in range(3):  # the three shifted pairs eval_threepoint uses
            got = phi3_sequence(n_max, b + j, c + j)
            assert _bits(got) == _bits(_phi3_ref(n_max, b + j, c + j)), (b, c, j, n_max)


def test_recurrence_xyz_float_and_fraction():
    rng = random.Random(7)
    pairs = [(b, c) for _, b, c, _ in CASES]
    for _ in range(5):
        pairs.append((Fraction(rng.randint(1, 999), 37), Fraction(rng.randint(1000, 1999), 37)))
    for b, c in pairs:
        for n in (1, 2, 7, 40, 119):
            assert _recurrence_xyz(n, b, c) == _xyz_ref(n, b, c), (b, c, n)


@pytest.mark.parametrize("n_max", N_MAX)
def test_twopoint_coeffs(n_max):
    for a, _, _, z in CASES:
        co = twopoint_coeffs_recursive(a, z, n_max)
        A, B = _twopoint_ref(a, complex(z), co.A[0], co.B[0], n_max)
        assert _bits(co.A) == _bits(A), (a, z, n_max)
        assert _bits(co.B) == _bits(B), (a, z, n_max)


def test_twopoint_recursion_in_mpmath():
    for a, _, _, z in CASES[::3]:
        with mpmath.workdps(40):
            am, zm = mpmath.mpf(a), mpmath.mpc(z.real, z.imag)
            A0, B0 = mpmath.mpc(1), (1 - zm) ** (-am) - 1
            got = _recursion(am, zm, A0, B0, 40)
            ref = _twopoint_ref(am, zm, A0, B0, 40)
        assert got == ref, (a, z)  # mpc compares every digit at dps 40


@pytest.mark.parametrize("n_max", N_MAX)
def test_buhring_coeffs(n_max):
    for a, b, c, _ in CASES:
        if abs((b - a) - round(b - a)) < 1e-8:
            continue  # integer b - a: the recurrence denominator vanishes
        params = HypParams(a, b, c)
        for s in (a, b):
            for z0 in (0.5, 0.5 + 0.1j):
                got = buhring_coeffs(s, z0, params, n_max).d
                assert _bits(got) == _bits(_d_ref(s, z0, a, b, c, n_max)), (a, b, c, s, z0)


@pytest.mark.parametrize("n_max", N_MAX)
def test_onepoint_moments(n_max):
    for _, b, c, _ in CASES:
        assert _bits(phi_half_sequence(n_max, b, c)) == _bits(_phi_half_ref(n_max, b, c))
        for w in (0.5 + 0.5j, 0.25, cmath.exp(0.3j)):
            assert _bits(phi_w_sequence(n_max, b, c, w)) == _bits(_phi_w_ref(n_max, b, c, w))


def test_references_overflow_in_the_same_place():
    # Beyond the last finite coefficient both sides carry the same inf/nan.
    a, z = 1.2, complex(0.5, math.sqrt(3.0) / 2.0)
    co = threepoint_coeffs(a, z, 400)
    assert not all(math.isfinite(abs(v)) for v in co.A)
    assert _bits(co.A) == _bits(_threepoint_ref(a, z, 400)[0])
