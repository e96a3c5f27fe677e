"""The recursions and the series sums evaluate in one fixed association order.

Each production recursion computes the factors that do not depend on n
once, before its loop.  The references below are the same recursions
written with every factor inside the loop body, as the step formulas read.
The three-point streams also regroup their steps (stepped n-linear
factors for A/B/C and for the columns' D, Pa_j and Pb_j, Horner polynomials
for Phi, which runs signed as psi_n = (-1)^n Phi_n): their float references
are the regrouped steps, which equal the formulas as written in Fraction
arithmetic, and a gate against mpmath bounds what the regrouping costs.
The summation references are the per-route loops that summed each series
over its full coefficient and moment lists before one streaming loop,
core.sum_series, summed them all.  Floating-point arithmetic is not
associative, so regrouping any product or sum changes the last bits of the
streams and of the values; these tests compare the bits, with no tolerance.
The stops form of each route, which reads several truncation indices off
one pass, is compared with the one-stop calls the same way.  The quadrature
oracle, which reads its tanh-sinh nodes off a cached ladder, is compared with
the walk that computed every node inline, and the power series, which counts
its run of small terms in one counter, with the loop that kept a stop flag.
"""

import cmath
import math
import random
import sys
import threading
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from gausshyp import (
    ROUTES,
    TABLES,
    BranchCutError,
    GaussHypError,
    HypParams,
    IntegerDifferenceError,
    MethodId,
    ParamDomainError,
    PoleError,
    RecurrenceBreakdown,
    SeriesResult,
    SingularityError,
    euler_integral,
    evaluate,
    maclaurin,
)
from gausshyp import reference
from gausshyp.buhring import buhring_coeffs, buhring_refusal, exclusion_margin
from gausshyp.core import EPS, cpow_principal, gamma_real, recip_gamma_real, require_finite_complex, stream_prefix
from gausshyp.core import tail_estimate
from gausshyp.onepoint import onepoint_margin, phi_half_sequence, phi_w_sequence
from gausshyp.threepoint import (
    _phi3_stream,
    _threepoint_terms,
    phi3_sequence,
    threepoint_coeffs,
    threepoint_margin,
)
from gausshyp.verify import phi3_direct_sequence, phi_brute
from gausshyp.twopoint import _recursion, twopoint_coeffs_recursive, twopoint_margin
from conftest import MACLAURIN_OVERFLOW, Z_EXC, phi3_xyz_ref, sample_in_region

N_MAX = (0, 1, 5, 40, 120)


def _bits(values) -> list[tuple[str, str]]:
    """Exact bit patterns; unlike ==, equal for NaN and unequal for -0.0 vs 0.0."""
    out = []
    for v in values:
        v = complex(v)
        out.append((v.real.hex(), v.imag.hex()))
    return out


# --- references: every factor evaluated inside the step -------------------


def _threepoint_ref(a, z, A0, B0, C0, n_max):
    """The A/B/C step formulas as written, from (A0, B0, C0); exact for Fraction (a, z, A0, B0, C0)."""
    A, B, C = [A0], [B0], [C0]
    q = z * z - 3 * z + 2
    z2 = z * z
    z3 = z2 * z
    for n in range(n_max):
        An, Bn, Cn = A[-1], B[-1], C[-1]
        A.append(
            (
                2 * (3 * n * (z - 2) - 2) * Bn
                + 4 * z * (3 * n + a) * An
                + n * (5 * z - 6) * Cn
            )
            / (2 * (n + 1))
        )
        B.append(
            (
                4 * z * (3 * n + a) * (26 * z - 3 * z2 - 24) * An
                + 2
                * (
                    48
                    - 4 * z * (18 + 5 * a)
                    + 6 * z2 * (4 + 3 * a)
                    + 3 * n * (48 - 96 * z + 50 * z2 - 3 * z3)
                )
                * Bn
                + (
                    4 * (20 - 6 * z * (5 + a) + 5 * z2 * (2 + a))
                    + n * (264 - 516 * z + 262 * z2 - 15 * z3)
                )
                * Cn
            )
            / (2 * (n + 1) * q)
        )
        C.append(
            (
                4 * z * (3 * n + a) * (12 - 12 * z + z2) * An
                + 2
                * (
                    2 * (6 * (3 + a) * z - (6 + 5 * a) * z2 - 12)
                    + 3 * n * (z3 - 24 * z2 + 48 * z - 24)
                )
                * Bn
                + (
                    4 * (2 * z * (9 + 2 * a) - 3 * z2 * (2 + a) - 12)
                    + n * (5 * z3 - 132 * z2 + 276 * z - 144)
                )
                * Cn
            )
            / ((n + 1) * q)
        )
    return A, B, C


def _threepoint_step_ref(a, z, A0, B0, C0, n_max):
    """The same step with each factor linear in n stepped by its slope and za A_n formed once.

    Each linear factor is [its value at n = 0, its slope], the doublings 2(...)
    folded into both.  test_threepoint_step_regroups_exactly ties it to
    _threepoint_ref in Fraction; the float pins tie it to threepoint_coeffs,
    whose stream folds the step's powers of two further (the A and B rows
    halved, the A-term of the C row doubled), which scales by 2 and keeps
    these bits.
    """
    A, B, C = [A0], [B0], [C0]
    q = z * z - 3 * z + 2
    z2 = z * z
    z3 = z2 * z
    b_a = 26 * z - 3 * z2 - 24
    c_a = 12 - 12 * z + z2
    za = [4 * z * a, 3 * (4 * z)]
    a_b = [-4, 6 * (z - 2)]
    a_c = [0, 5 * z - 6]
    b_b = [2 * (48 - 4 * z * (18 + 5 * a) + 6 * z2 * (4 + 3 * a)), 6 * (48 - 96 * z + 50 * z2 - 3 * z3)]
    b_c = [4 * (20 - 6 * z * (5 + a) + 5 * z2 * (2 + a)), 264 - 516 * z + 262 * z2 - 15 * z3]
    c_b = [2 * (2 * (6 * (3 + a) * z - (6 + 5 * a) * z2 - 12)), 6 * (z3 - 24 * z2 + 48 * z - 24)]
    c_c = [4 * (2 * z * (9 + 2 * a) - 3 * z2 * (2 + a) - 12), 5 * z3 - 132 * z2 + 276 * z - 144]
    for n in range(n_max):
        An, Bn, Cn = A[-1], B[-1], C[-1]
        zaa = za[0] * An
        A.append((a_b[0] * Bn + zaa + a_c[0] * Cn) / (2 * (n + 1)))
        B.append((b_a * zaa + b_b[0] * Bn + b_c[0] * Cn) / (2 * (n + 1) * q))
        C.append((c_a * zaa + c_b[0] * Bn + c_c[0] * Cn) / ((n + 1) * q))
        for factor in (za, a_b, a_c, b_b, b_c, c_b, c_c):
            factor[0] += factor[1]
    return A, B, C


def _phi3_xyz_horner(n, b, c):
    """(X_n, Y_n, Z_n) as _phi3_stream forms them: X_n = n Q E and Z_n = K R, each factor in Horner form.

    test_phi3_horner_matches_the_written_recurrence ties it to phi3_xyz_ref in Fraction.
    """
    q = (4 * b * (b - c) - c) + n * (-(5 * c + 2) - 6 * n)
    e = (b - c + 1) * (b - 1) + n * ((2 - c) - n)
    y_lead = 2 * (2 * b - c)
    y0 = y_lead * 16 * b * (b - 1) * (b - c + 1) * (b - c)
    y1 = y_lead * (-4 + 21 * c + 40 * b * b - 17 * c * c - 32 * b * b * c + 32 * b * c * c - 40 * b * c)
    y2 = y_lead * (24 * b * c + 24 - 24 * b * b + 15 * c * c - 57 * c)
    y3 = y_lead * 18 * (c - 2)
    k = 16 * c * (c + 1) * (c + 2) + n * (48 * (3 * c * c + 6 * c + 2) + n * (432 * (c + 1) + 432 * n))
    r = 4 * (b * (b - c) + c - 1) + n * ((10 - 5 * c) - 6 * n)
    return n * q * e, y0 + n * (y1 + n * (y2 + n * y3)), k * r


def _phi3_ref(n_max, b, c, xyz=phi3_xyz_ref, sign=1):
    """Phi_0 .. Phi_{n_max} in float by the recurrence with the (X_n, Y_n, Z_n) of xyz.

    sign=-1 runs the signed moments psi_n = (-1)^n Phi_n instead: Phi_1 and Y_n negated.
    """
    vals = [1.0]
    if n_max >= 1:
        vals.append(sign * -b * (b - c) * (2 * b - c) / (2 * c * (c + 1) * (c + 2)))
    for n in range(1, n_max):
        x, y, z = xyz(n, b, c)
        vals.append(-(x * vals[n - 1] + sign * y * vals[n]) / z)
    return vals


def _columns_ref(n, b, c):
    """(D, Pa_1, Pb_1, Pa_2, Pb_2) of D M(n, j) = Pa_j M(n, 0) + Pb_j M(n+1, 0), j = 1, 2."""
    d = -(n * (6 * n + (5 * c + 2)) + (c + 4 * b * (c - b)))
    pa1 = (b + n) * ((2 * b - 2 * c - 1) - 3 * n)
    pb1 = 4 * (c + 3 * n + 1) * (c + 3 * n + 2)
    pa2 = (b + n) * ((b - c - 1) - 2 * n)
    pb2 = 2 * (c + 3 * n + 2) * (c + 3 * n + 3 * n + (2 * b + 2))
    return d, pa1, pb1, pa2, pb2


def _columns_step_ref(n_max, b, c):
    """(D, Pa_1, Pb_1, Pa_2, Pb_2) for n = 0 .. n_max as _threepoint_terms steps them.

    D steps by its first difference, which steps by -12, and the linear factors
    b + n, 2b - 2c - 1 - 3n, b - c - 1 - 2n, 4(c + 3n + 1), c + 3n + 2 and
    2(c + 6n + 2b + 2) by their slopes.  test_column_steps_regroup_exactly ties
    it to _columns_ref in Fraction.
    """
    d, dd = -(c + 4 * b * (c - b)), -(5 * c + 8)
    bn, f1, f2 = b, 2 * b - 2 * c - 1, b - c - 1
    g1, g2, h = 4 * (c + 1), c + 2, 2 * (c + (2 * b + 2))
    out = []
    for _ in range(n_max + 1):
        out.append((d, bn * f1, g1 * g2, bn * f2, g2 * h))
        d, dd, bn, f1, f2 = d + dd, dd - 12, bn + 1, f1 - 3, f2 - 2
        g1, g2, h = g1 + 12, g2 + 3, h + 12
    return out


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
    """The one-point moments in the arithmetic of w: complex for a complex w, real for a float."""
    vals = [1.0 + 0j if isinstance(w, complex) else 1.0]
    if n_max >= 1:
        vals.append(1.0 - (b / w) / c)
    for n in range(1, n_max):
        vals.append((n * (1.0 / w - 1.0) * vals[n - 1] - ((b / w - c) + n * (1.0 / w - 2.0)) * vals[n]) / (c + n))
    return vals


# --- the seeded input set ---------------------------------------------------


def _cases():
    """(a, b, c, z): a in [-3, 5], c > b > 0; every fourth a and (b, c) are ints."""
    three = sample_in_region(lambda z: threepoint_margin(z) > 0.0, 10, seed=606)
    two = sample_in_region(
        lambda z: twopoint_margin(z) > 0.0 and not threepoint_margin(z) > 0.0, 6, seed=607
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
    assert sum(threepoint_margin(z) > 0.0 for z in zs) >= 10
    assert sum(not threepoint_margin(z) > 0.0 and twopoint_margin(z) > 0.0 for z in zs) >= 4
    assert any(isinstance(b, int) and isinstance(c, int) for _, b, c, _ in CASES)
    assert all(c > b > 0 for _, b, c, _ in CASES)


@pytest.mark.parametrize("n_max", N_MAX)
def test_threepoint_coeffs(n_max):
    for a, _, _, z in CASES:
        got = threepoint_coeffs(a, z, n_max)
        starts = (stream[0] for stream in got)
        for stream, ref in zip(got, _threepoint_step_ref(a, complex(z), *starts, n_max)):
            assert _bits(stream) == _bits(ref), (a, z, n_max)


def test_threepoint_step_regroups_exactly():
    # The stepped factors and the shared za A_n change only the grouping: in
    # Fraction arithmetic the step equals the formulas as written, at every n.
    rng = random.Random(23)
    for z in (Fraction(-1, 2), Fraction(7, 3)):
        for _ in range(3):
            a = Fraction(rng.randint(-300, 500), rng.randint(1, 100))
            starts = [Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(3)]
            assert _threepoint_step_ref(a, z, *starts, 40) == _threepoint_ref(a, z, *starts, 40), (a, z, starts)


@pytest.mark.parametrize("n_max", N_MAX)
def test_phi3_sequence(n_max):
    # The stream runs the signed moments psi_n, bit for bit; phi3_sequence negates
    # the odd ones back.  Both negations are exact, so Phi_n keeps its bits, except
    # that an exact zero can come out with the other sign.
    for _, b, c, _ in CASES:
        for j in range(3):  # the pair eval_threepoint runs and the two shifts its columns replace
            psi = stream_prefix(_phi3_stream(b + j, c + j), n_max)
            assert _bits(psi) == _bits(_phi3_ref(n_max, b + j, c + j, _phi3_xyz_horner, -1)), (b, c, j, n_max)
            got = phi3_sequence(n_max, b + j, c + j)
            want = _phi3_ref(n_max, b + j, c + j, _phi3_xyz_horner)
            assert got == want, (b, c, j, n_max)
            assert _bits(g for g in got if g) == _bits(w for w in want if w), (b, c, j, n_max)


def test_phi3_horner_matches_the_written_recurrence():
    # the Horner factors of X_n, Y_n and Z_n are the written recurrence, exactly
    rng = random.Random(2300)
    for _ in range(40):
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c = b + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if rng.random() < 0.25:
            b, c = -b, c - 2 * b  # off the gate too: the stream serves any (b, c)
        for n in (1, 2, 3, rng.randint(4, 200)):
            assert _phi3_xyz_horner(n, b, c) == phi3_xyz_ref(n, b, c), (b, c, n)


def _phi3_exact(n_max, b, c, sign=1):
    """Phi_0 .. Phi_{n_max} in exact rationals, by the recurrence that phi3_sequence runs.

    test_recurrence_xyz_float_and_fraction ties phi3_xyz_ref to the stream bit for bit.
    sign=-1 runs the signed recurrence of the stream (Phi_1 and Y_n negated).
    """
    vals = [Fraction(1), sign * -b * (b - c) * (2 * b - c) / (2 * c * (c + 1) * (c + 2))]
    for n in range(1, n_max):
        x, y, z = phi3_xyz_ref(n, b, c)
        vals.append(-(x * vals[n - 1] + sign * y * vals[n]) / z)
    return vals


def _rational_pairs(seed, count):
    """count seeded rational (b, c) with c > b > 0, about a quarter of them moved off that gate."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c = b + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if rng.random() < 0.25:
            b, c = -b, c - 2 * b  # the streams serve any (b, c)
        pairs.append((b, c))
    assert any(not c > b > 0 for b, c in pairs)
    return pairs


def test_signed_phi3_recurrence_is_exact():
    # negating Phi_1 and Y_n turns the recurrence into that of psi_n = (-1)^n Phi_n, exactly
    for b, c in _rational_pairs(2501, 12):
        phi = _phi3_exact(60, b, c)
        assert _phi3_exact(60, b, c, -1) == [(-1) ** n * v for n, v in enumerate(phi)], (b, c)


def test_column_steps_regroup_exactly():
    # the stepped D, Pa_j and Pb_j equal the factors as written, at every n <= 200
    for b, c in _rational_pairs(2502, 40):
        stepped = _columns_step_ref(200, b, c)
        assert stepped == [_columns_ref(n, b, c) for n in range(201)], (b, c)


def test_column_relation_exact_in_fraction():
    # the relation holds with no rounding, and D < 0 (every term of -D is positive when c > b > 0)
    rng = random.Random(16)
    pairs = [(Fraction(21, 10), Fraction(3)), (Fraction(3, 10), Fraction(1, 2)), (Fraction(1), Fraction(40))]
    for _ in range(3):
        b = Fraction(rng.randint(1, 999), rng.randint(1, 99))
        pairs.append((b, b + Fraction(rng.randint(1, 999), rng.randint(1, 99))))
    for b, c in pairs:
        weight = (1, b / c, b * (b + 1) / (c * (c + 1)))
        M = [
            [(-1) ** n * weight[j] * phi for n, phi in enumerate(_phi3_exact(31, b + j, c + j))]
            for j in range(3)
        ]
        for n in range(31):
            d, pa1, pb1, pa2, pb2 = _columns_ref(n, b, c)
            assert d < 0, (b, c, n)
            assert d * M[1][n] == pa1 * M[0][n] + pb1 * M[0][n + 1], (b, c, n)
            assert d * M[2][n] == pa2 * M[0][n] + pb2 * M[0][n + 1], (b, c, n)
    for _ in range(300):
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c = b + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert _columns_ref(rng.randint(0, 200), b, c)[0] < 0, (b, c)


def test_columns_match_the_closed_form_at_400_digits():
    # The columns the term loop forms from phi3_sequence, against the closed form of the
    # shifted moments, n <= 120.  Each carries the stream's own error plus a few roundings
    # of the relation's products.  Those products can cancel: at b << c and small n their
    # size (|Pa_j Phi_n| + |Pb_j Phi_{n+1}|) / |D| exceeds |M(n, j)| up to ~5e3-fold, so the
    # error is measured on that size.
    rng = random.Random(1600)
    for _ in range(4):
        b = rng.uniform(0.0, 50.0)
        c = rng.uniform(b, 50.0)
        phi = phi3_sequence(121, b, c)
        exact = [phi3_direct_sequence(121 - min(j, 1), b + j, c + j, dps=400) for j in range(3)]
        weight = (1.0, b / c, b * (b + 1.0) / (c * (c + 1.0)))
        for n in range(121):
            stream_err = max(abs(phi[k] - exact[0][k]) / abs(exact[0][k]) for k in (n, n + 1))
            d, pa1, pb1, pa2, pb2 = _columns_ref(n, b, c)
            for j, pa, pb in ((1, pa1, pb1), (2, pa2, pb2)):
                got = (pa * phi[n] - pb * phi[n + 1]) / d
                size = (abs(pa * phi[n]) + abs(pb * phi[n + 1])) / abs(d)
                err = abs(got - weight[j] * exact[j][n])
                assert err <= (stream_err + 4 * EPS) * size, (b, c, n, j, err / abs(got))


def test_threepoint_terms_match_the_three_stream_terms():
    # the term loop's one stream against three shifted streams, to the rounding the
    # recurrences gather as n grows
    for a, b, c, z in CASES:
        if not threepoint_margin(z) > 0.0:
            continue
        A, B, C = threepoint_coeffs(a, z, 120)
        streams = [phi3_sequence(120, b + j, c + j) for j in range(3)]
        weight = (1.0, b / c, b * (b + 1.0) / (c * (c + 1.0)))
        for n, term in zip(range(121), _threepoint_terms(HypParams(a, b, c), z)):
            parts = [weight[j] * coeff[n] * streams[j][n] for j, coeff in enumerate((A, B, C))]
            size = sum(abs(p) for p in parts)
            if not math.isfinite(size):
                break
            assert abs(term - (-1) ** n * sum(parts)) <= 2 * (n + 1) * EPS * size, (a, b, c, z, n)


def test_recurrence_xyz_float_and_fraction():
    # The stream steps on a float index with the Horner coefficients of X_n, Y_n, Z_n
    # evaluated once; _phi3_xyz_horner evaluates them at an int index.  Each integer
    # subexpression of the index is exact in binary64, so the bits agree, for float
    # and for int-typed (b, c).  _phi3_exact runs phi3_xyz_ref in Fraction: at the exact
    # rational value of each double pair it tracks the stream to a few roundings per step.
    rng = random.Random(7)
    pairs = [(b, c) for _, b, c, _ in CASES]
    for _ in range(5):
        pairs.append((rng.randint(1, 999) / 37, rng.randint(1000, 1999) / 37))
        b = rng.randint(1, 9)
        pairs.append((b, b + rng.randint(1, 9)))
    assert any(isinstance(b, int) and isinstance(c, int) for b, c in pairs)
    for b, c in pairs:
        got = phi3_sequence(120, b, c)
        assert _bits(got) == _bits(_phi3_ref(120, b, c, _phi3_xyz_horner)), (b, c)
        exact = _phi3_exact(40, Fraction(b), Fraction(c))
        for n in range(41):
            assert abs(Fraction(got[n]) - exact[n]) <= 4 * (n + 1) * Fraction(EPS) * abs(exact[n]), (b, c, n)


@pytest.mark.parametrize(
    "stream, error, message",
    [
        (lambda: phi3_sequence(5, 1.0, 0.8), RecurrenceBreakdown, "Z_1 = 0 for b=1.0, c=0.8"),
        # D(1) = -(6 + (5c + 2) + c + 4b(c - b)) is exactly 0; off the c > b > 0 gate, where D < 0
        (
            lambda: list(islice(_threepoint_terms(HypParams(1.2, 0.5, -0.875), 0.5 + 0.8j), 3)),
            RecurrenceBreakdown,
            "D_1 = 0 for b=0.5, c=-0.875",
        ),
        # the gate refuses z in {1, 2} before any route runs; the term loop's own A/B/C start refuses them too
        (
            lambda: list(islice(_threepoint_terms(HypParams(1.2, 2.1, 3.0), 1 + 0j), 3)),
            SingularityError,
            "z = (1+0j): recursion divides by (z-1)(z-2)",
        ),
        (
            lambda: list(islice(_threepoint_terms(HypParams(1.2, 2.1, 3.0), 2 + 0j), 3)),
            SingularityError,
            "z = (2+0j): recursion divides by (z-1)(z-2)",
        ),
        (
            lambda: buhring_coeffs(1.0, 0.5, HypParams(1.0, 3.0, 4.0), 5),
            IntegerDifferenceError,
            "recurrence denominator vanishes at n=2 for s=1.0 (b-a integer)",
        ),
        (lambda: phi_half_sequence(5, 2.1, -3.0), PoleError, "c + 3 = 0: recurrence pole"),
        (lambda: phi_w_sequence(5, 2.1, -3.0, 0.25), PoleError, "c + 3 = 0: recurrence pole"),
    ],
    ids=["phi3", "threepoint-d", "threepoint-z1", "threepoint-z2", "buhring", "phi-half", "phi-w"],
)
def test_error_messages_keep_an_integer_index(stream, error, message):
    # the streams step on a float index; their messages still print it as an integer
    with pytest.raises(error) as info:
        stream()
    assert str(info.value) == message


@pytest.mark.parametrize("n_max", N_MAX)
def test_twopoint_coeffs(n_max):
    for a, _, _, z in CASES:
        A, B = twopoint_coeffs_recursive(a, z, n_max)
        A_ref, B_ref = _twopoint_ref(a, complex(z), A[0], B[0], n_max)
        assert _bits(A) == _bits(A_ref), (a, z, n_max)
        assert _bits(B) == _bits(B_ref), (a, z, n_max)


def test_twopoint_recursion_in_mpmath():
    for a, _, _, z in CASES[::3]:
        with mpmath.workdps(40):
            am, zm = mpmath.mpf(a), mpmath.mpc(z.real, z.imag)
            A0, B0 = mpmath.mpc(1), (1 - zm) ** (-am) - 1
            got = tuple(list(s) for s in zip(*islice(_recursion(am, zm, A0, B0), 41)))
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
                got = buhring_coeffs(s, z0, params, n_max)
                assert _bits(got) == _bits(_d_ref(s, z0, a, b, c, n_max)), (a, b, c, s, z0)


@pytest.mark.parametrize("n_max", N_MAX)
def test_onepoint_moments(n_max):
    for _, b, c, _ in CASES:
        assert _bits(phi_half_sequence(n_max, b, c)) == _bits(_phi_half_ref(n_max, b, c))
        for w in (0.5 + 0.5j, 0.25, cmath.exp(0.3j)):
            assert _bits(phi_w_sequence(n_max, b, c, w)) == _bits(_phi_w_ref(n_max, b, c, complex(w)))


def test_streams_match_the_int_indexed_references_to_n_900():
    # the float index stays exact far past any truncation a route uses
    for a, b, c, _ in CASES:
        assert _bits(phi_half_sequence(900, b, c)) == _bits(_phi_half_ref(900, b, c)), (b, c)
        for w in (0.5 + 0.5j, 0.25, cmath.exp(0.3j)):
            assert _bits(phi_w_sequence(900, b, c, w)) == _bits(_phi_w_ref(900, b, c, complex(w))), (b, c, w)
        if isinstance(buhring_refusal(HypParams(a, b, c), 2.0), IntegerDifferenceError):  # its first check, for any z
            continue
        for s in (a, b):
            for z0 in (0.5, 0.5 + 0.1j):
                got = buhring_coeffs(s, z0, HypParams(a, b, c), 900)
                assert _bits(got) == _bits(_d_ref(s, z0, a, b, c, 900)), (a, b, c, s, z0)


def test_onepoint_moments_are_accurate_to_n_40():
    # the pins above fix the recurrence's grouping; this bounds its error against the definition at 80 digits
    for _, b, c, _ in CASES:
        for w in (0.5, 0.5 + 0.5j, 0.25, cmath.exp(0.3j)):
            got = phi_half_sequence(40, b, c) if w == 0.5 else phi_w_sequence(40, b, c, w)
            for n, phi in enumerate(got):
                want = phi_brute(n, b, c, w, dps=80)
                assert abs(phi - want) <= 1e-13 * abs(want), (b, c, w, n)


def test_references_overflow_in_the_same_place():
    # Beyond the last finite coefficient both sides carry the same inf/nan.
    a, z = 1.2, complex(0.5, math.sqrt(3.0) / 2.0)
    A = threepoint_coeffs(a, z, 400)[0]
    assert not all(math.isfinite(abs(v)) for v in A)
    starts = (stream[0] for stream in threepoint_coeffs(a, z, 0))
    assert _bits(A) == _bits(_threepoint_step_ref(a, z, *starts, 400)[0])


# --- accuracy of the regrouped three-point streams against mpmath -----------

#: The located cancellation point of the three-point series (a, b, c, z).
CANCELLATION_POINT = (4.14655, 2.55191, 2.59298, complex(-4.07808, 0.86988))
#: The triples of the benchmark's shared sweep, drawn at z = exp(+-i pi/3) plus N(0, 0.3^2) jitter.
SHARED_TRIPLES = ((1.2, 2.1, 3.0), (1.2, 2.5, 3.0), (1.2, 2.1, 3.5), (1.0, 3.0, 4.0))
ACCURACY_STOPS = (10, 20, 40)


def _accuracy_points(count):
    """count seeded three-point points with c > b > 0, then the cancellation point.

    Every third is a shared-sweep triple near exp(+-i pi/3), the rest uniform
    (a, b, c) over a box that holds the region; every fifth has an integer b - a.
    """
    rng = random.Random(2313)
    pts = []
    while len(pts) < count:
        i = len(pts)
        if i % 3 == 0:
            a, b, c = SHARED_TRIPLES[i // 3 % len(SHARED_TRIPLES)]
            centre = Z_EXC if rng.random() < 0.5 else Z_EXC.conjugate()
            z = centre + complex(rng.gauss(0.0, 0.3), rng.gauss(0.0, 0.3))
        else:
            b = rng.uniform(0.1, 5.0)
            a, c = rng.uniform(-3.0, 5.0), b + rng.uniform(0.1, 5.0)
            z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if i % 5 == 0:
            b = round(b * 1024.0) / 1024.0  # dyadic, so b - a is exactly the integer drawn
            a = b - rng.randint(-2, 4)
        if threepoint_margin(z) > 0.0:
            pts.append((a, b, c, z))
    return pts + [CANCELLATION_POINT]


def _written_sums(a, b, c, z, stops):
    """(value, est_error, size) at each stop of the sum over the written-out streams.

    size is the sum over k of |A_k||Phi_k| + |B_k||m1_k| + |C_k||m2_k|.
    """
    A, B, C = _threepoint_ref(a, z, *(stream[0] for stream in threepoint_coeffs(a, z, 0)), stops[-1])
    phi = _phi3_ref(stops[-1] + 1, b, c)
    s, abs_sum, last, size = 0j, 0.0, 0.0, 0.0
    out = []
    for n in range(stops[-1] + 1):
        d, pa1, pb1, pa2, pb2 = _columns_ref(n, b, c)
        m1 = (pa1 * phi[n] - pb1 * phi[n + 1]) / d
        m2 = (pa2 * phi[n] - pb2 * phi[n + 1]) / d
        term = (-1.0 if n % 2 else 1.0) * (A[n] * phi[n] + B[n] * m1 + C[n] * m2)
        s += term
        last = abs(term)
        abs_sum += last
        size += abs(A[n]) * abs(phi[n]) + abs(B[n]) * abs(m1) + abs(C[n]) * abs(m2)
        if n in stops:
            out.append((s, tail_estimate(abs(s), abs_sum, last, n + 1), size))
    return out


def test_regrouped_threepoint_sum_is_as_accurate_as_the_written_one():
    # Where the sum over the streams as written converges, the regrouped
    # streams' error exceeds its error by at most 4 EPS times the size of the
    # terms' three parts.  The errors are against mpmath.hyp2f1 at 20 digits,
    # far below the EPS-level differences compared.
    compared = 0
    for a, b, c, z in _accuracy_points(700):
        with mpmath.workdps(20):
            want = mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, z.imag))
        got = ROUTES[MethodId.THREEPOINT].sums(HypParams(a, b, c), z, ACCURACY_STOPS)
        for n, res, (value, est, size) in zip(ACCURACY_STOPS, got, _written_sums(a, b, c, z, ACCURACY_STOPS)):
            if not est <= 1e-12:
                continue
            compared += 1
            err_new = float(abs(mpmath.mpc(res.value) - want))
            err_old = float(abs(mpmath.mpc(value) - want))
            assert err_new <= err_old + 4 * EPS * size, (a, b, c, z, n, err_new, err_old, size)
    assert compared >= 1000


def test_cancellation_point_stays_accurate():
    # auto takes the three-point route at the located cancellation point, and its
    # relative error against mpmath.hyp2f1 stays at 6.7e-13, below 1e-12
    a, b, c, z = CANCELLATION_POINT
    res, method = evaluate(HypParams(a, b, c), z)
    assert method is MethodId.THREEPOINT
    with mpmath.workdps(20):
        want = mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, z.imag))
        err = float(abs(mpmath.mpc(res.value) - want) / abs(want))
    assert err <= 1e-12, err


# --- the summation loops, fed from the collectors ---------------------------


def _sum_ref(contribs):
    s = 0j
    abs_sum = 0.0
    last = 0.0
    for contrib in contribs:
        s += contrib
        last = abs(contrib)
        abs_sum += last
    return s, abs_sum, last


def _threepoint_sum_ref(params, z, n_terms):
    # the signed moments psi_n = (-1)^n Phi_n against the stepped columns, as the term loop forms them
    a, b, c = params.a, params.b, params.c
    A, B, C = threepoint_coeffs(a, z, n_terms)
    psi = _phi3_ref(n_terms + 1, b, c, _phi3_xyz_horner, -1)
    contribs = []
    for n, (d, pa1, pb1, pa2, pb2) in enumerate(_columns_step_ref(n_terms, b, c)):
        m1 = (pa1 * psi[n] + pb1 * psi[n + 1]) / d
        m2 = (pa2 * psi[n] + pb2 * psi[n + 1]) / d
        contribs.append(A[n] * psi[n] + B[n] * m1 + C[n] * m2)
    return _sum_ref(contribs)


def _twopoint_sum_ref(params, z, n_terms):
    b, c = params.b, params.c
    A, B = twopoint_coeffs_recursive(params.a, z, n_terms)
    moment = 1.0 / c
    contribs = []
    for n in range(n_terms + 1):
        sign = -1.0 if n % 2 else 1.0
        contribs.append(sign * moment * ((c + 2.0 * n) * A[n] + (b + n) * B[n]))
        moment *= (b + n) * (c - b + n) / ((c + 2.0 * n + 1.0) * (c + 2.0 * n + 2.0))
    return _sum_ref(contribs)


def _onepoint_sum_ref(params, z, n_terms, w):
    # a real w takes the real moments; the prefactor weights the value and the term sizes
    w = complex(w)
    phis = _phi_w_ref(n_terms, params.b, params.c, w.real if w.imag == 0.0 else w)
    a = params.a
    ratio = w * z / (w * z - 1.0)
    term = 1.0 + 0j
    contribs = []
    for n in range(n_terms + 1):
        contribs.append(term * phis[n])
        term *= (a + n) / (n + 1.0) * ratio
    s, abs_sum, last = _sum_ref(contribs)
    pref = cpow_principal(1.0 - w * z, -a)
    return pref * s, abs(pref * s), abs(pref) * abs_sum, abs(pref) * last


def _series_ref(method, params, z, n_terms, w):
    """(value, est_error) of the route summed by its own loop, or the exception it raises."""
    if method == "threepoint":
        s, abs_sum, last = _threepoint_sum_ref(params, z, n_terms)
        value, total_abs = s, abs(s)
    elif method == "twopoint":
        s, abs_sum, last = _twopoint_sum_ref(params, z, n_terms)
        value, total_abs = s, abs(s)
    else:
        value, total_abs, abs_sum, last = _onepoint_sum_ref(params, z, n_terms, w)
    return value, tail_estimate(total_abs, abs_sum, last, n_terms + 1)


def _buhring_ref(params, z, n_terms, z0=0.5):
    """Value and est_error as buhring_eval summed both series in one lock-step loop."""
    a, b, c = params.a, params.b, params.c
    diff = b - a
    w = z0 - z
    pref_a = gamma_real(c) * gamma_real(diff) * recip_gamma_real(b) * recip_gamma_real(c - a)
    pref_b = gamma_real(c) * gamma_real(-diff) * recip_gamma_real(a) * recip_gamma_real(c - b)
    fac_a = pref_a * cpow_principal(w, -a)
    fac_b = pref_b * cpow_principal(w, -b)
    da = buhring_coeffs(a, z0, params, n_terms)
    db = buhring_coeffs(b, z0, params, n_terms)
    u = 1.0 / (z - z0)
    s_a = 0j
    s_b = 0j
    abs_sum = 0.0
    last = 0.0
    upow = 1.0 + 0j
    for n in range(n_terms + 1):
        ta = da[n] * upow
        tb = db[n] * upow
        s_a += ta
        s_b += tb
        last = abs(fac_a * ta) + abs(fac_b * tb)
        abs_sum += last
        upow *= u
    value = fac_a * s_a + fac_b * s_b
    inflation = 1.0 / abs(math.sin(math.pi * diff))
    return value, tail_estimate(abs(value), abs_sum, last, n_terms + 1) * max(1.0, inflation)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GaussHypError as exc:
        return type(exc).__name__, str(exc)


_ONEPOINT_W = (0.5 + 0.5j, 0.25, cmath.exp(0.3j))


def _series_cases():
    """(method, params, z, w) over CASES for every route whose region holds z."""
    out = []
    for a, b, c, z in CASES:
        params = HypParams(a, b, c)
        if threepoint_margin(z) > 0.0:
            out.append(("threepoint", params, z, None))
        if twopoint_margin(z) > 0.0:
            out.append(("twopoint", params, z, None))
        for w in (0.5,) + _ONEPOINT_W:
            if onepoint_margin(z, w) > 0.0:
                out.append(("onepoint-half" if w == 0.5 else "onepoint-w", params, z, w))
    return out


def _buhring_applies(a, b, c, z):
    return (
        not isinstance(buhring_refusal(HypParams(a, b, c), z), IntegerDifferenceError)
        and exclusion_margin(z, 0.5) > 0.0
        and not (z.imag == 0.0 and z.real > 0.5)
    )


def test_summation_cases_cover_every_series_route():
    methods = {m for m, *_ in _series_cases()}
    assert methods == {"threepoint", "twopoint", "onepoint-half", "onepoint-w"}
    assert sum(_buhring_applies(a, b, c, z) for a, b, c, z in CASES) >= 5


@pytest.mark.parametrize("n_terms", N_MAX)
def test_series_routes_sum_in_the_loop_order(n_terms):
    for method, params, z, w in _series_cases():
        want = _outcome(_series_ref, method, params, z, n_terms, w)

        def run():
            res = evaluate(params, z, method, n_terms=n_terms, w=w)[0]
            assert res.terms_used == n_terms
            assert res.converged == (res.est_error <= 1e-12)
            return res.value, res.est_error

        got = _outcome(run)
        if isinstance(want[0], str):
            assert got == want, (method, params, z, w)
        else:
            assert _bits(got) == _bits(want), (method, params, z, w, n_terms)


@pytest.mark.parametrize("n_terms", N_MAX)
def test_buhring_sums_both_series_in_the_loop_order(n_terms):
    # buhring_eval adds the two series' term sizes per series, this loop per
    # index, so est_error may differ in the last bits.  A real z0 runs the
    # d_n step in real arithmetic, a complex one in complex arithmetic.
    for z0 in (0.5, 0.5 + 0.1j):
        cases = [(HypParams(a, b, c), z) for a, b, c, z in CASES if buhring_refusal(HypParams(a, b, c), z, z0) is None]
        assert len(cases) >= 5, z0
        for params, z in cases:
            want = _outcome(_buhring_ref, params, z, n_terms, z0)
            got = _outcome(lambda: evaluate(params, z, "buhring", n_terms=n_terms, z0=z0)[0])
            if isinstance(want[0], str):
                assert got == want, (params, z, z0)
                continue
            value, est = want
            assert _bits([got.value]) == _bits([value]), (params, z, z0, n_terms)
            assert got.terms_used == n_terms
            assert got.converged == (est <= 1e-12), (params, z, z0, n_terms, est, got.est_error)
            assert abs(got.est_error - est) <= 8 * EPS * est


# --- the stops form: every truncation index off one pass --------------------

STOPS = (0, 5, 10, 15, 20, 40)
SERIES_METHODS = ("threepoint", "twopoint", "onepoint-half", "onepoint-w", "buhring")


def _result_bits(res):
    return (res.value.real.hex(), res.value.imag.hex(), res.est_error.hex(), res.terms_used, res.converged)


def _route_cases(method):
    if method == "buhring":
        return [(HypParams(a, b, c), z, None) for a, b, c, z in CASES if _buhring_applies(a, b, c, z)]
    return [(params, z, w) for m, params, z, w in _series_cases() if m == method]


@pytest.mark.parametrize("method", SERIES_METHODS)
def test_stops_match_the_one_stop_calls(method):
    # ROUTES' run and sums judge converged against the tol they are given;
    # evaluate hands a series route max(tol, 1e-12)
    route = ROUTES[MethodId(method)]
    for params, z, w in _route_cases(method):
        one_stop_calls = (
            (1e-13, lambda n: route.run(params, z, n, 1e-13, w, 0.5)),
            (1e-12, lambda n: evaluate(params, z, method, n_terms=n, tol=1e-13, w=w)[0]),
        )
        for tol, one_stop in one_stop_calls:
            want = [_outcome(lambda n: _result_bits(one_stop(n)), n) for n in STOPS]
            got = []
            try:
                for res in route.sums(params, z, STOPS, tol, w, 0.5):
                    got.append(_result_bits(res))
            except GaussHypError as exc:
                got.append((type(exc).__name__, str(exc)))
            assert got == want[: len(got)], (method, params, z, w, tol)
            # an error ends the pass; the one-stop calls at the later stops fail too
            assert all(len(outcome) == 2 for outcome in want[len(got) :]), (method, params, z, w, tol)


def test_stops_end_where_the_sum_overflows():
    # at exp(i pi/3) the three-point coefficients overflow from n = 244 on
    params = HypParams(1.2, 2.1, 3.0)
    results = ROUTES[MethodId.THREEPOINT].sums(params, Z_EXC, (20, 40, 300))
    for n in (20, 40):
        assert _result_bits(next(results)) == _result_bits(evaluate(params, Z_EXC, "threepoint", n_terms=n)[0])
    with pytest.raises(RecurrenceBreakdown, match="after 301 terms") as exc:
        next(results)
    with pytest.raises(RecurrenceBreakdown) as one_stop:
        evaluate(params, Z_EXC, "threepoint", n_terms=300)
    assert str(exc.value) == str(one_stop.value)


@pytest.mark.parametrize("stops", [(-1,), (-1, 5), (5, 5), (10, 5), (0, 5, 3)])
@pytest.mark.parametrize("method", SERIES_METHODS)
def test_stops_must_ascend_from_zero(method, stops):
    params, z, w = _route_cases(method)[0]
    with pytest.raises(ValueError, match="stops must be ascending non-negative integers"):
        list(ROUTES[MethodId(method)].sums(params, z, stops, 1e-13, w, 0.5))


# --- the quadrature oracle: cached node ladder against the inline walk --------


def _euler_ref(params, z, tol=1e-13):
    """euler_integral as it computed each node inside its walk, with u += step, and the last u."""
    if params.param_refusal("Euler integral needs") is not None:
        raise ParamDomainError(f"Euler integral needs c > b > 0, got b={params.b}, c={params.c}")
    z = require_finite_complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise BranchCutError(f"z = {z} lies on the branch cut [1, inf)")
    a, b, c = params.a, params.b, params.c
    beta = c - b
    pieces = [(0.0, b, beta, 0.0, 1.0, 1.0, 1.0, 1.0 - z)]
    r = 1.0 / z if z else 0j
    t0, r0 = r.real, 1.0 - r.real
    if 0.0 < t0 < 1.0 and abs(r.imag) < min(t0, r0) / 2.0 + 0.25:
        zy = z * complex(0.0, r.imag)
        pieces = [
            (b * math.log(t0), b, 1.0, beta - 1.0, 1.0, r0, z * t0 + zy, zy),
            (beta * math.log(r0), 1.0, beta, b - 1.0, t0, 1.0, zy, zy - z * r0),
        ]

    def g(x, omx, lx, lomx, lj):
        total = 0j
        for lc, p, q, sc, s0, s1, k0, k1 in pieces:
            lf = lc + p * lx + q * lomx + lj - a * cmath.log(k0 * omx + k1 * x)
            total += cmath.exp(lf + sc * math.log(s0 * omx + s1 * x) if sc else lf)
        return total

    u_max = 0.0

    def walk(u, step, total):
        nonlocal u_max
        nodes, right, left = 0, True, True
        while right or left:
            u_max = max(u_max, u)
            nodes += right + left
            s = math.pi * math.sinh(u)
            e = math.exp(-s)
            lx, x, lj = -math.log1p(e), 1.0 / (1.0 + e), math.log(math.pi * math.cosh(u))
            if right:
                v = g(x, e * x, lx, lx - s, lj)
                total += v
                right = abs(v) > reference._TAIL * abs(total)
            if left:
                v = g(e * x, x, lx - s, lx, lj)
                total += v
                left = abs(v) > reference._TAIL * abs(total)
            u += step
        return total, nodes

    h, est = 0.5, math.inf
    try:
        total, nodes = walk(h, h, g(0.5, 0.5, -math.log(2.0), -math.log(2.0), math.log(math.pi)))
        while est > tol and h > 0.5 / 2**7:
            previous = h * total
            h *= 0.5
            total, more = walk(h, 2.0 * h, total)
            nodes += more
            if total:
                est = max(abs(h * total - previous) / abs(h * total), EPS)
    except (OverflowError, ValueError):
        raise RecurrenceBreakdown(f"the Euler integrand at z = {z} is not finite") from None
    value = gamma_real(c) / (gamma_real(b) * gamma_real(beta)) * h * total
    return value, est, len(pieces) * (nodes + 1), u_max


def _oracle_bits(params, z, tol=1e-13):
    try:
        res = euler_integral(params, z, tol)
    except GaussHypError as exc:
        return type(exc).__name__, str(exc)
    return _bits([res.value, res.est_error]), res.terms_used, res.converged


def _oracle_ref_bits(params, z, tol=1e-13):
    try:
        value, est, evals, _ = _euler_ref(params, z, tol)
    except GaussHypError as exc:
        return type(exc).__name__, str(exc)
    return _bits([value, est]), evals, est <= tol


def _splits(z):
    r = 1.0 / z
    return 0.0 < r.real < 1.0 and abs(r.imag) < min(r.real, 1.0 - r.real) / 2.0 + 0.25


ORACLE_ROWS = [(row.params, row.z, 1e-13) for spec in TABLES.values() for row in spec.rows]


def _oracle_cases():
    """(params, z, tol): the table rows, then 60 seeded one-piece and split points at two tolerances."""
    cases = list(ORACLE_ROWS)
    rng = random.Random(609)
    while len(cases) < len(ORACLE_ROWS) + 60:
        b = rng.choice((rng.uniform(0.01, 5.0), 10.0 ** rng.uniform(-4.0, -2.0)))  # small b: long walks
        params = HypParams(rng.uniform(-3.0, 5.0), b, b + rng.uniform(0.05, 5.0))
        if (len(cases) - len(ORACLE_ROWS)) % 2:
            z = 1.0 / complex(rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))  # split at Re(1/z)
        else:
            z = cmath.rect(math.exp(rng.uniform(math.log(0.1), math.log(31.0))), rng.uniform(-math.pi, math.pi))
        cases.append((params, z, rng.choice((1e-13, 1e-8))))
    return cases


ORACLE_CASES = _oracle_cases()


def test_oracle_cases_cover_both_forms_and_the_ladder_bound():
    assert sum(_splits(z) for _, z, _ in ORACLE_CASES) >= 25
    assert sum(not _splits(z) for _, z, _ in ORACLE_CASES) >= 25
    assert {tol for _, _, tol in ORACLE_CASES} == {1e-13, 1e-8}
    # at b < 0.01 walks reach u > LADDER_U, where nodes are not kept
    assert sum(_euler_ref(*case)[3] > reference.LADDER_U for case in ORACLE_CASES) >= 5


def test_oracle_reads_the_bits_of_the_inline_walk():
    want = [_oracle_ref_bits(*case) for case in ORACLE_CASES]
    reference._LADDER.clear()
    assert [_oracle_bits(*case) for case in ORACLE_CASES] == want  # building the ladder
    assert [_oracle_bits(*case) for case in ORACLE_CASES] == want  # reading it


def _ladder_within_bound():
    total = 0
    for (start, step), (nodes, u_next) in reference._LADDER.items():
        us = [start]
        for _ in nodes:
            us.append(us[-1] + step)
        assert us[-1] == u_next and us[-2] <= reference.LADDER_U, (start, step)
        total += len(nodes)
    return total <= 256 * reference.LADDER_U


def test_adversarial_call_leaves_the_ladder_within_its_bound():
    # b = 1e-300: the integrand hardly decays, so the first level walks to u ~ 350
    params = HypParams(1.2, 1e-300, 3.0)
    reference._LADDER.clear()
    got = _oracle_bits(params, 0.5)
    assert got == _oracle_ref_bits(params, 0.5)
    assert got[1] > 1000
    assert _ladder_within_bound()
    for params, z, tol in ORACLE_CASES:
        euler_integral(params, z, tol)
    assert _ladder_within_bound()
    assert len(reference._LADDER) <= 8


def test_oracle_threads_share_the_ladder():
    # more threads than cores, switching often, each in its own order, racing to build the same levels
    cases = ORACLE_CASES[: len(ORACLE_ROWS) + 12]  # every table row and 12 seeded points
    want = [_oracle_ref_bits(*case) for case in cases]
    reference._LADDER.clear()
    results = [None] * 4

    def run(i):
        results[i] = [_oracle_bits(*case) for case in cases[7 * i :] + cases[: 7 * i]]

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
    assert results == [want[7 * i :] + want[: 7 * i] for i in range(4)]
    assert _ladder_within_bound()


# --- the power series: sum_series' stop against the loop with a stop flag ------


def _maclaurin_ref(params, z, tol=1e-13, max_terms=2000):
    """maclaurin as it summed with a separate stop flag and the small-term test after the step."""
    a, b, c = params.a, params.b, params.c
    s = 0j
    term = 1.0 + 0j
    abs_sum = 0.0
    last = 0.0
    n = 0
    below = 0
    converged_stop = False
    while n < max_terms:
        s += term
        abs_sum += abs(term)
        last = abs(term)
        term *= (a + n) * (b + n) * z / ((c + n) * (n + 1))
        n += 1
        if last <= tol * abs(s):
            below += 1
            if below >= 2:
                converged_stop = True
                break
        else:
            below = 0
    est = tail_estimate(abs(s), abs_sum, last, n)
    return SeriesResult(s, n, est, converged_stop and est <= tol)


def _maclaurin_cases(seed=1701, count=400):
    """Parameters of either sign over four decades, |z| < 1 up to 0.999, and two tolerances."""
    rng = random.Random(seed)
    cases = [
        (HypParams(-3.0, 2.1, 3.0), 0.9j, 1e-13),  # a polynomial: the terms after the fourth are 0
        (HypParams(1.2, 2.1, 3.0), 0.0, 1e-13),
        (MACLAURIN_OVERFLOW[0], MACLAURIN_OVERFLOW[1], 1e-13),  # |term| overflows at n = 1934
        (MACLAURIN_OVERFLOW[0], MACLAURIN_OVERFLOW[1].conjugate(), 1e-13),
    ]
    while len(cases) < count:
        a, b, c = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 2.0) for _ in range(3))
        if c <= 0.5 and abs(c - round(c)) < 1e-12:
            continue
        z = cmath.rect(rng.uniform(0.0, 0.999), rng.uniform(-math.pi, math.pi))
        cases.append((HypParams(a, b, c), z, rng.choice((1e-13, 1e-8))))
    return cases


def test_maclaurin_reads_the_bits_of_the_flag_loop():
    # the flag loop counted the terms it summed; maclaurin's terms_used is the last index summed
    cases = _maclaurin_cases()
    outcomes = {"converged": 0, "not converged": 0, "overflow": 0}
    for params, z, tol in cases:
        try:
            want = _maclaurin_ref(params, z, tol)
        except OverflowError:  # the reference's bare abs() overflow; maclaurin raises the library error
            with pytest.raises(RecurrenceBreakdown, match="by term 1934$"):
                maclaurin(params, z, tol)
            outcomes["overflow"] += 1
            continue
        got = maclaurin(params, z, tol)
        assert _result_bits(got) == _result_bits(want._replace(terms_used=want.terms_used - 1)), (params, z, tol)
        outcomes["converged" if got.converged else "not converged"] += 1
    assert outcomes["converged"] >= 30 and outcomes["not converged"] >= 30 and outcomes["overflow"] == 2, outcomes
