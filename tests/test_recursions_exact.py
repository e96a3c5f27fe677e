"""The recursions and the series sums evaluate in one fixed association order.

Each production recursion computes the factors that do not depend on n
once, before its loop.  The references below are the same recursions
written with every factor inside the loop body, as the step formulas read.
The summation references are the per-route loops that summed each series
over its full coefficient and moment lists before one streaming loop,
core.sum_series, summed them all.  Floating-point arithmetic is not
associative, so regrouping any product or sum changes the last bits of the
streams and of the values; these tests compare the bits, with no tolerance.
The stops form of each route, which reads several truncation indices off
one pass, is compared with the one-stop calls the same way.
"""

import cmath
import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from gausshyp import (
    ROUTES,
    GaussHypError,
    HypParams,
    MethodId,
    RecurrenceBreakdown,
    evaluate,
    in_region_threepoint,
    in_region_twopoint,
)
from gausshyp.buhring import buhring_coeffs, exclusion_margin, is_integer_difference
from gausshyp.core import EPS, cpow_principal, gamma_real, recip_gamma_real, tail_estimate
from gausshyp.onepoint import in_region_onepoint, phi_half_sequence, phi_w_sequence
from gausshyp.threepoint import _recurrence_in_n, phi3_sequence, threepoint_coeffs, threepoint_sums
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
        got = threepoint_coeffs(a, z, n_max)
        for stream, ref in zip(got, _threepoint_ref(a, z, n_max)):
            assert _bits(stream) == _bits(ref), (a, z, n_max)


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
            assert _recurrence_in_n(b, c)(n) == _xyz_ref(n, b, c), (b, c, n)


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
            assert _bits(phi_w_sequence(n_max, b, c, w)) == _bits(_phi_w_ref(n_max, b, c, w))


def test_references_overflow_in_the_same_place():
    # Beyond the last finite coefficient both sides carry the same inf/nan.
    a, z = 1.2, complex(0.5, math.sqrt(3.0) / 2.0)
    A = threepoint_coeffs(a, z, 400)[0]
    assert not all(math.isfinite(abs(v)) for v in A)
    assert _bits(A) == _bits(_threepoint_ref(a, z, 400)[0])


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
    a, b, c = params.a, params.b, params.c
    A, B, C = threepoint_coeffs(a, z, n_terms)
    phi0, phi1, phi2 = (phi3_sequence(n_terms, b + j, c + j) for j in range(3))
    wb = b / c
    wc = b * (b + 1.0) / (c * (c + 1.0))
    contribs = []
    for n in range(n_terms + 1):
        sign = -1.0 if n % 2 else 1.0
        contribs.append(sign * (A[n] * phi0[n] + wb * B[n] * phi1[n] + wc * C[n] * phi2[n]))
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
    if w == 0.5:
        phis = phi_half_sequence(n_terms, params.b, params.c)
    else:
        phis = phi_w_sequence(n_terms, params.b, params.c, w)
    a = params.a
    ratio = w * z / (w * z - 1.0)
    term = 1.0 + 0j
    contribs = []
    for n in range(n_terms + 1):
        contribs.append(term * phis[n])
        term *= (a + n) / (n + 1.0) * ratio
    s, abs_sum, last = _sum_ref(contribs)
    return cpow_principal(1.0 - w * z, -a) * s, abs(s), abs_sum, last


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
        if in_region_threepoint(z).inside:
            out.append(("threepoint", params, z, None))
        if in_region_twopoint(z).inside:
            out.append(("twopoint", params, z, None))
        for w in (0.5,) + _ONEPOINT_W:
            if in_region_onepoint(z, w).inside:
                out.append(("onepoint-half" if w == 0.5 else "onepoint-w", params, z, w))
    return out


def _buhring_applies(a, b, c, z):
    return (
        not is_integer_difference(HypParams(a, b, c))
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
    # index, so est_error may differ in the last bits
    for a, b, c, z in CASES:
        if not _buhring_applies(a, b, c, z):
            continue
        params = HypParams(a, b, c)
        want = _outcome(_buhring_ref, params, z, n_terms)
        got = _outcome(lambda: evaluate(params, z, "buhring", n_terms=n_terms)[0])
        if isinstance(want[0], str):
            assert got == want, (params, z)
            continue
        value, est = want
        assert _bits([got.value]) == _bits([value]), (params, z, n_terms)
        assert got.terms_used == n_terms
        assert got.converged == (est <= 1e-12), (params, z, n_terms, est, got.est_error)
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
    sums = ROUTES[MethodId(method)].sums
    for params, z, w in _route_cases(method):
        want = [
            _outcome(lambda n: _result_bits(evaluate(params, z, method, n_terms=n, w=w)[0]), n)
            for n in STOPS
        ]
        got = []
        try:
            for res in sums(params, z, STOPS, 1e-13, w, 0.5):
                got.append(_result_bits(res))
        except GaussHypError as exc:
            got.append((type(exc).__name__, str(exc)))
        assert got == want[: len(got)], (method, params, z, w)
        # an error ends the pass; the one-stop calls at the later stops fail too
        assert all(len(outcome) == 2 for outcome in want[len(got) :]), (method, params, z, w)


def test_stops_end_where_the_sum_overflows():
    # at exp(i pi/3) the three-point coefficients overflow from n = 244 on
    params = HypParams(1.2, 2.1, 3.0)
    results = threepoint_sums(params, Z_EXC, (20, 40, 300))
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
