"""Extended-precision references for the double-precision routes.

The production modules sum their series in plain double precision.  The
functions here exist to be compared against them: the terminating
definition of the one-point moments, the explicit two-point coefficient
sum, the two-point recursion run in extended precision, and the closed
form of the three-point moments.  selftest_checks gathers the checks of
`gausshyp selftest`.  This is the only module that imports mpmath.
"""

import cmath
import math
from functools import partial

import mpmath

from .core import HypParams, pochhammer, stream_prefix
from .errors import PoleError, SingularityError
from .onepoint import phi_half_sequence, require_expansion_point
from .reference import classify_region, euler_integral
from .results import MethodId
from .select import ROUTES, evaluate, method_margin
from .threepoint import phi3_sequence, threepoint_coeffs
from .twopoint import _initial_pair, _recursion, twopoint_coeffs_recursive


def _mpc(z: complex):
    # -0.0 imaginary parts collapse to +0.0, the side of the cut that
    # core.cpow_principal takes
    return mpmath.mpc(z.real, 0.0 if z.imag == 0.0 else z.imag)


def _terminating_sum(n: int, b, c, x, one):
    """sum_{k<=n} (-n)_k (b)_k x^k / ((c)_k k!) in the arithmetic of one."""
    s = term = one
    for k in range(n):
        term *= (-n + k) * (b + k) * x / ((c + k) * (k + 1))
        s += term
    return s


def phi_brute(n: int, b: float, c: float, w: complex = 0.5, dps: int | None = None) -> complex:
    """Terminating-series definition of Phi_n, the correctness oracle.

    Sums 2F1(-n, b, c; 1/w) = sum_{k<=n} (-n)_k (b)_k (1/w)^k / ((c)_k k!)
    directly.  The sum cancels heavily for large n (the terms reach
    ~(1+|1/w|)^n while the value stays O(1)), so pass dps to evaluate in
    extended precision when n is beyond ~15.
    """
    x = 1.0 / require_expansion_point(w)
    if dps is None:
        return _terminating_sum(n, b, c, x, 1.0 + 0j)
    with mpmath.workdps(dps):
        s = _terminating_sum(n, mpmath.mpf(b), mpmath.mpf(c), mpmath.mpc(x), mpmath.mpc(1))
        return complex(s)


def twopoint_coeffs_mp(a: float, z: complex, n_max: int, dps: int) -> tuple[tuple[complex, ...], ...]:
    """twopoint_coeffs_recursive run at dps digits, rounded back to complex.

    Gives the recursion the precision of twopoint_coeffs_explicit when the
    two routes are compared at large n, where double-precision
    coefficients of either route have lost relative accuracy.
    """
    z = complex(z)
    if z == 1.0:
        raise SingularityError("z = 1: recursion divides by 1 - z")
    with mpmath.workdps(dps):
        am, zm = mpmath.mpf(a), _mpc(z)
        pairs = stream_prefix(_recursion(am, zm, mpmath.mpc(1), (1 - zm) ** (-am) - 1), n_max)
        return tuple(zip(*((complex(A), complex(B)) for A, B in pairs)))


def _auto_dps(z: complex, n: int) -> int:
    # Cancellation in the explicit sum is ~n * log10(4 R) digits, where
    # R = |1/z (1/z - 1)| is the coefficient decay rate.
    if z == 0:
        return 30
    r = abs(1.0 - z) / (abs(z) * abs(z))
    extra = max(0.0, math.log10(max(r, 1.0)))
    return min(300, 40 + int(n * (0.65 + extra)))


def twopoint_coeffs_explicit(
    a: float, z: complex, n: int, dps: int | None = None
) -> tuple[complex, complex]:
    """(A_n, B_n) by the explicit double sum, the verification route.

    Evaluated in extended precision (mpmath) because the sum cancels to
    roughly 4^n below its largest term; dps=None picks a working precision
    from n and z.  n = 0 returns the initial pair.
    """
    z = complex(z)
    if z == 1.0:
        raise SingularityError("z = 1 is a singular point of the coefficient formulas")
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    if n == 0:
        return _initial_pair(a, z)
    if dps is None:
        dps = _auto_dps(z, n)
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)
        zm = _mpc(z)
        one_m_z = 1 - zm
        A = mpmath.mpc(0)
        B = mpmath.mpc(0)
        sign_n = (-1) ** n
        for k in range(n + 1):
            common = mpmath.rf(am, n - k) * zm ** (n - k)
            binA = mpmath.factorial(n + k - 1) / (mpmath.factorial(k) * mpmath.factorial(n - k))
            binB = binA * (n + k)
            pw = one_m_z ** (k - am - n)
            sign_k = (-1) ** k
            A += binA * (sign_n * n - sign_k * k * pw) * common
            B += binB * (sign_k * pw - sign_n) * common
        fact = mpmath.factorial(n)
        return complex(A / fact), complex(B / fact)


def _phi3_direct(n: int, b, c):
    """Three-point moment Phi_n(b, c) by its terminating closed form, in the arithmetic of b, c."""
    den = pochhammer(c, 2 * n)
    if den == 0.0:
        raise PoleError(f"(c)_{2 * n} = 0 for c = {c}")
    f = 1.0
    term = 1.0
    for k in range(n):
        term *= 2.0 * (-n + k) * (b + n + k) / ((c + 2 * n + k) * (k + 1))
        f += term
    sign = -1.0 if n % 2 else 1.0
    return sign * pochhammer(b, n) * pochhammer(c - b, n) / (2**n * den) * f


def phi3_direct_sequence(n_max: int, b: float, c: float, dps: int | None = None) -> list[float]:
    """Phi_0 .. Phi_{n_max} of the three-point expansion by the closed form.

    In double precision (dps=None) the sum cancels heavily beyond n ~ 12;
    pass dps to evaluate at that many digits, rounded back to float.
    """
    if dps is None:
        return [_phi3_direct(n, b, c) for n in range(n_max + 1)]
    with mpmath.workdps(dps):
        bm, cm = mpmath.mpf(b), mpmath.mpf(c)
        return [float(_phi3_direct(n, bm, cm)) for n in range(n_max + 1)]


def selftest_checks() -> list[tuple]:
    """The (name, check) pairs of `gausshyp selftest`; a check returns True when it passes."""
    z_exc = cmath.exp(1j * math.pi / 3.0)
    params = HypParams(1.2, 2.1, 3.0)
    # (route, params, z, label, n_terms, relative tolerance against the quadrature oracle)
    routes = [
        (MethodId.MACLAURIN, params, 0.55 + 0.4j, "0.55+0.4i", 40, 1e-11),
        (MethodId.MACLAURIN, params, -0.6 + 0.5j, "-0.6+0.5i", 40, 1e-12),
        (MethodId.MACLAURIN, HypParams(0.7, 0.4, 0.9), 0.35 + 0.2j, "0.35+0.2i, b<1, c-b<1", 40, 1e-12),
        (MethodId.BUHRING, params, z_exc, "exp(i*pi/3)", 25, 1e-1),
        (MethodId.ONEPOINT_HALF, params, z_exc, "exp(i*pi/3)", 25, 1e-5),
        (MethodId.ONEPOINT_W, params, z_exc, "exp(i*pi/3)", 20, 1.5e-6),
        (MethodId.TWOPOINT, params, z_exc, "exp(i*pi/3)", 20, 1e-10),
        (MethodId.THREEPOINT, params, z_exc, "exp(i*pi/3)", 20, 1e-10),
        (MethodId.CONNECTION, HypParams(1.2, 2.2, 3.0), 12.0 + 5.0j, "12+5i, b-a=1", 40, 1e-12),
    ]

    def route_matches_oracle(method, p, z, n, tol):
        value = evaluate(p, z, method, n_terms=n, w=complex(0.5, 0.5))[0].value
        ref = euler_integral(p, z).value
        return abs(value - ref) <= tol * abs(ref)

    def oracle_conjugate_symmetric(z=3 + 0.5j):
        v, vc = (euler_integral(params, x).value for x in (z, z.conjugate()))
        return abs(vc - v.conjugate()) <= 1e-14 * abs(v)

    def exceptional_point_covered():
        new = (MethodId.ONEPOINT_HALF, MethodId.TWOPOINT, MethodId.THREEPOINT)
        return all(method_margin(m, z_exc) > 0.0 for m in new) and not classify_region(z_exc, 0.95)

    def phi_matches_definition():
        rec = phi_half_sequence(9, 2.1, 3.0)
        return all(
            abs(rec[n] - phi_brute(n, 2.1, 3.0, 0.5).real) <= 1e-10 * max(1.0, abs(rec[n]))
            for n in range(10)
        )

    def twopoint_paths_agree():
        recursive = zip(*twopoint_coeffs_recursive(1.2, -1.0 + 0j, 6))
        pairs = zip(recursive, (twopoint_coeffs_explicit(1.2, -1.0 + 0j, n) for n in range(7)))
        return all(abs(e - r) <= 1e-10 * max(1.0, abs(e)) for rec, expl in pairs for r, e in zip(rec, expl))

    def phi3_paths_agree():
        rec = phi3_sequence(15, 2.1, 3.0)
        direct = phi3_direct_sequence(15, 2.1, 3.0, dps=40)
        return all(abs(rec[n] - direct[n]) <= 1e-9 * abs(direct[n]) for n in range(1, 16))

    def phi3_columns_match_shifted_streams():
        # the series forms columns 1 and 2 from one stream; sum them from the shifted streams instead
        b, c = params.b, params.c
        A, B, C = threepoint_coeffs(params.a, z_exc, 15)
        s0, s1, s2 = (phi3_sequence(15, b + j, c + j) for j in range(3))
        w1, w2 = b / c, b * (b + 1.0) / (c * (c + 1.0))
        terms = [(-1) ** n * (A[n] * s0[n] + w1 * B[n] * s1[n] + w2 * C[n] * s2[n]) for n in range(16)]
        sums = enumerate(ROUTES[MethodId.THREEPOINT].sums(params, z_exc, tuple(range(16))))
        return all(abs(res.value - sum(terms[: n + 1])) <= 1e-13 * abs(res.value) for n, res in sums)

    return [
        *(
            (f"{m.value} vs euler integral at z = {label}", partial(route_matches_oracle, m, p, z, n, tol))
            for m, p, z, label, n, tol in routes
        ),
        ("euler integral conjugate symmetry at z = 3+0.5i", oracle_conjugate_symmetric),
        ("exp(i*pi/3) covered by new regions only", exceptional_point_covered),
        ("phi recurrence matches terminating series", phi_matches_definition),
        ("twopoint explicit vs recursive", twopoint_paths_agree),
        ("phi3 recurrence vs direct", phi3_paths_agree),
        ("phi3 column relation vs shifted streams", phi3_columns_match_shifted_streams),
    ]
