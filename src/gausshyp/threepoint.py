"""Three-point rational expansion of 2F1 with base points t = 0, 1/2, 1.

The integrand factor f(t) = (1-zt)^(-a) has the three-point Taylor expansion

    f(t) = sum_n [A_n(a, z) + B_n(a, z) t + C_n(a, z) t^2] [t (t-1) (t-1/2)]^n,

convergent inside a Cassini oval |t(t-1)(t-1/2)| < r with three foci.  The
smallest oval containing (0, 1) has r = 1/(12 sqrt(3)) (the maximum of
|t(t-1)(t-1/2)| on the interval, attained at t = (3 +- sqrt(3))/6), and
keeping t = 1/z outside it yields the z-region |z|^3 < 6 sqrt(3) |(1-z)(2-z)|.
This region contains exp(+-i pi/3) with a wide margin and the expansion
stays well defined when b - a is an integer.

Starting from A_0 = 1, B_0 = 4(1-z/2)^(-a) - (1-z)^(-a) - 3 and
C_0 = 2 + 2(1-z)^(-a) - 4(1-z/2)^(-a) (so that A_0 + B_0 t + C_0 t^2
interpolates f at the three base points), the differential equation
(1-zt) f' = a z f gives a forward recursion for (A, B, C) whose B and C
lines divide by (z-1)(z-2).  Termwise integration produces

    2F1(a, b, c; z) = sum_n (-1)^n [ A_n Phi_n(b, c)
                                   + (b/c) B_n Phi_n(b+1, c+1)
                                   + (b(b+1)/(c(c+1))) C_n Phi_n(b+2, c+2) ],

with moments

    Phi_n(b, c) = (-1)^n (b)_n (c-b)_n / (2^n (c)_{2n}) 2F1(-n, b+n; c+2n; 2).

Phi_n is computed by a three-term recurrence (Zeilberger-derived) with
polynomial coefficients X_n, Y_n, Z_n, which tracks Phi_n to machine
accuracy in double precision.  The terminating closed form above is the
verification route (gausshyp.verify.phi3_direct_sequence): in double
precision its sum cancels heavily for n beyond ~12 (Phi_n decays
superexponentially while the 2^k terms do not), so it is evaluated in
extended precision when the two routes are compared at large n.
"""

import math
from itertools import count, islice
from typing import Iterator

from .core import HypParams, cpow_principal, require_finite_complex, require_n_max, sum_series
from .errors import OutsideDomain, PoleError, RecurrenceBreakdown, SingularityError
from .results import RegionVerdict, SeriesResult

DEFAULT_TERMS = 40

_SQRT3_6 = 6.0 * math.sqrt(3.0)


def _abc_stream(a: float, z: complex) -> Iterator[tuple[complex, complex, complex]]:
    """(A_n, B_n, C_n) for n = 0, 1, ... by forward recursion; z in {1, 2} is singular."""
    z = complex(z)
    if z == 1.0 or z == 2.0:
        raise SingularityError(f"z = {z}: recursion divides by (z-1)(z-2)")
    pow_half = cpow_principal(1.0 - z / 2.0, -a)
    pow_one = cpow_principal(1.0 - z, -a)
    An = 1.0 + 0j
    Bn = 4.0 * pow_half - pow_one - 3.0
    Cn = 2.0 + 2.0 * pow_one - 4.0 * pow_half
    q = z * z - 3.0 * z + 2.0
    z2 = z * z
    z3 = z2 * z
    # The factors free of n, named <row>_<stream> after the row they sit in
    # and the stream they multiply (0 and 1 mark the n^0 and n^1 parts).
    # Each is grouped exactly as the step formula groups it, so the streams
    # are bit-for-bit those of the formula with every factor in the loop.
    z4 = 4.0 * z
    a_b = z - 2.0
    a_c = 5.0 * z - 6.0
    b_a = 26.0 * z - 3.0 * z2 - 24.0
    b_b0 = 48.0 - 4.0 * z * (18.0 + 5.0 * a) + 6.0 * z2 * (4.0 + 3.0 * a)
    b_b1 = 48.0 - 96.0 * z + 50.0 * z2 - 3.0 * z3
    b_c0 = 4.0 * (20.0 - 6.0 * z * (5.0 + a) + 5.0 * z2 * (2.0 + a))
    b_c1 = 264.0 - 516.0 * z + 262.0 * z2 - 15.0 * z3
    c_a = 12.0 - 12.0 * z + z2
    c_b0 = 2.0 * (6.0 * (3.0 + a) * z - (6.0 + 5.0 * a) * z2 - 12.0)
    c_b1 = z3 - 24.0 * z2 + 48.0 * z - 24.0
    c_c0 = 4.0 * (2.0 * z * (9.0 + 2.0 * a) - 3.0 * z2 * (2.0 + a) - 12.0)
    c_c1 = 5.0 * z3 - 132.0 * z2 + 276.0 * z - 144.0
    for n in count():
        yield An, Bn, Cn
        n1 = n + 1.0
        n3 = 3.0 * n
        za = z4 * (n3 + a)
        den = 2.0 * n1
        An, Bn, Cn = (
            (2.0 * (n3 * a_b - 2.0) * Bn + za * An + n * a_c * Cn) / den,
            (za * b_a * An + 2.0 * (b_b0 + n3 * b_b1) * Bn + (b_c0 + n * b_c1) * Cn) / (den * q),
            (za * c_a * An + 2.0 * (c_b0 + n3 * c_b1) * Bn + (c_c0 + n * c_c1) * Cn) / (n1 * q),
        )


def threepoint_coeffs(a: float, z: complex, n_max: int) -> tuple[tuple[complex, ...], ...]:
    """The streams (A, B, C), each over indices 0 .. n_max; z in {1, 2} is singular."""
    require_n_max(n_max)
    return tuple(zip(*islice(_abc_stream(a, z), n_max + 1)))


def _recurrence_in_n(b, c):
    """n -> (X_n, Y_n, Z_n) of X_n Phi_{n-1} + Y_n Phi_n + Z_n Phi_{n+1} = 0.

    The factors that depend on (b, c) alone are evaluated here once.
    """
    neg_c = -c
    bb4 = 4 * b * b
    bc4 = 4 * b * c
    c4 = 4 * c
    y_lead = 2 * (2 * b - c)
    p0 = 16 * b * (b - 1) * (b - c + 1) * (b - c)
    p1 = -4 + 21 * c + 40 * b * b - 17 * c * c - 32 * b * b * c + 32 * b * c * c - 40 * b * c
    p2 = 24 * b * c + 24 - 24 * b * b + 15 * c * c - 57 * c
    p3 = 18 * (c - 2)

    def xyz(n: int):
        n3 = 3 * n
        x = n * (neg_c - 2 * n - 5 * n * c - 6 * n * n - bc4 + bb4) * (-n + b - c + 1) * (n + b - 1)
        y = y_lead * (p0 + p1 * n + p2 * n * n + p3 * n**3)
        z = (
            16
            * (n3 + c)
            * (n3 + 1 + c)
            * (n3 + 2 + c)
            * (-5 * n * c - 6 * n * n + 10 * n + bb4 - bc4 + c4 - 4)
        )
        return x, y, z

    return xyz


def _phi1_closed(b, c):
    den = 2 * c * (c + 1) * (c + 2)
    if den == 0:
        raise PoleError(f"c = {c}: pole of Phi_1")
    return -b * (b - c) * (2 * b - c) / den


def _phi3_stream(b: float, c: float) -> Iterator[float]:
    """Phi_0, Phi_1, ... by the three-term recurrence, run forward from Phi_0 = 1, Phi_1."""
    prev = 1.0
    yield prev
    cur = _phi1_closed(b, c)
    yield cur
    xyz = _recurrence_in_n(b, c)
    for n in count(1):
        x, y, z = xyz(n)
        if z == 0:
            raise RecurrenceBreakdown(f"Z_{n} = 0 for b={b}, c={c}")
        prev, cur = cur, -(x * prev + y * cur) / z
        yield cur


def phi3_sequence(n_max: int, b: float, c: float) -> list[float]:
    """Phi_0 .. Phi_{n_max} of the three-point expansion."""
    require_n_max(n_max)
    return list(islice(_phi3_stream(b, c), n_max + 1))


def threepoint_margin(z: complex) -> float:
    """6 sqrt(3) |(1-z)(2-z)| - |z|^3, positive inside the three-point region."""
    return _SQRT3_6 * abs((1.0 - z) * (2.0 - z)) - abs(z) ** 3


def in_region_threepoint(z: complex) -> RegionVerdict:
    """Membership in |z|^3 < 6 sqrt(3) |(1-z)(2-z)|; margin is threepoint_margin."""
    m = threepoint_margin(complex(z))
    return RegionVerdict(m > 0.0, m)


def _threepoint_terms(params: HypParams, z: complex) -> Iterator[complex]:
    """Term n of the three-point series: the A/B/C stream and three moment streams in lock-step."""
    b, c = params.b, params.c
    wb = b / c
    wc = b * (b + 1.0) / (c * (c + 1.0))
    phis = (_phi3_stream(b + j, c + j) for j in range(3))
    sign = 1.0
    for (An, Bn, Cn), phi0, phi1, phi2 in zip(_abc_stream(params.a, z), *phis):
        yield sign * (An * phi0 + wb * Bn * phi1 + wc * Cn * phi2)
        sign = -sign


def threepoint_sums(
    params: HypParams, z: complex, stops: tuple[int, ...], tol: float = 1e-12
) -> Iterator[SeriesResult]:
    """The three-point expansion truncated at each index in stops, from one pass.

    The moment recurrence cannot break down here: under c > b > 0 the last
    factor of Z_n is -[(4b+5n-4)(c-b) + b(5n-4) + 2(3n-2)(n-1)] < 0.
    """
    z = require_finite_complex(z)
    if z == 1.0 or z == 2.0:
        raise SingularityError(f"z = {z}: coefficient recursion is singular")
    params.require_euler_valid("expansion derived under")
    verdict = in_region_threepoint(z)
    if not verdict.inside:
        raise OutsideDomain(
            f"z = {z} outside |z|^3 < 6 sqrt(3)|(1-z)(2-z)| (margin {verdict.margin})"
        )

    return sum_series(stops, tol, (1.0, _threepoint_terms(params, z)))


def eval_threepoint(
    params: HypParams, z: complex, n_terms: int = DEFAULT_TERMS, tol: float = 1e-12
) -> SeriesResult:
    """Truncated three-point expansion, indices 0 .. n_terms inclusive."""
    (res,) = threepoint_sums(params, z, (n_terms,), tol)
    return res
