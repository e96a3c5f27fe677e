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
accuracy in double precision.  Only the stream at (b, c) runs.  With M(n, j)
the signed moment that column j multiplies, integrating
d/dt[t^b (1-t)^(c-b) g^n (t-1/2) k] by parts for k = 1, t (g = t(t-1)(t-1/2))
gives the other two columns from Phi_n and Phi_{n+1}:

    D M(n, j) = Pa_j M(n, 0) + Pb_j M(n+1, 0),  D = -(6n^2 + (5c+2)n + c + 4b(c-b)),
    Pa_1 = (b+n)(2b-2c-3n-1),  Pb_1 = 4(c+3n+1)(c+3n+2),
    Pa_2 = (b+n)(b-c-2n-1),    Pb_2 = 2(c+3n+2)(2b+c+6n+2).

Every term of -D is positive when c > b > 0, so D never vanishes inside
the expansion's gate; outside it a zero D raises RecurrenceBreakdown.

The streams regroup their step formulas to save operations per term.  Two
regroupings are exact in binary64: _phi3_stream yields psi_n = M(n, 0) =
(-1)^n Phi_n (Y_n and Phi_1 negated), and the A/B/C step folds its powers of
two into its factors.  The others move the last bits: stepping each n-linear
factor by its slope (A/B/C, and Pa_j, Pb_j and D, whose slope steps by -12
too) and running Phi's polynomials in Horner form.  The term loop steps A/B/C
itself, one generator fewer per term, from _abc_start and with the operations
of _abc_stream, which stays as the reference stream behind threepoint_coeffs.

The psi_n depend on (b, c) alone, and _phi3_stream keeps, per process, the
prefix it has yielded for each exact (b, c): keyed on their types and the
sign of zero too, since an int pair forms its n-free coefficients in exact
integers.  A call yields the kept prefix and resumes the recurrence from its
last two values only when read past it; the longer prefix replaces the kept
one by one assignment of a tuple, with no lock.  The first call at a pair
keeps psi_0 and psi_1 only, so pairs that never repeat copy no more.  At most
64 pairs of at most core.DEFAULT_TERMS + 2 values are kept, emptied past 64.

The terminating closed form above is the verification route
(gausshyp.verify.phi3_direct_sequence), run in extended precision at large n:
in double precision its sum cancels heavily for n beyond ~12.
"""

import math
from itertools import count
from typing import Iterator

from .core import DEFAULT_TERMS, HypParams, cpow_principal, expansion_refusal, stream_prefix, sum_series
from .errors import GaussHypError, PoleError, RecurrenceBreakdown, SingularityError
from .results import SeriesResult

_SQRT3_6 = 6.0 * math.sqrt(3.0)


def _abc_start(a: float, z: complex) -> tuple:
    """A_0, B_0, C_0, q = (z-1)(z-2) and the n-free factors of the A/B/C step; z in {1, 2} is singular."""
    z = complex(z)
    if z == 1.0 or z == 2.0:
        raise SingularityError(f"z = {z}: recursion divides by (z-1)(z-2)")
    pow_half, pow_one = cpow_principal(1.0 - z / 2.0, -a), cpow_principal(1.0 - z, -a)
    q, z2, z3 = z * z - 3.0 * z + 2.0, z * z, z * z * z
    # The factors free of n, named <row>_<stream> after the row they sit in and the
    # stream they multiply.  Each factor linear in n starts at its n = 0 value and
    # steps by its slope d<name>.  The step's powers of two are folded into both (the
    # A and B rows halved, c_a doubled), so A divides by n + 1 and B and C share the
    # divisor (n + 1) q; za A_n = 2z(3n + a) A_n is formed once for the three rows.
    b_a = 26.0 * z - 3.0 * z2 - 24.0
    c_a = 2.0 * (12.0 - 12.0 * z + z2)
    b_b = 48.0 - 4.0 * z * (18.0 + 5.0 * a) + 6.0 * z2 * (4.0 + 3.0 * a)
    db_b = 3.0 * (48.0 - 96.0 * z + 50.0 * z2 - 3.0 * z3)
    b_c = 2.0 * (20.0 - 6.0 * z * (5.0 + a) + 5.0 * z2 * (2.0 + a))
    db_c = 0.5 * (264.0 - 516.0 * z + 262.0 * z2 - 15.0 * z3)
    c_b = 4.0 * (6.0 * (3.0 + a) * z - (6.0 + 5.0 * a) * z2 - 12.0)
    dc_b = 6.0 * (z3 - 24.0 * z2 + 48.0 * z - 24.0)
    c_c = 4.0 * (2.0 * z * (9.0 + 2.0 * a) - 3.0 * z2 * (2.0 + a) - 12.0)
    dc_c = 5.0 * z3 - 132.0 * z2 + 276.0 * z - 144.0
    An, Bn, Cn = 1.0 + 0j, 4.0 * pow_half - pow_one - 3.0, 2.0 + 2.0 * pow_one - 4.0 * pow_half
    za, dza, a_b, da_b, a_c, da_c = 2.0 * z * a, 6.0 * z, -2.0 + 0j, 3.0 * (z - 2.0), 0j, 0.5 * (5.0 * z - 6.0)
    return An, Bn, Cn, q, b_a, c_a, za, dza, a_b, da_b, a_c, da_c, b_b, db_b, b_c, db_c, c_b, dc_b, c_c, dc_c


def _abc_stream(a: float, z: complex) -> Iterator[tuple[complex, complex, complex]]:
    """(A_n, B_n, C_n) for n = 0, 1, ... by forward recursion: the reference for _threepoint_terms' inline step."""
    An, Bn, Cn, q, b_a, c_a, za, dza, a_b, da_b, a_c, da_c, b_b, db_b, b_c, db_c, c_b, dc_b, c_c, dc_c = (
        _abc_start(a, z)
    )
    for n1 in count(1.0):
        yield An, Bn, Cn
        den = n1 * q
        zaa = za * An
        An, Bn, Cn = (
            (a_b * Bn + zaa + a_c * Cn) / n1,
            (b_a * zaa + b_b * Bn + b_c * Cn) / den,
            (c_a * zaa + c_b * Bn + c_c * Cn) / den,
        )
        za, a_b, a_c = za + dza, a_b + da_b, a_c + da_c
        b_b, b_c, c_b, c_c = b_b + db_b, b_c + db_c, c_b + dc_b, c_c + dc_c


def threepoint_coeffs(a: float, z: complex, n_max: int) -> tuple[tuple[complex, ...], ...]:
    """The streams (A, B, C), each over indices 0 .. n_max; z in {1, 2} is singular."""
    return tuple(zip(*stream_prefix(_abc_stream(a, z), n_max)))


#: (b, c, their types and zero signs) -> the psi_n prefix _phi3_stream has yielded (module docstring)
_PHI3_KEYS, _PHI3_LEN = 64, DEFAULT_TERMS + 2
_PHI3: dict = {}


def _phi3_stream(b: float, c: float) -> Iterator[float]:
    """psi_n = (-1)^n Phi_n, n = 0, 1, ..., by the three-term recurrence run forward from psi_0 = 1, psi_1.

    Step n solves X_n psi_{n-1} - Y_n psi_n + Z_n psi_{n+1} = 0, with X_n = n Q(n) E(n) and
    Z_n = K(n) R(n).  Q, E, Y, K and R are polynomials in n of degree at most 3 whose coefficients
    depend on (b, c) alone and are evaluated once, before the loop; each runs in Horner form, Y negated.
    n is a float, as in every series loop: its integer subexpressions (6n, 432n) are exact in
    binary64, so each step keeps the bits of an int index.  The prefix kept in _PHI3 comes first.
    """
    key = b, c, type(b), type(c), math.copysign(1.0, b), math.copysign(1.0, c)
    kept, fresh = _PHI3.get(key, ()), []
    try:
        yield from kept
        if kept:
            prev, cur = kept[-2:]
        else:
            prev = 1.0
            yield prev
            den = 2 * c * (c + 1) * (c + 2)
            if den == 0:
                raise PoleError(f"c = {c}: pole of Phi_1")
            cur = b * (b - c) * (2 * b - c) / den
            fresh += prev, cur
            yield cur
        # Q = q0 + n(q1 - 6n), E = e0 + n(e1 - n), K = 16(3n+c)(3n+c+1)(3n+c+2), R = Z_n / K
        q0, q1 = 4 * b * (b - c) - c, -(5 * c + 2)
        e0, e1 = (b - c + 1) * (b - 1), 2 - c
        y_lead = 2 * (c - 2 * b)
        y0 = y_lead * 16 * b * (b - 1) * (b - c + 1) * (b - c)
        y1 = y_lead * (-4 + 21 * c + 40 * b * b - 17 * c * c - 32 * b * b * c + 32 * b * c * c - 40 * b * c)
        y2 = y_lead * (24 * b * c + 24 - 24 * b * b + 15 * c * c - 57 * c)
        y3 = y_lead * 18 * (c - 2)
        k0, k1, k2 = 16 * c * (c + 1) * (c + 2), 48 * (3 * c * c + 6 * c + 2), 432 * (c + 1)
        r0, r1 = 4 * (b * (b - c) + c - 1), 10 - 5 * c
        keep, last = fresh.append, _PHI3_LEN - 1.0 if kept else 0.0  # a first call keeps psi_0, psi_1 only
        for n in count(len(kept) + len(fresh) - 1.0):
            x = n * (q0 + n * (q1 - 6.0 * n)) * (e0 + n * (e1 - n))
            y = y0 + n * (y1 + n * (y2 + n * y3))
            z = (k0 + n * (k1 + n * (k2 + 432.0 * n))) * (r0 + n * (r1 - 6.0 * n))
            if z == 0.0:
                raise RecurrenceBreakdown(f"Z_{int(n)} = 0 for b={b}, c={c}")
            prev, cur = cur, -(x * prev + y * cur) / z
            if n < last:
                keep(cur)
            yield cur
    finally:
        if fresh:
            _PHI3[key] = kept + tuple(fresh)
            if len(_PHI3) > _PHI3_KEYS:
                _PHI3.clear()


def phi3_sequence(n_max: int, b: float, c: float) -> list[float]:
    """Phi_0 .. Phi_{n_max} of the three-point expansion."""
    return [-psi if n % 2 else psi for n, psi in enumerate(stream_prefix(_phi3_stream(b, c), n_max))]


def threepoint_margin(z: complex) -> float:
    """6 sqrt(3) |(1-z)(2-z)| - |z|^3, positive inside the three-point region, -inf past |z|^3 overflow."""
    try:
        return _SQRT3_6 * abs((1.0 - z) * (2.0 - z)) - abs(z) ** 3
    except OverflowError:
        return -math.inf


def in_region_threepoint(z: complex) -> tuple[bool, float]:
    """(margin > 0.0, margin) of threepoint_margin: membership in |z|^3 < 6 sqrt(3) |(1-z)(2-z)|."""
    m = threepoint_margin(complex(z))
    return m > 0.0, m


def threepoint_refusal(params: HypParams, z: complex) -> GaussHypError | None:
    """The error the three-point Route.sums raises at (params, z), or None: the rational gate, singular at 1 and 2."""
    return expansion_refusal(params, z, threepoint_margin, "|z|^3 < 6 sqrt(3)|(1-z)(2-z)|", (1.0, 2.0))


def _threepoint_terms(params: HypParams, z: complex) -> Iterator[complex]:
    """Term n of the three-point series: A/B/C stepped inline as _abc_stream steps them, against psi_n, psi_{n+1}.

    Column j > 0 is M(n, j) = (Pa_j psi_n + Pb_j psi_{n+1}) / D (module docstring).
    """
    b, c = params.b, params.c
    An, Bn, Cn, q, b_a, c_a, za, dza, a_b, da_b, a_c, da_c, b_b, db_b, b_c, db_c, c_b, dc_b, c_c, dc_c = (
        _abc_start(params.a, z)
    )
    # D and the linear factors of Pa_j and Pb_j at n = 0, each stepped by its slope (D's slope dd by -12):
    # b + n, 2b - 2c - 1 - 3n, b - c - 1 - 2n, 4(c + 3n + 1), c + 3n + 2 and 2(c + 6n + 2b + 2)
    d, dd = -(c + 4 * b * (c - b)), -(5 * c + 8)
    bn, f1, f2 = b, 2 * b - 2 * c - 1, b - c - 1
    g1, g2, h = 4 * (c + 1), c + 2, 2 * (c + (2 * b + 2))
    psis = _phi3_stream(b, c)
    psi, n1 = next(psis), 1.0
    for psi_next in psis:
        if d == 0.0:
            raise RecurrenceBreakdown(f"D_{int(n1) - 1} = 0 for b={b}, c={c}")
        m1 = (bn * f1 * psi + g1 * g2 * psi_next) / d
        m2 = (bn * f2 * psi + g2 * h * psi_next) / d
        yield An * psi + Bn * m1 + Cn * m2
        psi, d, dd = psi_next, d + dd, dd - 12.0
        bn, f1, f2 = bn + 1.0, f1 - 3.0, f2 - 2.0
        g1, g2, h = g1 + 12.0, g2 + 3.0, h + 12.0
        den, zaa = n1 * q, za * An
        An, Bn, Cn = (
            (a_b * Bn + zaa + a_c * Cn) / n1,
            (b_a * zaa + b_b * Bn + b_c * Cn) / den,
            (c_a * zaa + c_b * Bn + c_c * Cn) / den,
        )
        za, a_b, a_c = za + dza, a_b + da_b, a_c + da_c
        b_b, b_c, n1 = b_b + db_b, b_c + db_c, n1 + 1.0
        c_b, c_c = c_b + dc_b, c_c + dc_c


def _threepoint_sums(params: HypParams, z: complex, stops: tuple[int, ...], tol: float, *_) -> Iterator[SeriesResult]:
    """The three-point expansion at each index in stops, from one pass past threepoint_refusal; w and z0 unused.

    The moments cannot break down past the refusal: under c > b > 0, D < 0 and
    the last factor of Z_n is -[(4b+5n-4)(c-b) + b(5n-4) + 2(3n-2)(n-1)] < 0.
    """
    return sum_series(stops, tol, (1.0, _threepoint_terms(params, complex(z))))
