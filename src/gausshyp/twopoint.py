"""Two-point rational expansion of 2F1 with base points t = 0 and t = 1.

The integrand factor f(t) = (1-zt)^(-a) has the two-point Taylor expansion

    f(t) = sum_n [A_n(a, z) + B_n(a, z) t] [t (t-1)]^n,

convergent inside a Cassini oval |t(t-1)| < r with foci 0 and 1.  The
smallest oval containing the integration interval (0, 1) has r = 1/4, and
keeping the branch point t = 1/z outside it yields the z-region
|z|^2 < 4 |1-z|.  Termwise integration gives

    2F1(a, b, c; z) = sum_n (-1)^n (b)_n (c-b)_n / (c)_{2n+1}
                        [(c+2n) A_n(a, z) + (b+n) B_n(a, z)],

a series of elementary functions of z (linear combinations of 1 and
(1-z)^(-n-a) with polynomial coefficients).

Coefficients come from two routes.  The production route is the forward
recursion obtained from (1-zt) f' = a z f:

    A_{n+1} = (-z (a+2n) A_n + [1 + n(2-z)] B_n) / (n+1)
    B_{n+1} = (z (2-z)(a+2n) A_n + [z(a+2) + n(6z - z^2 - 4) - 2] B_n) / ((n+1)(1-z)).

The verification route, the explicit double sum, lives in gausshyp.verify
(twopoint_coeffs_explicit).  Both routes are exact formula-wise, but at
coefficient level both lose relative accuracy in fixed precision as n
grows: the explicit sum cancels (its terms reach ~4^n |z|^n while
A_n ~ |1/z (1/z - 1)|^(-n)), and the recursion admits a parasitic solution
growing like 4^n relative to A_n.  The series value is unaffected (the
moments decay like 4^(-n)), so the explicit route evaluates in extended
precision and the dual-path comparison runs this module's recursion at a
matched precision (gausshyp.verify.twopoint_coeffs_mp).
"""

from itertools import count, islice
from typing import Iterator

from .core import HypParams, cpow_principal, require_finite_complex, require_n_max, sum_series
from .errors import OutsideDomain, SingularityError
from .results import RegionVerdict, SeriesResult

DEFAULT_TERMS = 40


def _initial_pair(a: float, z: complex) -> tuple[complex, complex]:
    return 1.0 + 0j, cpow_principal(1.0 - z, -a) - 1.0


def _recursion(a, z, A0, B0) -> Iterator[tuple]:
    """(A_n, B_n) for n = 0, 1, ... from (A0, B0) in the arithmetic of a and z."""
    neg_z = -z
    two_z = 2.0 - z
    z_two_z = z * two_z
    za2 = z * (a + 2.0)
    b_b = 6.0 * z - z * z - 4.0
    one_z = 1.0 - z
    An, Bn = A0, B0
    for n in count():
        yield An, Bn
        an = a + 2.0 * n
        n1 = n + 1.0
        An, Bn = (
            (neg_z * an * An + (1.0 + n * two_z) * Bn) / n1,
            (z_two_z * an * An + (za2 + n * b_b - 2.0) * Bn) / (n1 * one_z),
        )


def twopoint_coeffs_recursive(a: float, z: complex, n_max: int) -> tuple[tuple[complex, ...], ...]:
    """The streams (A, B), each over indices 0 .. n_max; z = 1 is singular."""
    require_n_max(n_max)
    z = complex(z)
    if z == 1.0:
        raise SingularityError("z = 1: recursion divides by 1 - z")
    return tuple(zip(*islice(_recursion(a, z, *_initial_pair(a, z)), n_max + 1)))


def twopoint_margin(z: complex) -> float:
    """4|1-z| - |z|^2, positive inside the two-point region."""
    return 4.0 * abs(1.0 - z) - abs(z) * abs(z)


def in_region_twopoint(z: complex) -> RegionVerdict:
    """Membership in |z|^2 < 4 |1-z|; margin is twopoint_margin.

    Equivalent to the Cassini condition 1/4 < |1/z (1/z - 1)| on the
    t-plane branch point.
    """
    m = twopoint_margin(complex(z))
    return RegionVerdict(m > 0.0, m)


def _twopoint_terms(params: HypParams, z: complex) -> Iterator[complex]:
    """Term n of the two-point series: its coefficient pair times its closed-form moment."""
    b, c = params.b, params.c
    moment = 1.0 / c  # (b)_0 (c-b)_0 / (c)_1
    sign = 1.0
    for n, (An, Bn) in enumerate(_recursion(params.a, z, *_initial_pair(params.a, z))):
        yield sign * moment * ((c + 2.0 * n) * An + (b + n) * Bn)
        sign = -sign
        moment *= (b + n) * (c - b + n) / ((c + 2.0 * n + 1.0) * (c + 2.0 * n + 2.0))

def twopoint_sums(
    params: HypParams, z: complex, stops: tuple[int, ...], tol: float = 1e-12
) -> Iterator[SeriesResult]:
    """The two-point expansion truncated at each index in stops, from one pass."""
    z = require_finite_complex(z)
    if z == 1.0:
        raise SingularityError("z = 1: coefficient recursion is singular")
    params.require_euler_valid("expansion derived under")
    verdict = in_region_twopoint(z)
    if not verdict.inside:
        raise OutsideDomain(f"z = {z} outside |z|^2 < 4|1-z| (margin {verdict.margin})")

    return sum_series(stops, tol, (1.0, _twopoint_terms(params, z)))


def eval_twopoint(
    params: HypParams, z: complex, n_terms: int = DEFAULT_TERMS, tol: float = 1e-12
) -> SeriesResult:
    """Truncated two-point expansion, indices 0 .. n_terms inclusive."""
    (res,) = twopoint_sums(params, z, (n_terms,), tol)
    return res
