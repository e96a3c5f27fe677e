"""Buhring's analytic continuation around an expansion point z0.

The continuation writes 2F1 as two series in inverse powers of (z - z0):

    2F1(a, b, c; z) = G(c)G(b-a)/(G(b)G(c-a)) (z0-z)^(-a) sum_n d_n(a, z0) (z-z0)^(-n)
                    + G(c)G(a-b)/(G(a)G(c-b)) (z0-z)^(-b) sum_n d_n(b, z0) (z-z0)^(-n),

convergent outside the circle |z - z0| = max(|z0|, |z0 - 1|) for
|ph(z0 - z)| < pi.  The coefficients obey the three-term recurrence

    d_n(s, z0) = (n+s-1) / (n (n+2s-a-b)) * { z0 (1-z0) (n+s-2) d_{n-2}
                 + [(n+s)(1-2 z0) + (a+b+1) z0 - c] d_{n-1} },

with d_{-1} = 0 and d_0 = 1.  When b - a is an integer the gamma factors
and the recurrence denominators degenerate simultaneously and the two
series cancel, so this route raises IntegerDifferenceError; the limiting
form in 1/z is the "connection" route (gausshyp.connection).  Near-integer
b - a is allowed, but the reported error estimate is inflated by
1/|sin(pi (b-a))| to account for the cancellation between the two series.
"""

import math
from itertools import count
from typing import Iterator

from .core import HypParams, cpow_principal, gamma_real, recip_gamma_real
from .core import require_finite_complex, stream_prefix, sum_series
from .errors import BranchCutError, DomainError, GaussHypError, IntegerDifferenceError, OutsideDomain, ParamDomainError
from .results import SeriesResult

#: |b - a - round(b - a)| below this is treated as an exact integer difference.
INTEGER_DIFF_TOL = 1e-8

#: Default expansion point; the exclusion disk |z - 1/2| <= 1/2 then leaves
#: exp(+-i pi/3) inside the domain of convergence.
DEFAULT_Z0 = 0.5


def _d_start(s: float, z0: complex | float, params: HypParams) -> tuple:
    """d_{-1}, d_0 in the type of z0 and the n-free factors 2s, z0 (1-z0), 1-2 z0, (a+b+1) z0 of the d_n step."""
    d_prev2, d_prev = (0j, 1.0 + 0j) if isinstance(z0, complex) else (0.0, 1.0)
    return d_prev2, d_prev, 2.0 * s, z0 * (1.0 - z0), 1.0 - 2.0 * z0, (params.a + params.b + 1.0) * z0


def _d_stream(s: float, z0: complex | float, params: HypParams) -> Iterator[complex | float]:
    """d_0(s, z0), d_1(s, z0), ... by forward recurrence: the reference for _buhring_terms' inline step."""
    a, b, c = params.a, params.b, params.c
    d_prev2, d_prev, s2, z0_one_z0, one_2z0, abz0 = _d_start(s, z0, params)
    for n in count(1.0):
        yield d_prev
        den = n * (n + s2 - a - b)
        if den == 0.0:
            raise IntegerDifferenceError(
                f"recurrence denominator vanishes at n={int(n)} for s={s} (b-a integer)"
            )
        ns = n + s
        d_prev2, d_prev = d_prev, (ns - 1.0) / den * (
            z0_one_z0 * (ns - 2.0) * d_prev2 + (ns * one_2z0 + abz0 - c) * d_prev
        )


def buhring_coeffs(s: float, z0: complex, params: HypParams, n_max: int) -> list[complex]:
    """The coefficient stream d_0 .. d_{n_max} for expansion parameter s."""
    return stream_prefix(_d_stream(s, complex(z0), params), n_max)


def _buhring_terms(s: float, z0: complex | float, params: HypParams, u: complex) -> Iterator[complex]:
    """Term n of the continuation series for s: d_n(s, z0) u^n, stepping d_n as _d_stream does."""
    a, b, c = params.a, params.b, params.c
    d_prev2, d_prev, s2, z0_one_z0, one_2z0, abz0 = _d_start(s, z0, params)
    upow = 1.0 + 0j
    for n in count(1.0):
        yield d_prev * upow
        upow *= u
        den = n * (n + s2 - a - b)
        if den == 0.0:
            raise IntegerDifferenceError(
                f"recurrence denominator vanishes at n={int(n)} for s={s} (b-a integer)"
            )
        ns = n + s
        d_prev2, d_prev = d_prev, (ns - 1.0) / den * (
            z0_one_z0 * (ns - 2.0) * d_prev2 + (ns * one_2z0 + abz0 - c) * d_prev
        )


def exclusion_radius(z0: complex) -> float:
    """Radius max(|z0|, |z0 - 1|) of the disk around z0 where the continuation diverges."""
    return max(abs(z0), abs(z0 - 1.0))


def exclusion_margin(z: complex, z0: complex) -> float:
    """|z - z0| minus the exclusion radius; positive where the continuation converges, -inf past overflow."""
    try:
        return abs(z - z0) - exclusion_radius(z0)
    except OverflowError:
        return -math.inf


def buhring_refusal(params: HypParams, z: complex, z0: complex = DEFAULT_Z0) -> GaussHypError | None:
    """The error the continuation's Route.sums raises at (params, z, z0), or None where the continuation applies.

    In order: b - a past the double range (ParamDomainError), integer b - a (IntegerDifferenceError), a non-finite
    z or z0 (DomainError), z not outside the excluded disk or |z - z0| past the largest double (OutsideDomain),
    and z on the cut ph(z0 - z) = pi (BranchCutError).
    """
    diff = params.b - params.a
    if not math.isfinite(diff):
        return ParamDomainError("b - a = %s is past the double range", diff)
    if abs(diff - round(diff)) < INTEGER_DIFF_TOL:
        msg = "b - a = %s is an integer (within %s); the continuation coefficients are indeterminate"
        return IntegerDifferenceError(msg, diff, INTEGER_DIFF_TOL)
    try:
        z = require_finite_complex(z)
        z0 = require_finite_complex(z0, "z0")
    except DomainError as exc:
        return exc
    margin = exclusion_margin(z, z0)
    if not margin > 0.0:
        return OutsideDomain("z = %s outside |z - z0| > %s at z0 = %s (margin %s)", z, exclusion_radius(z0), z0, margin)
    w = z0 - z
    if w.imag == 0.0 and w.real < 0.0:
        return BranchCutError("ph(z0 - z) = pi at z = %s: on the continuation branch cut", z)
    return None


def _buhring_sums(params: HypParams, z: complex, stops: tuple, tol: float, _w, z0: complex,
                  stop: float = 0.0) -> Iterator[SeriesResult]:
    """Both continuation series at each index in stops, from one pass past buhring_refusal; w unused.

    est_error is the last-term ratio of the combined value, with the two series' term sizes weighted by their
    prefactors and added (core.sum_series), floored at the rounding level and multiplied by the near-integer inflation.
    """
    a, b, c = params.a, params.b, params.c
    diff = b - a
    z, z0 = complex(z), complex(z0)
    w = z0 - z

    gamma_c = gamma_real(c)
    pref_a = gamma_c * gamma_real(diff) * recip_gamma_real(b) * recip_gamma_real(c - a)
    pref_b = gamma_c * gamma_real(-diff) * recip_gamma_real(a) * recip_gamma_real(c - b)
    fac_a = pref_a * cpow_principal(w, -a)
    fac_b = pref_b * cpow_principal(w, -b)

    u = 1.0 / (z - z0)
    z0_coeffs = z0.real if z0.imag == 0.0 else z0  # real z0: real coefficients, same bits
    terms_a = _buhring_terms(a, z0_coeffs, params, u)
    terms_b = _buhring_terms(b, z0_coeffs, params, u)
    inflation = max(1.0, 1.0 / abs(math.sin(math.pi * diff)))
    return sum_series(stops, tol, (fac_a, terms_a), (fac_b, terms_b), stop=stop, inflation=inflation)
