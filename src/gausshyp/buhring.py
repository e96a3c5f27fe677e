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
series cancel; that case needs a limiting form which this module does not
implement, so it raises IntegerDifferenceError instead.  Near-integer
b - a is allowed, but the reported error estimate is inflated by
1/|sin(pi (b-a))| to account for the cancellation between the two series.
"""

import math
from itertools import count, islice
from typing import Iterator

from .core import (
    HypParams,
    cpow_principal,
    gamma_real,
    recip_gamma_real,
    require_finite_complex,
    require_n_max,
    sum_series,
)
from .errors import BranchCutError, DomainError, GaussHypError, IntegerDifferenceError, OutsideDomain
from .results import SeriesResult

#: |b - a - round(b - a)| below this is treated as an exact integer difference.
INTEGER_DIFF_TOL = 1e-8

#: Default expansion point; the exclusion disk |z - 1/2| <= 1/2 then leaves
#: exp(+-i pi/3) inside the domain of convergence.
DEFAULT_Z0 = 0.5


def _d_stream(s: float, z0: complex, params: HypParams) -> Iterator[complex]:
    """d_0(s, z0), d_1(s, z0), ... by forward recurrence from d_{-1} = 0, d_0 = 1."""
    a, b, c = params.a, params.b, params.c
    z0 = complex(z0)
    s2 = 2.0 * s
    z0_one_z0 = z0 * (1.0 - z0)
    one_2z0 = 1.0 - 2.0 * z0
    abz0 = (a + b + 1.0) * z0
    d_prev = 1.0 + 0j
    d_prev2 = 0j
    yield d_prev
    for n in count(1):
        den = n * (n + s2 - a - b)
        if den == 0.0:
            raise IntegerDifferenceError(
                f"recurrence denominator vanishes at n={n} for s={s} (b-a integer)"
            )
        ns = n + s
        d_prev2, d_prev = d_prev, (ns - 1.0) / den * (
            z0_one_z0 * (ns - 2.0) * d_prev2 + (ns * one_2z0 + abz0 - c) * d_prev
        )
        yield d_prev


def buhring_coeffs(s: float, z0: complex, params: HypParams, n_max: int) -> list[complex]:
    """The coefficient stream d_0 .. d_{n_max} for expansion parameter s."""
    require_n_max(n_max)
    return list(islice(_d_stream(s, z0, params), n_max + 1))


def _buhring_terms(s: float, z0: complex, params: HypParams, u: complex) -> Iterator[complex]:
    """Term n of the continuation series for s: d_n(s, z0) u^n."""
    upow = 1.0 + 0j
    for d in _d_stream(s, z0, params):
        yield d * upow
        upow *= u


def is_integer_difference(params: HypParams) -> bool:
    """True when b - a is within INTEGER_DIFF_TOL of an integer."""
    diff = params.b - params.a
    return abs(diff - round(diff)) < INTEGER_DIFF_TOL


def exclusion_radius(z0: complex) -> float:
    """Radius max(|z0|, |z0 - 1|) of the disk around z0 where the continuation diverges."""
    return max(abs(z0), abs(z0 - 1.0))


def exclusion_margin(z: complex, z0: complex) -> float:
    """|z - z0| minus the exclusion radius; positive where the continuation converges."""
    return abs(z - z0) - exclusion_radius(z0)


def buhring_refusal(params: HypParams, z: complex, z0: complex = DEFAULT_Z0) -> GaussHypError | None:
    """The error buhring_sums raises at (params, z, z0), or None where the continuation applies.

    In order: integer b - a (IntegerDifferenceError), a non-finite z or z0
    (DomainError), z not outside the excluded disk (OutsideDomain), and z
    on the cut ph(z0 - z) = pi (BranchCutError).
    """
    if is_integer_difference(params):
        return IntegerDifferenceError(
            f"b - a = {params.b - params.a} is an integer (within {INTEGER_DIFF_TOL}); "
            "the continuation coefficients are indeterminate"
        )
    try:
        z = require_finite_complex(z)
        z0 = require_finite_complex(z0, "z0")
    except DomainError as exc:
        return exc
    if not exclusion_margin(z, z0) > 0.0:
        return OutsideDomain(
            f"|z - z0| = {abs(z - z0)} <= {exclusion_radius(z0)}: inside the excluded disk around z0"
        )
    w = z0 - z
    if w.imag == 0.0 and w.real < 0.0:
        return BranchCutError(f"ph(z0 - z) = pi at z = {z}: on the continuation branch cut")
    return None


def buhring_sums(
    params: HypParams, z: complex, stops: tuple[int, ...], z0: complex = DEFAULT_Z0, tol: float = 1e-12
) -> Iterator[SeriesResult]:
    """Both continuation series truncated at each index in stops, from one pass.

    Raises the error of buhring_refusal where the continuation does not
    apply.  est_error is the last-term ratio of the combined value, with the two
    series' term sizes weighted by their prefactors and added (core.sum_series),
    floored at the rounding level and multiplied by the near-integer inflation factor.
    """
    refusal = buhring_refusal(params, z, z0)
    if refusal is not None:
        raise refusal
    a, b, c = params.a, params.b, params.c
    diff = b - a
    z, z0 = complex(z), complex(z0)
    w = z0 - z

    pref_a = gamma_real(c) * gamma_real(diff) * recip_gamma_real(b) * recip_gamma_real(c - a)
    pref_b = gamma_real(c) * gamma_real(-diff) * recip_gamma_real(a) * recip_gamma_real(c - b)
    fac_a = pref_a * cpow_principal(w, -a)
    fac_b = pref_b * cpow_principal(w, -b)

    u = 1.0 / (z - z0)
    terms_a = _buhring_terms(a, z0, params, u)
    terms_b = _buhring_terms(b, z0, params, u)
    inflation = max(1.0, 1.0 / abs(math.sin(math.pi * diff)))
    for value, n, est, _ in sum_series(stops, tol, (fac_a, terms_a), (fac_b, terms_b)):
        yield SeriesResult(value, n, est * inflation, est * inflation <= tol)


def buhring_eval(
    params: HypParams, z: complex, z0: complex = DEFAULT_Z0, n_terms: int = 20, tol: float = 1e-12
) -> SeriesResult:
    """Sum both continuation series with indices 0 .. n_terms inclusive; terms_used is n_terms."""
    (res,) = buhring_sums(params, z, (n_terms,), z0, tol)
    return res
