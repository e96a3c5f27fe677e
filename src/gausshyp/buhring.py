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
from dataclasses import dataclass

from .core import (
    HypParams,
    cpow_principal,
    gamma_real,
    recip_gamma_real,
    require_finite_complex,
    require_n_max,
    tail_estimate,
)
from .errors import BranchCutError, IntegerDifferenceError, OutsideDomain
from .results import SeriesResult

#: |b - a - round(b - a)| below this is treated as an exact integer difference.
INTEGER_DIFF_TOL = 1e-8

#: Default expansion point; the exclusion disk |z - 1/2| <= 1/2 then leaves
#: exp(+-i pi/3) inside the domain of convergence.
DEFAULT_Z0 = 0.5


@dataclass(frozen=True)
class BuhringCoeffs:
    """Coefficient stream d_0, d_1, ... for one of the two series (s = a or s = b)."""

    s: float
    z0: complex
    d: tuple[complex, ...]


def _d_sequence(s: float, z0: complex, params: HypParams, n_max: int) -> list[complex]:
    require_n_max(n_max)
    a, b, c = params.a, params.b, params.c
    z0 = complex(z0)
    s2 = 2.0 * s
    z0_one_z0 = z0 * (1.0 - z0)
    one_2z0 = 1.0 - 2.0 * z0
    abz0 = (a + b + 1.0) * z0
    d_prev = 1.0 + 0j
    d = [d_prev]
    d_prev2 = 0j
    for n in range(1, n_max + 1):
        den = n * (n + s2 - a - b)
        if den == 0.0:
            raise IntegerDifferenceError(
                f"recurrence denominator vanishes at n={n} for s={s} (b-a integer)"
            )
        ns = n + s
        d_prev2, d_prev = d_prev, (ns - 1.0) / den * (
            z0_one_z0 * (ns - 2.0) * d_prev2 + (ns * one_2z0 + abz0 - c) * d_prev
        )
        d.append(d_prev)
    return d


def d_coeff(s: float, z0: complex, params: HypParams, n: int) -> complex:
    """d_n(s, z0) by forward recurrence from d_{-1} = 0, d_0 = 1."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    return _d_sequence(s, z0, params, n)[n]


def buhring_coeffs(s: float, z0: complex, params: HypParams, n_max: int) -> BuhringCoeffs:
    """The full coefficient stream d_0 .. d_{n_max} for expansion parameter s."""
    return BuhringCoeffs(s=s, z0=complex(z0), d=tuple(_d_sequence(s, z0, params, n_max)))


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


def buhring_eval(
    params: HypParams,
    z: complex,
    z0: complex = DEFAULT_Z0,
    n_terms: int = 20,
    tol: float = 1e-12,
) -> SeriesResult:
    """Sum both continuation series with indices 0 .. n_terms inclusive.

    terms_used reports the truncation index n_terms.  est_error is the
    last-term ratio of the combined series, floored at the rounding level
    and multiplied by the near-integer inflation factor.
    """
    a, b, c = params.a, params.b, params.c
    diff = b - a
    if is_integer_difference(params):
        raise IntegerDifferenceError(
            f"b - a = {diff} is an integer (within {INTEGER_DIFF_TOL}); "
            "the continuation coefficients are indeterminate"
        )
    z = require_finite_complex(z)
    z0 = require_finite_complex(z0, "z0")
    if exclusion_margin(z, z0) <= 0.0:
        raise OutsideDomain(
            f"|z - z0| = {abs(z - z0)} <= {exclusion_radius(z0)}: inside the excluded disk around z0"
        )
    w = z0 - z
    if w.imag == 0.0 and w.real < 0.0:
        raise BranchCutError(f"ph(z0 - z) = pi at z = {z}: on the continuation branch cut")

    pref_a = gamma_real(c) * gamma_real(diff) * recip_gamma_real(b) * recip_gamma_real(c - a)
    pref_b = gamma_real(c) * gamma_real(-diff) * recip_gamma_real(a) * recip_gamma_real(c - b)
    fac_a = pref_a * cpow_principal(w, -a)
    fac_b = pref_b * cpow_principal(w, -b)

    da = _d_sequence(a, z0, params, n_terms)
    db = _d_sequence(b, z0, params, n_terms)
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
    est = tail_estimate(abs(value), abs_sum, last, n_terms + 1) * max(1.0, inflation)
    return SeriesResult(value=value, terms_used=n_terms, est_error=est, converged=est <= tol)
