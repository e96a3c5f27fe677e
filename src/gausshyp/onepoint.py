"""Single-point rational expansions of 2F1 from the Taylor series of (1-zt)^(-a).

Expanding the integrand factor f(t) = (1-zt)^(-a) at a point w (w = 1/2
being the symmetric choice) and integrating termwise gives

    2F1(a, b, c; z) = (1-wz)^(-a) sum_n (a)_n/n! (wz/(wz-1))^n Phi_n(b, c, w),

with moments Phi_n(b, c, w) = 2F1(-n, b, c; 1/w), a terminating series.
The expansion converges on S = { z : |1 - wz| > |z| max(|w|, |1-w|) }:
the half-plane Re z < 1 for w = 1/2, and in general a half-plane or disk
depending on Re w.  The moments satisfy the three-term recurrence

    (c+n) Phi_{n+1} = n q Phi_{n-1} - (beta + n v) Phi_n,
    beta = b/w - c,  v = 1/w - 2,  q = 1/w - 1,

from Phi_0 = 1, Phi_1 = 1 - (b/w)/c.  One stream runs it for every w, in
the arithmetic of w: real at a real w, where w = 1/2 gives v = 0, q = 1.
The terminating sum itself is the verification route (gausshyp.verify.phi_brute).
"""

import math
from itertools import count
from typing import Iterator

from .core import HypParams, cpow_principal, expansion_refusal, require_finite_complex, stream_prefix, sum_series
from .errors import ConfigError, DomainError, GaussHypError, PoleError
from .results import SeriesResult


def require_w(w: complex | None) -> complex:
    """w itself; onepoint-w has no default point, so a missing w (None) raises ConfigError."""
    if w is None:
        raise ConfigError("method onepoint-w needs the expansion point w")
    return w


def require_expansion_point(w: complex) -> complex:
    """Reject a non-finite w, and w = 0, where no one-point expansion exists."""
    w = require_finite_complex(w, "w")
    if w == 0:
        raise DomainError("expansion point w must be nonzero")
    return w


def _phi_w_stream(b: float, c: float, w: complex | float) -> Iterator[complex | float]:
    """Phi_0, Phi_1, ... by forward recurrence, in the type of w."""
    require_expansion_point(w)
    if c == 0.0:
        raise PoleError("c = 0 is a pole of Phi_1")
    b_w = b / w
    prev = 1.0 + 0j if isinstance(w, complex) else 1.0
    yield prev
    cur = 1.0 - b_w / c
    yield cur
    beta, v, q = b_w - c, 1.0 / w - 2.0, 1.0 / w - 1.0
    for n in count(1.0):
        if c + n == 0.0:
            raise PoleError(f"c + {int(n)} = 0: recurrence pole")
        prev, cur = cur, (n * q * prev - (beta + n * v) * cur) / (c + n)
        yield cur


def phi_half_sequence(n_max: int, b: float, c: float) -> list[float]:
    """Phi_0 .. Phi_{n_max} at w = 1/2, in real arithmetic."""
    return stream_prefix(_phi_w_stream(b, c, 0.5), n_max)


def phi_w_sequence(n_max: int, b: float, c: float, w: complex) -> list[complex]:
    """Phi_0 .. Phi_{n_max} at generic w, in complex arithmetic."""
    return stream_prefix(_phi_w_stream(b, c, complex(w)), n_max)


def onepoint_margin(z: complex, w: complex) -> float:
    """|1-wz| - |z| max(|w|, |1-w|), positive inside the w expansion region S.

    The derived geometric description (half-plane 2 Re(wz) < 1 for
    Re w >= 1/2, a disk otherwise) is equivalent; the single inequality
    avoids the case split.  It is -inf where |wz| or both sides overflow.
    """
    try:
        m = abs(1.0 - w * z) - abs(z) * max(abs(w), abs(1.0 - w))
    except OverflowError:
        return -math.inf
    return m if m == m else -math.inf  # m != m: NaN from inf - inf


def in_region_onepoint(z: complex, w: complex = 0.5) -> tuple[bool, float]:
    """(margin > 0.0, margin) of onepoint_margin: membership in S via |1-wz| > |z| max(|w|, |1-w|)."""
    m = onepoint_margin(complex(z), complex(w))
    return m > 0.0, m


def onepoint_refusal(params: HypParams, z: complex, w: complex | None) -> GaussHypError | None:
    """The error a one-point Route.sums raises at (params, z, w), or None.  In order: no w (ConfigError), non-finite z,
    a non-finite or zero w (DomainError), not c > b > 0 (ParamDomainError), a margin <= 0 (OutsideDomain)."""
    try:
        w = require_w(w)
        z = require_finite_complex(z)
        w = require_expansion_point(w)
    except (ConfigError, DomainError) as exc:
        return exc
    region = "the w = %s expansion region"  # formatted only when the refusal is shown
    return expansion_refusal(params, z, lambda z: onepoint_margin(z, w), region, region_args=(w,))


def _onepoint_terms(params: HypParams, z: complex, w: complex) -> Iterator[complex]:
    """Term n of the one-point sum; the prefactor (1-wz)^(-a) is _onepoint_sums' sum_series weight."""
    phis = _phi_w_stream(params.b, params.c, w.real if w.imag == 0.0 else w)
    a = params.a
    ratio = w * z / (w * z - 1.0)
    term = 1.0 + 0j
    for n, phi in zip(count(0.0), phis):
        yield term * phi
        term *= (a + n) / (n + 1.0) * ratio


def _onepoint_sums(params: HypParams, z: complex, stops: tuple, tol: float, w: complex, *_) -> Iterator[SeriesResult]:
    """The single-point expansion at each index in stops, from one pass past onepoint_refusal; z0 unused.

    The prefactor (1-wz)^(-a) is the core.sum_series weight, so the finite check and est_error cover the weighted value.
    """
    z, w = complex(z), complex(w)
    prefactor = cpow_principal(1.0 - w * z, -params.a)
    return sum_series(stops, tol, (prefactor, _onepoint_terms(params, z, w)))
