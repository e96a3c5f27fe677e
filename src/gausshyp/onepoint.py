"""Single-point rational expansions of 2F1 from the Taylor series of (1-zt)^(-a).

Expanding the integrand factor f(t) = (1-zt)^(-a) at a point w (w = 1/2
being the symmetric choice) and integrating termwise gives

    2F1(a, b, c; z) = (1-wz)^(-a) sum_n (a)_n/n! (wz/(wz-1))^n Phi_n(b, c, w),

with moments Phi_n(b, c, w) = 2F1(-n, b, c; 1/w), a terminating series.
The expansion converges on S = { z : |1 - wz| > |z| max(|w|, |1-w|) }:
the half-plane Re z < 1 for w = 1/2, and in general a half-plane or disk
depending on Re w.  The moments satisfy the three-term recurrence

    (c+n) Phi_{n+1} + ((b+n)/w - 2n - c) Phi_n + n (1 - 1/w) Phi_{n-1} = 0

from Phi_0 = 1, Phi_1 = 1 - b/(cw), which at w = 1/2 reduces to
(c+n) Phi_{n+1} + (2b-c) Phi_n - n Phi_{n-1} = 0 with Phi_1 = 1 - 2b/c.
The terminating sum itself is the verification route (gausshyp.verify.phi_brute).
"""

from itertools import count, islice
from typing import Iterator

from .core import HypParams, cpow_principal, require_finite_complex, require_n_max, sum_series
from .errors import DomainError, OutsideDomain, PoleError
from .results import RegionVerdict, SeriesResult

#: Default truncation index; forward recurrence accuracy is verified up to here.
DEFAULT_TERMS = 40


def _phi_half_stream(b: float, c: float) -> Iterator[float]:
    """Phi_0, Phi_1, ... at w = 1/2 by forward recurrence (real arithmetic)."""
    if c == 0.0:
        raise PoleError("c = 0 is a pole of Phi_1")
    prev = 1.0
    yield prev
    cur = 1.0 - 2.0 * b / c
    yield cur
    two_b_c = 2.0 * b - c
    for n in count(1):
        if c + n == 0.0:
            raise PoleError(f"c + {n} = 0: recurrence pole")
        prev, cur = cur, (n * prev - two_b_c * cur) / (c + n)
        yield cur


def phi_half_sequence(n_max: int, b: float, c: float) -> list[float]:
    """Phi_0 .. Phi_{n_max} at w = 1/2."""
    require_n_max(n_max)
    return list(islice(_phi_half_stream(b, c), n_max + 1))


def require_expansion_point(w: complex) -> complex:
    """Reject a non-finite w, and w = 0, where no one-point expansion exists."""
    w = require_finite_complex(w, "w")
    if w == 0:
        raise DomainError("expansion point w must be nonzero")
    return w


def _phi_w_stream(b: float, c: float, w: complex) -> Iterator[complex]:
    """Phi_0, Phi_1, ... at generic w by forward recurrence."""
    w = require_expansion_point(w)
    if c == 0.0:
        raise PoleError("c = 0 is a pole of Phi_1")
    prev = 1.0 + 0j
    yield prev
    cur = 1.0 - b / (c * w)
    yield cur
    one_w = 1.0 - 1.0 / w
    for n in count(1):
        if c + n == 0.0:
            raise PoleError(f"c + {n} = 0: recurrence pole")
        prev, cur = cur, -(((b + n) / w - 2.0 * n - c) * cur + n * one_w * prev) / (c + n)
        yield cur


def phi_w_sequence(n_max: int, b: float, c: float, w: complex) -> list[complex]:
    """Phi_0 .. Phi_{n_max} at generic w."""
    require_n_max(n_max)
    return list(islice(_phi_w_stream(b, c, w), n_max + 1))


def onepoint_margin(z: complex, w: complex) -> float:
    """|1-wz| - |z| max(|w|, |1-w|), positive inside the w expansion region S.

    The derived geometric description (half-plane 2 Re(wz) < 1 for
    Re w >= 1/2, a disk otherwise) is equivalent; the single inequality
    avoids the case split.
    """
    return abs(1.0 - w * z) - abs(z) * max(abs(w), abs(1.0 - w))


def in_region_onepoint(z: complex, w: complex = 0.5) -> RegionVerdict:
    """Membership in S via |1-wz| > |z| max(|w|, |1-w|); margin is onepoint_margin."""
    m = onepoint_margin(complex(z), complex(w))
    return RegionVerdict(m > 0.0, m)


def _onepoint_terms(params: HypParams, z: complex, w: complex) -> Iterator[complex]:
    """Term n of the one-point sum, before the prefactor (1-wz)^(-a)."""
    if w == 0.5:
        phis = _phi_half_stream(params.b, params.c)
    else:
        phis = _phi_w_stream(params.b, params.c, w)
    a = params.a
    ratio = w * z / (w * z - 1.0)
    term = 1.0 + 0j
    for n, phi in enumerate(phis):
        yield term * phi
        term *= (a + n) / (n + 1.0) * ratio


def onepoint_sums(
    params: HypParams, z: complex, stops: tuple[int, ...], w: complex = 0.5, tol: float = 1e-12
) -> Iterator[SeriesResult]:
    """The single-point expansion truncated at each index in stops, from one pass.

    w = 1/2 takes the real-arithmetic moment recurrence, which agrees with
    the generic complex one to rounding.
    """
    z = require_finite_complex(z)
    w = require_expansion_point(w)
    params.require_euler_valid("expansion derived under")
    verdict = in_region_onepoint(z, w)
    if not verdict.inside:
        raise OutsideDomain(f"z = {z} outside the w = {w} expansion region (margin {verdict.margin})")

    prefactor = cpow_principal(1.0 - w * z, -params.a)
    for value, n, est, converged in sum_series(stops, tol, (1.0, _onepoint_terms(params, z, w))):
        yield SeriesResult(prefactor * value, n, est, converged)


def eval_onepoint(
    params: HypParams, z: complex, w: complex = 0.5, n_terms: int = DEFAULT_TERMS, tol: float = 1e-12
) -> SeriesResult:
    """Truncated single-point expansion, indices 0 .. n_terms inclusive."""
    (res,) = onepoint_sums(params, z, (n_terms,), w, tol)
    return res
