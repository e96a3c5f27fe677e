"""The limit of the 1/z connection formula where b - a is an integer: a logarithmic series in 1/z (DLMF 15.8.8).

For b - a = m >= 0 (a and b swapped first where b < a), |z| > 1 and z off the cut [1, inf):

    2F1(a, a+m; c; z) = G(c) (-z)^(-a) { sum_{k<m} (a)_k (m-k-1)! / (k! G(a+m) G(c-a-k)) z^(-k)
        + sum_k (a+m)_k (-1)^k / (k! (k+m)! G(a) G(c-a-m-k)) z^(-k-m)
          [ln(-z) + psi(1+m+k) + psi(1+k) - psi(a+m+k) - psi(c-a-m-k)] },

one stream in powers of 1/z.  Each psi steps by a reciprocal; with x = c-a-m-k, 1/G(x) steps by (x-1) times
itself and psi(x)/G(x) by (x-1) times itself less 1/G(x), through the poles of both.
"""

import cmath
import math
from typing import Iterator

from .core import EPS, HypParams, cpow_principal, digamma, gamma_real, recip_gamma_real, require_finite_complex
from .core import sum_series
from .errors import BranchCutError, DomainError, GaussHypError, OutsideDomain, ParamDomainError, PoleError
from .reference import classical_moduli
from .results import SeriesResult

#: The route sums b - a within this of an integer m as m, charging the offset to est_error: past it, that
#: charge alone (41 offsets at the default 40 terms) is above SERIES_TOL_FLOOR.
INTEGER_BAND = 1e-14


def connection_margin(z: complex) -> float:
    """1 - |1/z|, positive where the series in 1/z converges."""
    return 1.0 - classical_moduli(z)[1]


def connection_refusal(params: HypParams, z: complex) -> GaussHypError | None:
    """The error the 1/z route's Route.sums raises at (params, z), or None.  In order: b - a not within
    INTEGER_BAND of an integer m (ParamDomainError), a non-finite z (DomainError), min(a, b) or c - min(a, b) - |m|
    a non-positive integer (PoleError), |z| <= 1 (OutsideDomain) and z on the cut [1, inf) (BranchCutError)."""
    a, b, c = params
    if not (math.isfinite(b - a) and abs(b - a - (m := round(b - a))) <= INTEGER_BAND):
        return ParamDomainError("b - a = %s is not within %s of an integer", b - a, INTEGER_BAND)
    try:
        z = require_finite_complex(z)
    except DomainError as exc:
        return exc
    for name, x in (("min(a, b)", min(a, b)), ("c - min(a, b) - |b - a|", c - min(a, b) - abs(m))):
        if x <= 0.0 and x == round(x):  # formed as _connection_terms forms it
            return PoleError("%s = %s: a gamma pole meets a digamma pole", name, x)
    if not (margin := connection_margin(z)) > 0.0:
        return OutsideDomain("z = %s outside |z| > 1 (margin %s)", z, margin)
    return BranchCutError("z = %s lies on the branch cut [1, inf)", z) if z.imag == 0.0 and z.real >= 1.0 else None


def _connection_terms(a: float, m: int, c: float, z: complex) -> Iterator[complex]:
    """Term j of the stream in powers of u = 1/z: the finite sum for j < m, then the logarithmic series."""
    u, inv_g = 1.0 / z, recip_gamma_real(c - a)  # inv_g = 1/G(c - a - k)
    coef = recip_gamma_real(a + m) * gamma_real(m) if m else 0.0  # (a)_k (m-k-1)! / (k! G(a+m)) u^k
    for k in range(m):
        yield coef * inv_g
        coef *= (a + k) * u / ((k + 1.0) * (m - k - 1.0)) if k < m - 1 else 0.0
        inv_g *= c - a - 1.0 - k
    x = c - a - m
    inv_g = recip_gamma_real(x)  # at the x digamma reads, not the x stepped to: near a pole they must agree
    psi_g, k = digamma(x) * inv_g, 0.0
    bracket = cmath.log(-z) + digamma(1.0 + m) + digamma(1.0) - digamma(a + m)
    coef = recip_gamma_real(a) * recip_gamma_real(m + 1.0) * u**m  # (a+m)_k (-u)^k / (k! (k+m)! G(a)) u^m
    while True:
        yield coef * (bracket * inv_g - psi_g)
        coef *= -(a + m + k) * u / ((k + 1.0) * (k + m + 1.0))
        bracket += 1.0 / (1.0 + m + k) + 1.0 / (1.0 + k) - 1.0 / (a + m + k)
        psi_g, inv_g = (x - 1.0) * psi_g - inv_g, (x - 1.0) * inv_g
        x, k = x - 1.0, k + 1.0


def _connection_sums(params: HypParams, z: complex, stops: tuple, tol: float, _w, _z0,
                     stop: float = 0.0) -> Iterator[SeriesResult]:
    """The 1/z series at each index in stops, from one pass past connection_refusal; w and z0 unused.  est_error
    is core.sum_series' estimate times 1 + |b - a - m| / EPS: the offset times the rounding floor's n + cond."""
    (a, b), c, z = sorted(params[:2]), params.c, complex(z)
    m = round(b - a)
    weight = gamma_real(c) * cpow_principal(-z, -a)
    terms = _connection_terms(a, m, c, z)
    return sum_series(stops, tol, (weight, terms), stop=stop, inflation=1.0 + abs(b - a - m) / EPS)
