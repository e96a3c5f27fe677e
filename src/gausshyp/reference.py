"""Reference baselines: Maclaurin series and the Euler integral oracle.

Two independent ground truths.  The Maclaurin series

    2F1(a, b, c; z) = sum_n (a)_n (b)_n / ((c)_n n!) z^n

converges inside the unit disk.  The integral representation

    2F1(a, b, c; z) = G(c)/(G(b) G(c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt

holds for c > b > 0 and z off the cut [1, inf), and is evaluated by
adaptive quadrature; it is the reference against which every expansion's
relative error is measured.

classify_region reports which of the six classical series regions
(|z|, |1/z|, |1-z|, |1/(1-z)|, |z/(1-z)|, |(z-1)/z| each <= rho) contain
a point; their union misses neighborhoods of exp(+-i pi/3) for every
rho < 1.
"""

import math
import warnings

from .core import EPS, HypParams, cpow_principal, gamma_real, require_finite_complex, tail_estimate
from .errors import BranchCutError, DomainError, OutsideDomain
from .results import SeriesResult

#: Labels of the six classical series regions, in a fixed order.
REGION_LABELS = ("z", "1/z", "1-z", "1/(1-z)", "z/(1-z)", "(z-1)/z")


def maclaurin(
    params: HypParams,
    z: complex,
    tol: float = 1e-13,
    max_terms: int = 2000,
) -> SeriesResult:
    """Partial sums of the defining power series, |z| < 1 only.

    Summation stops once two successive terms fall below tol * |partial sum|
    (a single small term is not trusted: terms with complex z can rotate
    through near-cancellation), or after max_terms terms.
    """
    z = require_finite_complex(z)
    if abs(z) >= 1:
        raise OutsideDomain(f"|z| = {abs(z)} >= 1: power series diverges")
    a, b, c = params.a, params.b, params.c
    s = 0j
    term = 1.0 + 0j
    abs_sum = 0.0
    last = 0.0
    n = 0
    below = 0
    converged_stop = False
    while n < max_terms:
        s += term
        abs_sum += abs(term)
        last = abs(term)
        term *= (a + n) * (b + n) * z / ((c + n) * (n + 1))
        n += 1
        if last <= tol * abs(s):
            below += 1
            if below >= 2:
                converged_stop = True
                break
        else:
            below = 0
    est = tail_estimate(abs(s), abs_sum, last, n)
    return SeriesResult(
        value=s,
        terms_used=n,
        est_error=est,
        converged=converged_stop and est <= tol,
    )


def _quad_complex(f, lo: float, hi: float, tol: float):
    """Integrate a complex-valued function, returning (value, abs_err, neval, warned)."""
    # scipy.integrate takes most of a second to import and only the oracle
    # uses it, so it loads on the first call rather than with the package.
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        re_val, re_err, re_info = quad(
            lambda t: f(t).real, lo, hi, epsabs=1e-15, epsrel=tol, limit=200, full_output=1
        )[:3]
        im_val, im_err, im_info = quad(
            lambda t: f(t).imag, lo, hi, epsabs=1e-15, epsrel=tol, limit=200, full_output=1
        )[:3]
    warned = any(issubclass(w.category, IntegrationWarning) for w in caught)
    return complex(re_val, im_val), re_err + im_err, re_info["neval"] + im_info["neval"], warned


def euler_integral(params: HypParams, z: complex, tol: float = 1e-13) -> SeriesResult:
    """Adaptive quadrature of the integral representation; requires c > b > 0.

    The integrand has algebraic endpoint singularities when b < 1 (at t=0)
    or c-b < 1 (at t=1); the integral is split at t=1/2 and the singular
    half is regularized by the substitution s = t^b (mirrored s = (1-t)^(c-b)),
    which turns t^(b-1) dt into ds/b exactly.
    """
    params.require_euler_valid("Euler integral needs")
    z = require_finite_complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise BranchCutError(f"z = {z} lies on the branch cut [1, inf)")
    a, b, c = params.a, params.b, params.c
    beta = c - b

    def kernel(t: float) -> complex:
        return cpow_principal(1.0 - z * t, -a)

    def left_plain(t: float) -> complex:
        return t ** (b - 1.0) * (1.0 - t) ** (beta - 1.0) * kernel(t)

    def left_sub(s: float) -> complex:
        t = s ** (1.0 / b)
        return (1.0 - t) ** (beta - 1.0) * kernel(t) / b

    def right_plain(u: float) -> complex:
        t = 1.0 - u
        return u ** (beta - 1.0) * t ** (b - 1.0) * kernel(t)

    def right_sub(s: float) -> complex:
        u = s ** (1.0 / beta)
        t = 1.0 - u
        return t ** (b - 1.0) * kernel(t) / beta

    pieces = [
        (left_sub, 0.5**b) if b < 1 else (left_plain, 0.5),
        (right_sub, 0.5**beta) if beta < 1 else (right_plain, 0.5),
    ]
    total = 0j
    abs_err = 0.0
    neval = 0
    warned = False
    for f, hi in pieces:
        v, e, ne, w = _quad_complex(f, 0.0, hi, tol)
        total += v
        abs_err += e
        neval += ne
        warned = warned or w

    pref = gamma_real(c) / (gamma_real(b) * gamma_real(beta))
    value = pref * total
    denom = abs(value)
    est = math.inf if denom == 0.0 else max(pref * abs_err / denom, EPS)
    if warned:
        est = max(est, 10.0 * EPS)  # quadrature reported roundoff saturation
    return SeriesResult(value=value, terms_used=neval, est_error=est, converged=est <= tol)


def region_moduli(z: complex) -> dict[str, float]:
    """The six classical region moduli at z, with poles mapped to +inf."""
    z = complex(z)
    az = abs(z)
    a1z = abs(1.0 - z)
    return {
        "z": az,
        "1/z": 1.0 / az if az > 0 else math.inf,
        "1-z": a1z,
        "1/(1-z)": 1.0 / a1z if a1z > 0 else math.inf,
        "z/(1-z)": az / a1z if a1z > 0 else (0.0 if az == 0 else math.inf),
        "(z-1)/z": a1z / az if az > 0 else math.inf,
    }


def classify_region(z: complex, rho: float) -> set[str]:
    """Which of the six classical series regions contain z at radius rho.

    Returns the (possibly empty) set of labels from REGION_LABELS whose
    modulus is <= rho.  Requires 0 < rho < 1.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0, 1), got {rho}")
    moduli = region_moduli(z)
    return {label for label in REGION_LABELS if moduli[label] <= rho}
