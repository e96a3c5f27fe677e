"""Reference baselines: Maclaurin series and the Euler integral oracle.

Two independent ground truths.  The Maclaurin series

    2F1(a, b, c; z) = sum_n (a)_n (b)_n / ((c)_n n!) z^n

converges inside the unit disk.  The integral representation

    2F1(a, b, c; z) = G(c)/(G(b) G(c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt

holds for c > b > 0 and z off the cut [1, inf).  euler_integral evaluates
it by the double-exponential (tanh-sinh) rule of Takahasi and Mori, in
pure Python, and is the reference against which every expansion's
relative error is measured.

classify_region reports which of the six classical series regions
(|z|, |1/z|, |1-z|, |1/(1-z)|, |z/(1-z)|, |(z-1)/z| each <= rho) contain
a point; their union misses neighborhoods of exp(+-i pi/3) for every
rho < 1.
"""

import cmath
import math

from .core import EPS, HypParams, gamma_real, require_finite_complex, tail_estimate
from .errors import BranchCutError, DomainError, OutsideDomain, RecurrenceBreakdown
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


#: Each side of u = 0 ends at its first term below this share of the running sum.
_TAIL = 1e-18


def euler_integral(params: HypParams, z: complex, tol: float = 1e-13) -> SeriesResult:
    """Tanh-sinh quadrature of the integral representation; requires c > b > 0.

    Each piece of [0, 1] maps to x = 1/(1 + exp(-2s)), s = (pi/2) sinh u.
    An integrand value, weight and kernel together, is one exp of a sum of
    logs, with log x and log(1-x) free of cancellation, so b < 1 or c-b < 1
    needs no special case.  A branch point 1/z near (0, 1) splits [0, 1] at
    t0 = Re(1/z), where the nodes cluster, and 1 - zt = z (t0 - t + i Im(1/z))
    is formed without cancellation.  The step in u halves from 1/2, reusing
    the earlier nodes, until two levels differ by at most tol, seven times at
    most; est_error is that relative difference, floored at EPS.  terms_used
    counts integrand evaluations.
    """
    params.require_euler_valid("Euler integral needs")
    z = require_finite_complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise BranchCutError(f"z = {z} lies on the branch cut [1, inf)")
    a, b, c = params.a, params.b, params.c
    beta = c - b
    # Per piece: the log of its constant factor, the exponents of x and 1-x, a
    # smooth factor (s0 (1-x) + s1 x)^sc and the kernel base 1 - zt = k0 (1-x) + k1 x.
    pieces = [(0.0, b, beta, 0.0, 1.0, 1.0, 1.0, 1.0 - z)]
    r = 1.0 / z if z else 0j
    t0, r0 = r.real, 1.0 - r.real
    if 0.0 < t0 < 1.0 and abs(r.imag) < min(t0, r0) / 2.0 + 0.25:
        zy = z * complex(0.0, r.imag)  # t = t0 x on [0, t0], 1 - t = r0 (1-x) on [t0, 1]
        pieces = [
            (b * math.log(t0), b, 1.0, beta - 1.0, 1.0, r0, z * t0 + zy, zy),
            (beta * math.log(r0), 1.0, beta, b - 1.0, t0, 1.0, zy, zy - z * r0),
        ]

    def g(x, omx, lx, lomx, lj):
        """The integrand times du at one node, summed over the pieces."""
        total = 0j
        for lc, p, q, sc, s0, s1, k0, k1 in pieces:
            lf = lc + p * lx + q * lomx + lj - a * cmath.log(k0 * omx + k1 * x)
            total += cmath.exp(lf + sc * math.log(s0 * omx + s1 * x) if sc else lf)
        return total

    def walk(u, step, total):
        """total plus g at the nodes +-u, +-(u + step), ..., and their number."""
        nodes, right, left = 0, True, True
        while right or left:
            nodes += right + left
            s = math.pi * math.sinh(u)  # 2s
            e = math.exp(-s)
            lx, x, lj = -math.log1p(e), 1.0 / (1.0 + e), math.log(math.pi * math.cosh(u))
            if right:
                v = g(x, e * x, lx, lx - s, lj)
                total += v
                right = abs(v) > _TAIL * abs(total)
            if left:
                v = g(e * x, x, lx - s, lx, lj)
                total += v
                left = abs(v) > _TAIL * abs(total)
            u += step
        return total, nodes

    h, est = 0.5, math.inf
    try:
        total, nodes = walk(h, h, g(0.5, 0.5, -math.log(2.0), -math.log(2.0), math.log(math.pi)))
        while est > tol and h > 0.5 / 2**7:
            previous = h * total
            h *= 0.5
            total, more = walk(h, 2.0 * h, total)
            nodes += more
            if total:
                est = max(abs(h * total - previous) / abs(h * total), EPS)
    except (OverflowError, ValueError):  # exp, sinh or cosh overflowed, or log met 0
        raise RecurrenceBreakdown(f"the Euler integrand at z = {z} is not finite") from None
    value = gamma_real(c) / (gamma_real(b) * gamma_real(beta)) * h * total
    evals = len(pieces) * (nodes + 1)  # the nodes either side of u = 0, and u = 0
    return SeriesResult(value=value, terms_used=evals, est_error=est, converged=est <= tol)


def classical_moduli(z: complex) -> tuple[float, ...]:
    """The six classical region moduli at z in REGION_LABELS order, with poles mapped to +inf."""
    az = abs(z)
    a1z = abs(1.0 - z)
    return (
        az,
        1.0 / az if az > 0 else math.inf,
        a1z,
        1.0 / a1z if a1z > 0 else math.inf,
        az / a1z if a1z > 0 else (0.0 if az == 0 else math.inf),
        a1z / az if az > 0 else math.inf,
    )


def region_moduli(z: complex) -> dict[str, float]:
    """The six classical region moduli at z, keyed by REGION_LABELS."""
    return dict(zip(REGION_LABELS, classical_moduli(complex(z))))


def classify_region(z: complex, rho: float) -> set[str]:
    """Which of the six classical series regions contain z at radius rho.

    Returns the (possibly empty) set of labels from REGION_LABELS whose
    modulus is <= rho.  Requires 0 < rho < 1.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0, 1), got {rho}")
    moduli = region_moduli(z)
    return {label for label in REGION_LABELS if moduli[label] <= rho}
