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
from itertools import accumulate, count
from operator import mul
from typing import Iterator

from .core import DEFAULT_TOL, EPS, HypParams, gamma_real, require_finite_complex, require_tol, sum_series
from .errors import BranchCutError, DomainError, GaussHypError, OutsideDomain, RecurrenceBreakdown, shown
from .results import SeriesResult

#: Labels of the six classical series regions, in a fixed order.
REGION_LABELS = ("z", "1/z", "1-z", "1/(1-z)", "z/(1-z)", "(z-1)/z")


def maclaurin_margin(z: complex) -> float:
    """1 - |z|, positive inside the disk |z| < 1 where the power series converges."""
    return 1.0 - abs(z)


def maclaurin_refusal(z: complex) -> GaussHypError | None:
    """The error maclaurin raises at z, or None.  In order: a non-finite z (DomainError), |z| >= 1 (OutsideDomain)."""
    try:
        z = require_finite_complex(z)
    except DomainError as exc:
        return exc
    return None if maclaurin_margin(z) > 0.0 else OutsideDomain("|z| = %s >= 1: power series diverges", abs(z))


def maclaurin(params: HypParams, z: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Partial sums of the defining power series, |z| < 1 only, by core.sum_series with stop = tol: the pass
    ends at two successive terms below tol * |partial sum| (one small term is not trusted: terms with complex z
    can rotate through near-cancellation), or at index 1999.  A term or partial sum whose modulus overflows
    raises RecurrenceBreakdown, which names the term's index."""
    require_tol(tol)
    if refusal := maclaurin_refusal(z):
        raise refusal
    (a, b, c), z = params, complex(z)
    terms = accumulate(((a + n) * (b + n) * z / ((c + n) * (n + 1)) for n in count()), mul, initial=1.0 + 0j)
    (res,) = sum_series((1999,), tol, (1.0, terms), stop=tol)
    return res


#: Each side of u = 0 ends at its first term below this share of the running sum.
_TAIL = 1e-18

#: The node ladder maps a level's (first u, step) to its nodes at u <= LADDER_U so far, as a
#: tuple, and the u after them; it holds at most 256 * LADDER_U = 2048 nodes over the eight levels.
LADDER_U = 8.0
_LADDER: dict = {}


def _nodes(start: float, step: float) -> Iterator[tuple[float, float, float, float, float]]:
    """x, 1-x, log x, log(1-x) and log(pi cosh u) = log(dx/du / (x(1-x))) at u = start, start + step, ...

    u advances by u += step; the nodes at u <= LADDER_U are kept as walks first reach them.  No lock
    is taken: a level is replaced by one assignment of an immutable pair, and threads that race
    compute the same nodes.
    """
    kept, u = _LADDER.get((start, step), ((), start))
    yield from kept
    fresh = []
    try:
        while True:
            s = math.pi * math.sinh(u)  # 2s
            e = math.exp(-s)
            lx, x = -math.log1p(e), 1.0 / (1.0 + e)
            node = x, e * x, lx, lx - s, math.log(math.pi * math.cosh(u))
            if u <= LADDER_U:
                fresh.append(node)
                end = u + step
            u += step
            yield node
    finally:
        if fresh:
            _LADDER[start, step] = (kept + tuple(fresh), end)


def euler_margin(z: complex) -> float:
    """The distance from z to the branch cut [1, inf), positive where the integral representation holds."""
    return abs(z.imag) if z.real >= 1.0 else abs(z - 1.0)


def euler_refusal(params: HypParams, z: complex) -> GaussHypError | None:
    """The error euler_integral raises at (params, z), or None.  In order: not c > b > 0 (ParamDomainError),
    a non-finite z (DomainError), z on the cut [1, inf) (BranchCutError)."""
    if refusal := params.param_refusal("Euler integral needs"):
        return refusal
    try:
        z = require_finite_complex(z)
    except DomainError as exc:
        return exc
    return None if euler_margin(z) > 0.0 else BranchCutError("z = %s lies on the branch cut [1, inf)", z)


def euler_integral(params: HypParams, z: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
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
    require_tol(tol)
    if refusal := euler_refusal(params, z):
        raise refusal
    z = complex(z)
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
        for x, omx, lx, lomx, lj in _nodes(u, step):
            nodes += right + left
            if right:
                v = g(x, omx, lx, lomx, lj)
                total += v
                right = abs(v) > _TAIL * abs(total)
            if left:
                v = g(omx, x, lomx, lx, lj)
                total += v
                left = abs(v) > _TAIL * abs(total)
            if not (right or left):
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
    modulus is <= rho.  Requires 0 < rho < 1; a non-finite z raises DomainError.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0, 1), got {shown(rho)}")
    moduli = region_moduli(require_finite_complex(z))
    return {label for label in REGION_LABELS if moduli[label] <= rho}
