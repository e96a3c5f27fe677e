"""Scalar numerics shared by every evaluation route.

Principal-branch complex powers, rising factorials, real-argument gamma,
the (a, b, c) parameter triple with its validity checks, and sum_series,
the one loop that sums every series route with its error estimate.
Parameters are restricted to real values; complex parameters are out of
scope.
"""

import cmath
import math
from collections import namedtuple
from itertools import islice
from typing import Iterator

from .errors import DomainError, ParamDomainError, PoleError, RecurrenceBreakdown
from .results import SeriesResult

#: Unit roundoff of IEEE double precision.
EPS = 2.220446049250313e-16

#: Tolerance for "is this float an integer" checks on parameters.
_INT_TOL = 1e-12


def require_finite_complex(z: complex, name: str = "z") -> complex:
    """Reject NaN/Inf components up front; comparisons with NaN are unordered
    and would otherwise slip past domain gates."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must have finite components, got {z}")
    return z


def is_count(n: object) -> bool:
    """True for what islice and range accept as a count (has __index__), except a bool."""
    return not isinstance(n, bool) and hasattr(n, "__index__")


def require_n_max(n_max: int) -> None:
    """Reject a negative last index of a coefficient or moment stream."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")


def require_finite_sum(total_abs: float, n_summed: int) -> None:
    """Raise RecurrenceBreakdown for a series sum whose modulus is not finite.

    At large n_summed, coefficients that overflowed to inf times moments
    that underflowed to 0 give NaN.
    """
    if not math.isfinite(total_abs):
        raise RecurrenceBreakdown(
            f"series sum is {total_abs} after {n_summed} terms: a term overflowed double precision"
        )


def tail_estimate(total_abs: float, abs_sum: float, last: float, n_summed: int) -> float:
    """Relative error estimate of a truncated series with |sum| = total_abs.

    The last-term ratio last/total_abs, floored at the rounding level
    EPS * (cond + n_summed) of n_summed additions whose condition number
    is cond = abs_sum/total_abs.  A zero sum gives inf.  A sum that is not
    finite raises RecurrenceBreakdown (require_finite_sum).
    """
    require_finite_sum(total_abs, n_summed)
    if total_abs == 0.0:
        return math.inf
    cond = abs_sum / total_abs
    return max(last / total_abs, EPS * (cond + n_summed))


def sum_series(
    stops: tuple[int, ...], tol: float, *series: tuple[complex, Iterator[complex]]
) -> Iterator[SeriesResult]:
    """Yield the sum of terms 0 .. n of each (weight, terms) series for each n in the ascending stops.

    The running sums of one left-to-right pass give each result, bit for bit
    that of stops = (n,).  The value is the sum of weight * (partial sum)
    over the series, in the order given.  est_error is tail_estimate of that
    value, with the sizes |weight| |term| of all series added into one
    abs_sum and one last term; converged is est_error <= tol.  A partial sum
    that is not finite raises RecurrenceBreakdown.  Every series route sums
    here; a one-stop caller unpacks (res,) = ..., which ends the generator.
    """
    running = [(0j, 0.0, 0.0)] * len(series)  # per series: partial sum, sum of sizes, last size
    start = 0
    for n in stops:
        if n < start:
            raise ValueError(f"stops must be ascending non-negative integers, got {stops}")
        value = complex(-0.0, -0.0)  # not 0j: -0.0 + x is x for every x, and 0.0 + -0.0 is 0.0
        abs_sum = last = 0.0
        for i, (weight, terms) in enumerate(series):
            s, part_sum, size = running[i]
            for term in islice(terms, n + 1 - start):
                s += term
                size = abs(term)
                part_sum += size
            require_finite_sum(abs(s), n + 1)
            running[i] = s, part_sum, size
            value += weight * s
            abs_sum += abs(weight) * part_sum
            last += abs(weight) * size
        start = n + 1
        est = tail_estimate(abs(value), abs_sum, last, n + 1)
        yield SeriesResult(value, n, est, est <= tol)


def cpow_principal(base: complex, exponent: float) -> complex:
    """Principal-branch power base**exponent = exp(exponent * Log base).

    Log is the principal logarithm with phase in (-pi, pi]; points on the
    negative real axis take the +pi side of the cut, so an imaginary part
    of -0.0 is collapsed to +0.0 before taking the logarithm.

    Raises DomainError for a zero base with non-positive exponent.
    """
    b = complex(base)
    if b.imag == 0.0:
        b = complex(b.real, 0.0)
    if b == 0:
        if exponent <= 0:
            raise DomainError("zero base with non-positive exponent")
        return 0j
    return cmath.exp(exponent * cmath.log(b))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be non-negative")
    p = 1.0
    for k in range(n):
        p *= x + k
    return p


def gamma_real(x: float) -> float:
    """Euler gamma for real argument.

    Delegates to math.gamma (a Lanczos-type rational approximation with
    reflection for small arguments, accurate to ~1 ulp), adding an explicit
    pole check so non-positive integer arguments raise PoleError.
    """
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at {x}")
    try:
        return math.gamma(x)
    except ValueError as exc:  # pragma: no cover - guarded above
        raise PoleError(f"gamma pole at {x}") from exc


def recip_gamma_real(x: float) -> float:
    """1 / gamma(x), which is entire: returns 0.0 at the poles of gamma."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


class HypParams(namedtuple("HypParams", "a b c")):
    """Real parameter triple (a, b, c) of 2F1(a, b, c; z).

    c must not be zero or a negative integer: (c)_n appears in series
    denominators.  euler_valid flags the constraint c > b > 0 required by
    the integral representation.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, a: float, b: float, c: float) -> "HypParams":
        self = tuple.__new__(cls, (a, b, c))
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParamDomainError(f"parameter {name} must be finite, got {v}")
        if self.c <= 0.5 and abs(self.c - round(self.c)) < _INT_TOL and round(self.c) <= 0:
            raise ParamDomainError(
                f"c = {self.c} is zero or a negative integer (pole of every series denominator)"
            )
        return self

    @property
    def euler_valid(self) -> bool:
        """True when c > b > 0, the validity condition of the Euler integral."""
        return self.c > self.b > 0

    def require_euler_valid(self, needs: str) -> None:
        """Raise ParamDomainError unless c > b > 0.

        needs opens the message and names the route, e.g. "Euler integral needs".
        """
        if not self.euler_valid:
            raise ParamDomainError(f"{needs} c > b > 0, got b={self.b}, c={self.c}")
