"""Scalar numerics shared by every evaluation route.

Principal-branch complex powers, rising factorials, real-argument gamma,
the real (a, b, c) parameter triple with its validity checks, sum_series
(the one loop that sums every series route, with its error estimate),
stream_prefix (every collector's read of a stream) and expansion_refusal
(the rational expansions' one gate).  Complex parameters are out of scope.
"""

import cmath
import math
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterator

from .errors import ConfigError, DomainError, GaussHypError, OutsideDomain, ParamDomainError, PoleError
from .errors import RecurrenceBreakdown, SingularityError, shown
from .results import SeriesResult

#: Unit roundoff of IEEE double precision.
EPS = 2.220446049250313e-16

#: Tolerance for "is this float an integer" checks on parameters.
_INT_TOL = 1e-12

#: The evaluation defaults.  A series route sums indices 0 .. DEFAULT_TERMS unless told otherwise.
DEFAULT_TERMS = 40
#: The tol of evaluate, the power series, the quadrature oracle and the tables unless told otherwise.
DEFAULT_TOL = 1e-13
#: evaluate judges a series route's converged against max(tol, SERIES_TOL_FLOOR); the series forms' default tol.
SERIES_TOL_FLOOR = 1e-12


def require_finite_complex(z: complex, name: str = "z") -> complex:
    """Reject NaN/Inf components, a modulus past the largest double, or a number past the double range (an
    int, say), up front; comparisons with NaN are unordered and would otherwise slip past domain gates."""
    try:
        z = complex(z)
    except OverflowError:  # an int past the double range, say
        msg = f"{name} must have finite components and modulus, got a number past the double range"
        raise DomainError(msg) from None
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise DomainError(f"{name} must have finite components and modulus, got {z}")
    return z


def is_count(n: object) -> bool:
    """True for what islice and range accept as a count (has __index__), except a bool."""
    return not isinstance(n, bool) and hasattr(n, "__index__")


def require_tol(tol: float) -> None:
    """Raise ConfigError unless tol is a finite number > 0 that float() takes (a bool is not a number here)."""
    try:
        ok = not isinstance(tol, bool) and 0.0 < tol and math.isfinite(tol)
    except (TypeError, OverflowError):  # OverflowError: an int past the double range
        ok = False
    if not ok:
        raise ConfigError(f"tol must be a finite number > 0, got {shown(tol)}")


def json_value(x: object) -> object:
    """x for a JSON field: a non-finite float becomes "inf", "-inf" or "nan", which float() reads back."""
    return repr(x) if isinstance(x, float) and not math.isfinite(x) else x


def stream_prefix(stream: Iterator, n_max: int) -> list:
    """Items 0 .. n_max of a coefficient or moment stream; a negative n_max raises ValueError."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {shown(n_max)}")
    return list(islice(stream, n_max + 1))


def require_finite_sum(total_abs: float, n_summed: int) -> None:
    """Raise RecurrenceBreakdown for a series sum whose modulus is not finite.

    At large n_summed, coefficients that overflowed to inf times moments
    that underflowed to 0 give NaN; a finite sum times a huge series
    weight gives inf.
    """
    if not math.isfinite(total_abs):
        raise RecurrenceBreakdown(
            f"series sum is {total_abs} after {n_summed} terms: a term or a series weight overflowed double precision"
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
    stops: tuple[int, ...], tol: float, *series: tuple[complex, Iterator[complex]], stop: float = 0.0,
    inflation: float = 1.0,
) -> Iterator[SeriesResult]:
    """Yield the sum of terms 0 .. n of each (weight, terms) series for each n in the ascending stops.

    The running sums of one left-to-right pass give each result, bit for bit that of stops = (n,).  The value is
    the sum of weight * (partial sum) over the series, in the order given.  est_error is tail_estimate of that
    value, with the sizes |weight| |term| of all series added into one abs_sum and one last term, times inflation;
    converged is est_error <= tol.  A partial sum or weighted value that is not finite, or an overflow, raises
    RecurrenceBreakdown.  Every series route sums here; a one-stop caller unpacks (res,) = ..., which ends the
    generator.  A stop > 0 (one series, or two with one stop index) ends the pass at the first index k where two
    successive sizes last are each at most stop / inflation * |value| (one series: |term| <= stop / inflation *
    |partial sum|); the result at k, the last yielded, has the bits of stops = (k,), and an overflow names its term.
    A stop at or above tol (the power series') is the convergence test: a result it did not end is unconverged.
    """
    start = k = below = 0  # with a stop: the index of the term being summed, and how many in a row were small
    bound = stop / inflation
    if stop and len(series) > 1:  # both series one index at a time; value, last and abs_sum have the bits of below
        (cap,), ((w0, terms0), (w1, terms1)) = stops, series
        a0, a1, s0, s1 = abs(w0), abs(w1), 0j, 0j
        part0 = part1 = last = 0.0
        try:
            for k, t0, t1 in zip(range(cap + 1), terms0, terms1):
                s0, s1 = s0 + t0, s1 + t1
                size0, size1 = abs(t0), abs(t1)
                part0, part1 = part0 + size0, part1 + size1
                last = a0 * size0 + a1 * size1
                if (below := below + 1 if last <= bound * abs(w0 * s0 + w1 * s1) else 0) == 2:
                    break
            require_finite_sum(abs(s0), k + 1)
            require_finite_sum(abs(s1), k + 1)
        except OverflowError:
            raise RecurrenceBreakdown(f"a term or partial sum overflowed double precision by term {k}") from None
        value = w0 * s0 + w1 * s1  # -0.0 + x and 0.0 + (x >= 0) are x
        est = tail_estimate(abs(value), a0 * part0 + a1 * part1, last, k + 1) * inflation
        yield SeriesResult(value, k, est, est <= tol and (below == 2 or stop < tol))
        return
    running = [(0j, 0.0, 0.0)] * len(series)  # per series: partial sum, sum of sizes, last size
    for n in stops:
        if n < start:
            raise ValueError(f"stops must be ascending non-negative integers, got {stops}")
        value = complex(-0.0, -0.0)  # not 0j: -0.0 + x is x for every x, and 0.0 + -0.0 is 0.0
        abs_sum = last = 0.0
        for i, (weight, terms) in enumerate(series):
            s, part_sum, size = running[i]
            try:
                for term in islice(terms, n + 1 - start):
                    s += term
                    size = abs(term)
                    part_sum += size
                    if stop:
                        below = below + 1 if size <= bound * abs(s) else 0
                        if below == 2:
                            n = k
                            break
                        k += 1
                require_finite_sum(abs(s), n + 1)
            except OverflowError:  # a modulus past the largest double, or an int product float() cannot take
                msg = f"a term or partial sum overflowed double precision by term {k if stop else n}"
                raise RecurrenceBreakdown(msg) from None
            running[i] = s, part_sum, size
            value += weight * s
            abs_sum += abs(weight) * part_sum
            last += abs(weight) * size
        start = n + 1
        est = tail_estimate(abs(value), abs_sum, last, n + 1) * inflation
        yield SeriesResult(value, n, est, est <= tol and (below == 2 or stop < tol))
        if below == 2:
            return


def cpow_principal(base: complex, exponent: float) -> complex:
    """Principal-branch power base**exponent = exp(exponent * Log base).

    Log is the principal logarithm with phase in (-pi, pi]; points on the
    negative real axis take the +pi side of the cut, so an imaginary part
    of -0.0 is collapsed to +0.0 before taking the logarithm.

    Raises DomainError for a zero base with non-positive exponent, and
    RecurrenceBreakdown where the power overflows double precision.
    """
    b = complex(base)
    if b.imag == 0.0:
        b = complex(b.real, 0.0)
    if b == 0:
        if exponent <= 0:
            raise DomainError("zero base with non-positive exponent")
        return 0j
    try:
        return cmath.exp(exponent * cmath.log(b))
    except OverflowError:
        raise RecurrenceBreakdown(f"({b})**{exponent} overflows double precision") from None


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
    reflection for small arguments, accurate to ~1 ulp).  A non-positive
    integer raises PoleError, and an overflow RecurrenceBreakdown.
    """
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise RecurrenceBreakdown(f"gamma({x}) overflows double precision") from None


#: B_2k / 2k for k = 1 .. 7: digamma's asymptotic series through the B_14 term (DLMF 5.11.2).
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x) / Gamma(x) for real x: reflection below 1/2, the recurrence up to x >= 10, then the
    asymptotic series.  A non-positive integer raises PoleError."""
    if x < 0.5:
        if x == math.floor(x):
            raise PoleError(f"digamma pole at {x}")
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))  # x - round(x) is exact
    shift = tail = 0.0
    while x < 10.0:
        shift, x = shift + 1.0 / x, x + 1.0
    for coef in reversed(_DIGAMMA_SERIES):
        tail = tail / (x * x) + coef
    return math.log(x) - 0.5 / x - tail / (x * x) - shift


def recip_gamma_real(x: float) -> float:
    """1 / gamma(x), which is entire: 0.0 at the poles of gamma; RecurrenceBreakdown past double range."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except (OverflowError, ZeroDivisionError):
        raise RecurrenceBreakdown(f"1/gamma({x}) is out of double precision range") from None


class HypParams(namedtuple("HypParams", "a b c")):
    """Real parameter triple (a, b, c) of 2F1(a, b, c; z).

    c must not be zero or a negative integer: (c)_n appears in series
    denominators.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, a: float, b: float, c: float) -> "HypParams":
        try:
            finite = math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
        except OverflowError:  # an int past the double range, say; the loop below names it
            finite = False
        if not finite:  # the first parameter at fault, in order
            try:
                for name, v in zip("abc", (a, b, c)):
                    if not math.isfinite(v):
                        raise ParamDomainError(f"parameter {name} must be finite, got {v}")
            except OverflowError:
                raise ParamDomainError(f"parameter {name} must be finite, got a number past the double range") from None
        if c <= 0.5 and abs(c - round(c)) < _INT_TOL and round(c) <= 0:
            raise ParamDomainError(f"c = {c} is zero or a negative integer (pole of every series denominator)")
        return tuple.__new__(cls, (a, b, c))

    def param_refusal(self, needs: str) -> ParamDomainError | None:
        """None when c > b > 0, else the ParamDomainError whose message needs opens, e.g. "Euler integral needs"."""
        return None if self.c > self.b > 0 else ParamDomainError("%s c > b > 0, got b=%s, c=%s", needs, self.b, self.c)


def expansion_refusal(
    params: HypParams, z: complex, margin_of: Callable[[complex], float], region: str, singular=(), region_args=()
) -> GaussHypError | None:
    """The rational expansions' gate: None, or in order a non-finite z (DomainError), z in singular (SingularityError),
    not c > b > 0 (ParamDomainError), margin_of(z) not > 0 (OutsideDomain, naming region % region_args)."""
    try:
        z = require_finite_complex(z)
    except DomainError as exc:
        return exc
    if z in singular:
        return SingularityError("z = %s: coefficient recursion is singular", z)
    if refusal := params.param_refusal("expansion derived under"):
        return refusal
    margin = margin_of(z)
    if not margin > 0.0:
        return OutsideDomain(f"z = %s outside {region} (margin %s)", z, *region_args, margin)
    return None
